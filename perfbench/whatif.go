package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mintc/internal/core"
	"mintc/internal/decomp"
	"mintc/internal/engine"
	"mintc/internal/gen"
	"mintc/internal/mcr"
	"mintc/internal/obs"
	"mintc/internal/parse"
	"mintc/internal/session"
)

// whatIf is one analysis session on a circuit above
// engine.DecompThreshold, answering a fixed seeded sequence of
// single-path delay edits with certified solves (mlp routes them to
// the decomposed solver), with CheckTc of the returned schedules and
// decomposed sweeps interleaved.
type whatIf struct {
	e      *env
	rings  []ring
	bind   int // index of the binding ring
	cc     *core.Compiled
	sess   *session.Session
	st     *decomp.State // the sweeps' shared component cache
	baseTc float64
	measured
	edits []editRecord

	rec   *obs.Rec // receives session and solver counters in traced rounds
	tally solveTally
}

// ring is one strongly connected component of the what-if circuit: a
// uniform two-phase ring of n latches starting at synchronizer first,
// whose paths are first..first+n-1.
type ring struct {
	first, n int
	delay    float64
}

type editRecord struct {
	path  int
	delay float64
	tc    float64
	sched *core.Schedule
}

// The what-if circuit's make-up. The ring sizes are fixed; the seed
// shuffles their order, draws each ring's delay and picks the binding
// ring. Setup and DQ delays are those of gen.Banks' examples.
var whatIfRingSizes = []struct{ n, count int }{
	{8, 8}, {16, 8}, {24, 6}, {32, 6}, {48, 4}, {64, 4}, {96, 4}, {128, 4}, {192, 4}, {256, 6},
}

const (
	ringSetup, ringDQ        = 1.0, 2.0
	ringDelayLo, ringDelayHi = 20.0, 30.0 // non-binding rings
	bindDelay                = 32.0       // the binding ring
	bindSize                 = 128
	editsPerRound            = 48
	bindEvery                = 8 // every 8th edit lands on the binding ring
	checkEvery               = 4 // every 4th edit's schedule is checked
	whatIfSweepPoints        = 16
	whatIfSweepsPerRound     = 2
	whatIfSampleChecks       = 8 // edits re-solved by mcr after the run
	nonBindLo, nonBindHi     = -5.0, 10.0
	bindEditLo, bindEditHi   = -2.0, 3.0
)

// buildWhatIf generates the what-if circuit for a seed.
func buildWhatIf(seed int64) (*core.Circuit, []ring, int) {
	rng := rand.New(rand.NewSource(roundSeed(seed, -3)))
	var sizes []int
	for _, s := range whatIfRingSizes {
		for i := 0; i < s.count; i++ {
			sizes = append(sizes, s.n)
		}
	}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	// The binding ring is one of the rings of bindSize latches; its
	// size is fixed because edits and sweeps on it cost in proportion.
	var cand []int
	for i, n := range sizes {
		if n == bindSize {
			cand = append(cand, i)
		}
	}
	bind := cand[rng.Intn(len(cand))]
	c := core.NewCircuit(2)
	rings := make([]ring, len(sizes))
	for i, n := range sizes {
		d := ringDelayLo + (ringDelayHi-ringDelayLo)*rng.Float64()
		if i == bind {
			d = bindDelay
		}
		first := c.L()
		for j := 0; j < n; j++ {
			c.AddLatch("", j%2, ringSetup, ringDQ)
		}
		for j := 0; j < n; j++ {
			c.AddPath(first+j, first+(j+1)%n, d)
		}
		rings[i] = ring{first: first, n: n, delay: d}
	}
	return c, rings, bind
}

func (w *whatIf) setup(ctx context.Context, e *env) (time.Duration, error) {
	w.e = e
	w.measured = newMeasured()
	w.rec = obs.New()

	c, rings, bind := buildWhatIf(e.seed)
	if c.L() < engine.DecompThreshold {
		return 0, fmt.Errorf("what-if circuit has %d synchronizers, below the decomposition threshold %d", c.L(), engine.DecompThreshold)
	}
	w.rings, w.bind = rings, bind
	var sb strings.Builder
	if err := parse.WriteCircuit(&sb, c); err != nil {
		return 0, err
	}
	pc, err := parse.CircuitString(sb.String())
	if err != nil {
		return 0, err
	}
	if w.cc, err = pc.Freeze(); err != nil {
		return 0, err
	}
	w.sess = session.New(w.cc, session.Config{})
	w.st = decomp.NewState()

	// The unedited optimum, checked against gen's closed form for a
	// uniform ring, maximised over the rings.
	res, err := w.sess.SolveCertified(ctx, "mlp", w.sess.Overlay(), engine.Options{}, engine.Policy{})
	if err != nil {
		return 0, fmt.Errorf("unedited solve: %w", err)
	}
	w.baseTc = res.Tc
	closed := 0.0
	for _, r := range rings {
		closed = max(closed, gen.BanksOptimalTc(1, ringSetup, ringDQ, r.delay))
	}
	e.chk.add(sameTc("what-if unedited vs closed form", res.Tc, closed))

	// The first edited solve of the session, timed on its own: it pays
	// whatever lazy per-session work the session defers to it.
	ed := w.editFor(rand.New(rand.NewSource(roundSeed(e.seed, -4))), 1)
	t0 := time.Now()
	_, err = w.sess.SolveCertified(ctx, "mlp", w.sess.Overlay().With(ed.path, ed.delay), engine.Options{}, engine.Policy{})
	firstEdit := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("first edited solve: %w", err)
	}
	return firstEdit, nil
}

// editFor draws edit i of a round: every bindEvery-th lands on the
// binding ring, the others on a random other ring, each on a random
// path of its ring.
func (w *whatIf) editFor(rng *rand.Rand, i int) editRecord {
	ri := w.bind
	lo, hi := bindEditLo, bindEditHi
	if i%bindEvery != 0 {
		ri = rng.Intn(len(w.rings) - 1)
		if ri >= w.bind {
			ri++
		}
		lo, hi = nonBindLo, nonBindHi
	}
	r := w.rings[ri]
	return editRecord{path: r.first + rng.Intn(r.n), delay: r.delay + lo + (hi-lo)*rng.Float64()}
}

func (w *whatIf) roundSeconds() float64 { return 0.14 }

func (w *whatIf) heapRounds() int { return 6 }

func (w *whatIf) minRounds() int {
	return (100*minBeyond + 10 + editsPerRound - 1) / editsPerRound
}

func (w *whatIf) round(ctx context.Context, r int, record bool) error {
	l, done := w.e.tr.roundLane(0)
	defer done()
	qctx := ctx
	if l != nil {
		qctx = obs.With(ctx, w.rec)
	}
	note := func(kind string, err error) {
		if record {
			w.counts.note(kind, err)
		}
	}
	rng := roundRand(w.e.seed, r)
	base := w.sess.Overlay()
	for i := 0; i < editsPerRound; i++ {
		if i%(editsPerRound/whatIfSweepsPerRound) == editsPerRound/whatIfSweepsPerRound/2 {
			w.sweepOnce(qctx, rng, l, r, i == editsPerRound/whatIfSweepsPerRound/2, record, note)
		}
		ed := w.editFor(rng, i)
		ov := base.With(ed.path, ed.delay)
		t0 := time.Now()
		sp := l.begin("session.solve")
		res, err := w.sess.SolveCertified(qctx, "mlp", ov, engine.Options{}, engine.Policy{})
		l.end(sp)
		dt := time.Since(t0)
		note("solve", err)
		if err != nil {
			continue
		}
		if l != nil {
			w.tally.add(len(res.Trail))
		}
		if record {
			w.solve.add("whatif", ms(dt))
			ed.tc, ed.sched = res.Tc, res.Schedule
			w.edits = append(w.edits, ed)
		}
		if i%checkEvery != checkEvery-1 {
			continue
		}
		t0 = time.Now()
		sp = l.begin("session.checktc")
		an, err := w.sess.CheckTc(qctx, ov, res.Schedule, core.Options{})
		l.end(sp)
		dt = time.Since(t0)
		note("checktc", err)
		if err != nil {
			continue
		}
		if !an.Feasible {
			w.e.chk.add(fmt.Errorf("what-if edit path %d = %g: returned schedule fails CheckTc: %v", ed.path, ed.delay, an.Violations))
		}
		if record {
			w.check.add("whatif", ms(dt))
		}
	}
	return nil
}

// sweepOnce runs one decomposed sweep of a random path, on the binding
// ring when onBind is set and otherwise on the next of the other rings
// in circuit order, round by round: a sweep costs in proportion to its
// ring's size, and a random ring per round made the run's sweep cost
// move with the seed.
func (w *whatIf) sweepOnce(ctx context.Context, rng *rand.Rand, l *lane, r int, onBind, record bool, note func(string, error)) {
	ri := w.bind
	if !onBind {
		ri = max(r, 0) % (len(w.rings) - 1)
		if ri >= w.bind {
			ri++
		}
	}
	rg := w.rings[ri]
	path := rg.first + rng.Intn(rg.n)
	values, anchor := grid(rg.delay, whatIfSweepPoints, 0.3+0.3*rng.Float64())
	t0 := time.Now()
	sp := l.begin("decomp.sweep")
	tcs, errs := decomp.SweepStateCtx(ctx, w.cc, core.Options{}, path, values, decomp.Config{}, w.st)
	l.end(sp)
	dt := time.Since(t0)
	err := firstErr(errs)
	note("sweep", err)
	if err != nil {
		return
	}
	w.e.chk.add(checkCurve(fmt.Sprintf("what-if sweep of path %d", path), values, tcs, anchor, w.baseTc))
	if record {
		w.sweep.add("whatif", float64(len(values)), dt.Seconds())
	}
}

// verify re-solves a seeded sample of the timed edits with the
// independent min-cycle-ratio engine, half of them on the binding ring,
// and checks their schedules against CheckTc both ways.
func (w *whatIf) verify(ctx context.Context) {
	rng := rand.New(rand.NewSource(roundSeed(w.e.seed, -5)))
	var onBind, off []int
	for i, ed := range w.edits {
		if w.ringOf(ed.path) == w.bind {
			onBind = append(onBind, i)
		} else {
			off = append(off, i)
		}
	}
	var sample []int
	for _, set := range [][]int{onBind, off} {
		for k := 0; k < whatIfSampleChecks/2 && len(set) > 0; k++ {
			sample = append(sample, set[rng.Intn(len(set))])
		}
	}
	for _, i := range sample {
		ed := w.edits[i]
		what := fmt.Sprintf("what-if edit path %d = %g", ed.path, ed.delay)
		ov := w.sess.Overlay().With(ed.path, ed.delay)
		m, err := mcr.SolveCtx(ctx, ov.Materialize(), core.Options{})
		if err != nil {
			w.e.chk.add(fmt.Errorf("%s: mcr: %w", what, err))
			continue
		}
		w.e.chk.add(sameTc(what+" vs mcr", ed.tc, m.Tc))
		w.e.chk.add(checkSchedule(what, ov, ed.sched, core.Options{}))
	}
}

func (w *whatIf) ringOf(path int) int {
	for i, r := range w.rings {
		if path >= r.first && path < r.first+r.n {
			return i
		}
	}
	return -1
}

func (w *whatIf) layers(_ context.Context, _ traceSummary, rounds int) map[string]float64 {
	lv := make(map[string]float64)
	obsLayers(w.rec.Snapshot(), rounds, lv)
	w.tally.layers(rounds, lv)
	return lv
}

func (w *whatIf) close() {}
