package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"mintc/internal/core"
	"mintc/internal/engine"
	"mintc/internal/gen"
	"mintc/internal/mcr"
	"mintc/internal/obs"
	"mintc/internal/parse"
)

// coldSuite is the designer's CLI loop: for every circuit of a fixed
// list, .smo text → parse → Freeze → certified min-Tc by mlp, then
// CheckTc of a fixed schedule, then a 64-point delay sweep through the
// library sweep route. No session and no cache, so parse, core and the
// monolithic LP do nearly all the work.
type coldSuite struct {
	e        *env
	circuits []*coldCircuit
	measured

	rec   *obs.Rec // receives the engine's counters in traced rounds
	tally solveTally
}

type coldCircuit struct {
	name    string
	text    string
	optimal float64 // closed-form optimum, 0 when unknown
	reps    int     // repetitions per round

	path   int
	values []float64 // sweep grid over path's delay
	anchor int       // index of the unedited delay in values

	tc    float64        // certified optimum from setup
	sched *core.Schedule // its schedule: the fixed CheckTc input
}

// sweepPoints is the length of every cold-suite sweep.
const sweepPoints = 64

// coldReps sets a circuit's repetitions per round from its size, so
// small circuits gather enough samples without the round's mix
// changing from run to run.
func coldReps(l int) int {
	switch {
	case l <= 20:
		return 16
	case l <= 40:
		return 8
	case l <= 140:
		return 2
	}
	return 1
}

func (w *coldSuite) setup(ctx context.Context, e *env) (time.Duration, error) {
	w.e = e
	w.measured = newMeasured()
	w.rec = obs.New()
	rng := roundRand(e.seed, -2)
	for _, b := range append(gen.Suite(), gen.XLarge()...) {
		var sb strings.Builder
		if err := parse.WriteCircuit(&sb, b.Circuit); err != nil {
			return 0, fmt.Errorf("%s: write: %w", b.Name, err)
		}
		c := &coldCircuit{name: b.Name, text: sb.String(), optimal: b.OptimalTc, reps: coldReps(b.Circuit.L())}
		// The swept path is fixed per circuit (its first path): which
		// path is swept decides how many linear pieces the parametric
		// walk meets, and that must not change with the seed. The seed
		// sets the grid's extent.
		c.values, c.anchor = grid(b.Circuit.Paths()[c.path].Delay, sweepPoints, 0.4+0.1*rng.Float64())
		res, _, err := w.solveText(ctx, c, nil)
		if err != nil {
			return 0, fmt.Errorf("%s: reference solve: %w", b.Name, err)
		}
		c.tc, c.sched = res.Tc, res.Schedule
		w.circuits = append(w.circuits, c)
	}
	return 0, nil
}

// solveText runs the measured solve path: parse, Freeze, certified mlp.
func (w *coldSuite) solveText(ctx context.Context, c *coldCircuit, l *lane) (*engine.Result, *core.Compiled, error) {
	sp := l.begin("parse")
	circ, err := parse.CircuitString(c.text)
	l.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = l.begin("core.freeze")
	cc, err := circ.Freeze()
	l.end(sp)
	if err != nil {
		return nil, nil, err
	}
	opts := engine.Options{}
	if l != nil {
		opts.Rec = w.rec
	}
	sp = l.begin("engine.solve")
	res, err := engine.SolveCertifiedOverlay(ctx, "mlp", cc.Overlay(), opts, engine.Policy{})
	l.end(sp)
	if err != nil {
		return nil, cc, err
	}
	if l != nil {
		w.tally.add(len(res.Trail))
	}
	return res, cc, nil
}

func (w *coldSuite) roundSeconds() float64 { return 1.6 }

func (w *coldSuite) heapRounds() int { return 1 }

func (w *coldSuite) minRounds() int {
	perRound := 0
	for _, c := range w.circuits {
		perRound += c.reps
	}
	return (100*minBeyond + 10 + perRound - 1) / perRound
}

func (w *coldSuite) round(ctx context.Context, r int, record bool) error {
	l, done := w.e.tr.roundLane(0)
	defer done()
	for _, c := range w.circuits {
		reps := c.reps
		if r < 0 {
			reps = 1
		}
		for k := 0; k < reps; k++ {
			w.rep(ctx, c, l, record)
		}
	}
	return nil
}

// rep runs one circuit's three operations once.
func (w *coldSuite) rep(ctx context.Context, c *coldCircuit, l *lane, record bool) {
	note := func(kind string, err error) {
		if record {
			w.counts.note(kind, err)
		}
	}
	t0 := time.Now()
	res, cc, err := w.solveText(ctx, c, l)
	dt := time.Since(t0)
	note("solve", err)
	if err == nil {
		w.e.chk.add(sameTc(c.name+" repeated solve", res.Tc, c.tc))
	}
	if err == nil && record {
		w.solve.add(c.name, ms(dt))
	}
	if cc == nil {
		note("checktc", err)
		note("sweep", err)
		return
	}

	t0 = time.Now()
	sp := l.begin("core.checktc")
	an, err := core.CheckTcOverlay(cc.Overlay(), c.sched, core.Options{})
	l.end(sp)
	dt = time.Since(t0)
	note("checktc", err)
	if err == nil && !an.Feasible {
		w.e.chk.add(fmt.Errorf("%s: the certified schedule fails CheckTc: %v", c.name, an.Violations))
	}
	if err == nil && record {
		w.check.add(c.name, ms(dt))
	}

	t0 = time.Now()
	sp = l.begin("core.sweep")
	tcs, errs := core.SweepDelaysCompiled(cc, core.Options{}, c.path, c.values)
	l.end(sp)
	dt = time.Since(t0)
	err = firstErr(errs)
	note("sweep", err)
	if err == nil {
		w.e.chk.add(checkCurve(c.name+" sweep", c.values, tcs, c.anchor, c.tc))
	}
	if err == nil && record {
		w.sweep.add(c.name, float64(len(c.values)), dt.Seconds())
	}
}

// verify compares every circuit's certified optimum with the
// independent min-cycle-ratio engine and the closed form where gen
// has one, and checks its schedule against CheckTc both ways.
func (w *coldSuite) verify(ctx context.Context) {
	for _, c := range w.circuits {
		circ, err := parse.CircuitString(c.text)
		if err != nil {
			w.e.chk.add(fmt.Errorf("%s: %w", c.name, err))
			continue
		}
		m, err := mcr.SolveCtx(ctx, circ, core.Options{})
		if err != nil {
			w.e.chk.add(fmt.Errorf("%s: mcr: %w", c.name, err))
		} else {
			w.e.chk.add(sameTc(c.name+" vs mcr", c.tc, m.Tc))
		}
		if c.optimal > 0 {
			w.e.chk.add(sameTc(c.name+" vs closed form", c.tc, c.optimal))
		}
		cc, err := circ.Freeze()
		if err != nil {
			w.e.chk.add(fmt.Errorf("%s: %w", c.name, err))
			continue
		}
		w.e.chk.add(checkSchedule(c.name, cc.Overlay(), c.sched, core.Options{}))
	}
}

func (w *coldSuite) layers(_ context.Context, _ traceSummary, rounds int) map[string]float64 {
	lv := make(map[string]float64)
	obsLayers(w.rec.Snapshot(), rounds, lv)
	w.tally.layers(rounds, lv)
	return lv
}

func (w *coldSuite) close() {}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// firstErr returns the first non-nil error.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
