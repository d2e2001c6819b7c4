package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mintc/internal/core"
	"mintc/internal/engine"
	"mintc/internal/gen"
	"mintc/internal/obs"
	"mintc/internal/parse"
	"mintc/internal/serve"
)

// serveMix drives an in-process smod on a loopback listener with
// mixConns closed-loop HTTP connections, each sending its next request
// only after the previous answer arrived. Every round is a fixed,
// seeded request list over toy, ~100- and 512-latch sessions.
type serveMix struct {
	e        *env
	srv      *serve.Server
	hs       *http.Server
	served   chan error // Serve's return, once the listener closes
	client   *http.Client
	base     string
	sessions []*mixSession
	measured
	mcTrials    float64
	mcSecs      float64
	answers     []answer // every timed answer, for the library comparison
	openMs      []float64
	timedRounds int
	metrics0    *obs.Stats // smod's /metrics counters when timing began
	tally       solveTally
}

// mixSession is one circuit opened on the server, with an in-process
// snapshot of the same text for the library comparison.
type mixSession struct {
	name    string
	text    string
	optimal float64
	digest  string
	cc      *core.Compiled
	sched   *core.Schedule // the unedited optimum's schedule
	tc      float64        // the unedited optimum

	solves, repeats, checks, reopts int // requests per round
	sweepPath                       int // -1 = no sweeps on this session
	mcTrials                        int // 0 = no Monte-Carlo on this session
}

// mixCircuits is the session mix: name and per-round request counts.
var mixCircuits = []struct {
	name                            string
	solves, repeats, checks, reopts int
	sweeps, mcTrials                int
}{
	{"example1-80", 16, 4, 2, 2, 1, 0},
	{"example2", 16, 4, 2, 2, 1, 128},
	{"rand-large", 10, 2, 2, 2, 1, 0},
	{"ring-2x128", 10, 2, 2, 2, 1, 0},
	{"ring-2x512", 2, 0, 2, 2, 0, 0},
}

const mixSweepPoints = 8

// mixConns is the number of client connections. One closed loop leaves
// the second of the machine's two CPUs to the client, the collector
// and the network poller. With two loops, a 0.2 ms toy request waits
// in the Go scheduler behind the other loop's 20 ms 512-latch solve,
// and the served p99 swung by 25-30% between runs of the same inputs.
const mixConns = 1

type editJSON struct {
	Path  int     `json:"path"`
	Delay float64 `json:"delay"`
}

type scheduleJSON struct {
	Tc float64   `json:"tc"`
	S  []float64 `json:"s"`
	T  []float64 `json:"t"`
}

// request is one entry of a round's request list.
type request struct {
	kind   string // solve, repeat, checktc, reoptimize, sweep, montecarlo
	sess   *mixSession
	url    string
	body   []byte
	stream bool

	edits  []editJSON // what-if edits of solve and checktc
	path   int        // reoptimize/sweep path
	delay  float64    // reoptimize delay
	values []float64  // sweep grid
	anchor int
	of     int // index of the original request, for repeats; -1 otherwise
}

// reply is what a connection brings back for one request.
type reply struct {
	dur    time.Duration
	status int
	body   []byte   // unary response
	lines  [][]byte // stream records
	err    error
}

// answer is a served answer kept for the library comparison.
type answer struct {
	req      *request
	tc       float64   // solve, reoptimize
	feasible bool      // checktc
	slack    float64   // checktc worst setup slack
	tcs      []float64 // sweep
}

func (w *serveMix) setup(ctx context.Context, e *env) (time.Duration, error) {
	w.e = e
	w.measured = newMeasured()

	byName := make(map[string]gen.Benchmark)
	for _, b := range append(gen.Suite(), gen.XLarge()...) {
		byName[b.Name] = b
	}
	rng := roundRand(e.seed, -2)
	for _, mc := range mixCircuits {
		b, ok := byName[mc.name]
		if !ok {
			return 0, fmt.Errorf("no generated circuit %q", mc.name)
		}
		var sb strings.Builder
		if err := parse.WriteCircuit(&sb, b.Circuit); err != nil {
			return 0, err
		}
		s := &mixSession{name: mc.name, text: sb.String(), optimal: b.OptimalTc,
			solves: mc.solves, repeats: mc.repeats, checks: mc.checks, reopts: mc.reopts,
			sweepPath: -1, mcTrials: mc.mcTrials}
		if mc.sweeps > 0 {
			s.sweepPath = rng.Intn(len(b.Circuit.Paths()))
		}
		w.sessions = append(w.sessions, s)
	}

	w.srv = serve.New(serve.Config{Logger: log.New(io.Discard, "", 0)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	var h http.Handler = w.srv.Handler()
	if e.traced {
		h = e.tr.wrapHandler("serve.handler", h)
	}
	w.hs = &http.Server{Handler: h}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     mixConns,
		MaxIdleConnsPerHost: mixConns,
		DisableCompression:  true,
	}}

	var firstEdits time.Duration
	for _, s := range w.sessions {
		var open struct{ Digest string }
		t0 := time.Now()
		if err := w.postJSON(ctx, "/v1/sessions", map[string]any{"tenant": "bench", "circuit": s.text}, &open); err != nil {
			return 0, fmt.Errorf("open %s: %w", s.name, err)
		}
		w.openMs = append(w.openMs, ms(time.Since(t0)))
		s.digest = open.Digest
		c, err := parse.CircuitString(s.text)
		if err != nil {
			return 0, err
		}
		if s.cc, err = c.Freeze(); err != nil {
			return 0, err
		}
		var mt struct {
			Tc       float64
			Schedule scheduleJSON
		}
		if err := w.postJSON(ctx, "/v1/mintc", map[string]any{"digest": s.digest}, &mt); err != nil {
			return 0, fmt.Errorf("mintc %s: %w", s.name, err)
		}
		s.tc = mt.Tc
		s.sched = &core.Schedule{Tc: mt.Schedule.Tc, S: mt.Schedule.S, T: mt.Schedule.T}
		if s.optimal > 0 {
			e.chk.add(sameTc(s.name+" served unedited vs closed form", s.tc, s.optimal))
		}
		// The session's first edited certified solve, timed on its own.
		p := rng.Intn(len(s.cc.Circuit().Paths()))
		t0 = time.Now()
		err = w.postJSON(ctx, "/v1/solve", map[string]any{"digest": s.digest, "certify": true,
			"edits": []editJSON{{p, s.cc.Circuit().Paths()[p].Delay + 1}}}, nil)
		firstEdits += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("first edit %s: %w", s.name, err)
		}
	}
	return firstEdits, nil
}

// postJSON sends one unary request outside the timed rounds.
func (w *serveMix) postJSON(ctx context.Context, url string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	rp := w.do(ctx, &request{url: url, body: b}, nil)
	if rp.err != nil {
		return rp.err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(rp.body, out)
}

// do sends one request and reads the whole answer. The span header is
// set when the lane records, so the handler's span nests under it.
func (w *serveMix) do(ctx context.Context, rq *request, l *lane) reply {
	sp := l.begin("serve.request")
	defer l.end(sp)
	t0 := time.Now()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+rq.url, bytes.NewReader(rq.body))
	if err != nil {
		return reply{err: err}
	}
	hr.Header.Set("Content-Type", "application/json")
	if sp >= 0 {
		hr.Header.Set(spanHeader, l.header(sp))
	}
	resp, err := w.client.Do(hr)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	rp := reply{status: resp.StatusCode}
	if rq.stream && resp.StatusCode == http.StatusOK {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			rp.lines = append(rp.lines, append([]byte(nil), sc.Bytes()...))
		}
		rp.err = sc.Err()
	} else {
		rp.body, rp.err = io.ReadAll(resp.Body)
	}
	rp.dur = time.Since(t0)
	if rp.err == nil && rp.status != http.StatusOK {
		rp.err = fmt.Errorf("%s: HTTP %d: %s", rq.url, rp.status, bytes.TrimSpace(rp.body))
	}
	return rp
}

func (w *serveMix) roundSeconds() float64 { return 0.15 }

func (w *serveMix) heapRounds() int { return 4 }

func (w *serveMix) minRounds() int {
	perRound := 0
	for _, s := range w.sessions {
		perRound += s.solves
	}
	return (100*minBeyond + 10 + perRound - 1) / perRound
}

// buildRound draws round r's request list: every session's fixed
// counts of each kind with seeded edits, shuffled, then exact repeats
// of earlier solves inserted at least repeatGap requests after their
// originals.
func (w *serveMix) buildRound(r int) []*request {
	rng := roundRand(w.e.seed, r)
	var reqs []*request
	add := func(rq *request, body map[string]any) {
		b, _ := json.Marshal(body) // maps of numbers, strings and slices of them always marshal
		rq.body, rq.of = b, -1
		reqs = append(reqs, rq)
	}
	edit := func(s *mixSession) []editJSON {
		paths := s.cc.Circuit().Paths()
		p := rng.Intn(len(paths))
		return []editJSON{{p, paths[p].Delay * (0.5 + rng.Float64())}}
	}
	for _, s := range w.sessions {
		for i := 0; i < s.solves; i++ {
			ed := edit(s)
			add(&request{kind: "solve", sess: s, url: "/v1/solve", edits: ed},
				map[string]any{"digest": s.digest, "certify": true, "edits": ed})
		}
		for i := 0; i < s.checks; i++ {
			ed := edit(s)
			add(&request{kind: "checktc", sess: s, url: "/v1/checktc", edits: ed},
				map[string]any{"digest": s.digest, "edits": ed, "schedule": scheduleJSON{s.sched.Tc, s.sched.S, s.sched.T}})
		}
		for i := 0; i < s.reopts; i++ {
			ed := edit(s)[0]
			add(&request{kind: "reoptimize", sess: s, url: "/v1/reoptimize", path: ed.Path, delay: ed.Delay},
				map[string]any{"digest": s.digest, "path": ed.Path, "delay": ed.Delay})
		}
		if s.sweepPath >= 0 {
			values, anchor := grid(s.cc.Circuit().Paths()[s.sweepPath].Delay, mixSweepPoints, 0.3+0.4*rng.Float64())
			add(&request{kind: "sweep", sess: s, url: "/v1/sweep", stream: true, path: s.sweepPath, values: values, anchor: anchor},
				map[string]any{"digest": s.digest, "path": s.sweepPath, "values": values})
		}
		if s.mcTrials > 0 {
			body := map[string]any{"digest": s.digest, "trials": s.mcTrials, "seed": rng.Int63n(1 << 30)}
			add(&request{kind: "montecarlo", sess: s, url: "/v1/montecarlo", stream: true}, body)
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	// A Monte-Carlo campaign is always repeated, so it must not sit in
	// the list's tail.
	const repeatGap = 8
	for i := len(reqs) - repeatGap; i < len(reqs); i++ {
		if reqs[i].kind == "montecarlo" {
			j := rng.Intn(len(reqs) / 2)
			reqs[i], reqs[j] = reqs[j], reqs[i]
		}
	}

	insertAfter := func(orig int) {
		pos := orig + repeatGap + rng.Intn(len(reqs)-orig-repeatGap+1)
		o := reqs[orig]
		kind := "repeat"
		if o.kind == "montecarlo" {
			kind = "montecarlo" // a repeated campaign is recomputed, not cached
		}
		rq := &request{kind: kind, sess: o.sess, url: o.url, body: o.body, stream: o.stream, edits: o.edits, of: orig}
		reqs = append(reqs[:pos], append([]*request{rq}, reqs[pos:]...)...)
		// Later originals shift by one; fix their repeats' indices.
		for _, q := range reqs[pos+1:] {
			if q.of >= pos {
				q.of++
			}
		}
	}
	for _, s := range w.sessions {
		for i := 0; i < s.repeats; i++ {
			var cand []int
			for j, q := range reqs[:len(reqs)-repeatGap] {
				if q.sess == s && q.kind == "solve" {
					cand = append(cand, j)
				}
			}
			insertAfter(cand[rng.Intn(len(cand))])
		}
		if s.mcTrials > 0 {
			for j, q := range reqs[:len(reqs)-repeatGap] {
				if q.sess == s && q.kind == "montecarlo" && q.of < 0 {
					insertAfter(j)
					break
				}
			}
		}
	}
	return reqs
}

func (w *serveMix) round(ctx context.Context, r int, record bool) error {
	reqs := w.buildRound(r)
	if record && w.metrics0 == nil {
		st, err := w.obsSnapshot(ctx)
		if err != nil {
			return err
		}
		w.metrics0 = &st
	}
	replies := make([]reply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < mixConns; c++ {
		l, done := w.e.tr.roundLane(c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				replies[i] = w.do(ctx, reqs[i], l)
			}
		}()
	}
	wg.Wait()
	if record {
		w.timedRounds++
	}
	for i, rq := range reqs {
		w.collect(rq, replies[i], replies, record)
	}
	return nil
}

// collect checks one reply and records its sample.
func (w *serveMix) collect(rq *request, rp reply, all []reply, record bool) {
	err := rp.err
	var ans answer
	ans.req = rq
	if err == nil {
		ans, err = w.decode(rq, rp)
	}
	if record {
		w.counts.note(rq.kind, err)
	}
	if err != nil {
		return
	}
	chk := w.e.chk
	what := fmt.Sprintf("%s %s %s", rq.sess.name, rq.kind, rq.body)
	switch rq.kind {
	case "repeat":
		if o := all[rq.of]; o.err == nil && !bytes.Equal(o.body, rp.body) {
			chk.add(fmt.Errorf("%s: repeated query answered %s, first answer %s", what, rp.body, o.body))
		}
	case "montecarlo":
		if rq.of >= 0 {
			o := all[rq.of]
			if o.err == nil && !bytes.Equal(o.lines[len(o.lines)-1], rp.lines[len(rp.lines)-1]) {
				chk.add(fmt.Errorf("%s: identical campaigns differ: %s vs %s", what, rp.lines[len(rp.lines)-1], o.lines[len(o.lines)-1]))
			}
		}
	case "sweep":
		chk.add(checkCurve(what, rq.values, ans.tcs, rq.anchor, rq.sess.tc))
	}
	if !record {
		return
	}
	w.answers = append(w.answers, ans)
	d := ms(rp.dur)
	switch rq.kind {
	case "solve":
		w.solve.add(rq.sess.name, d)
	case "checktc":
		w.check.add(rq.sess.name, d)
	case "sweep":
		w.sweep.add(rq.sess.name, float64(len(rq.values)), rp.dur.Seconds())
	case "montecarlo":
		w.mcTrials += float64(rq.sess.mcTrials)
		w.mcSecs += rp.dur.Seconds()
	}
}

// decode parses one reply into an answer; an in-band error record or
// a missing certificate is an error.
func (w *serveMix) decode(rq *request, rp reply) (answer, error) {
	a := answer{req: rq}
	switch rq.kind {
	case "solve", "repeat":
		var v struct {
			Tc        float64
			Certified bool
			Trail     []json.RawMessage
		}
		if err := json.Unmarshal(rp.body, &v); err != nil {
			return a, err
		}
		if !v.Certified {
			return a, fmt.Errorf("uncertified answer: %s", rp.body)
		}
		if w.e.tr.on.Load() && rq.kind == "solve" {
			w.tally.add(len(v.Trail))
		}
		a.tc = v.Tc
	case "checktc":
		var v struct {
			Feasible        bool
			WorstSetupSlack float64 `json:"worst_setup_slack"`
		}
		if err := json.Unmarshal(rp.body, &v); err != nil {
			return a, err
		}
		a.feasible, a.slack = v.Feasible, v.WorstSetupSlack
	case "reoptimize":
		var v struct{ Tc float64 }
		if err := json.Unmarshal(rp.body, &v); err != nil {
			return a, err
		}
		a.tc = v.Tc
	case "sweep", "montecarlo":
		if len(rp.lines) == 0 {
			return a, errors.New("empty stream")
		}
		var last struct {
			Done  bool
			Error string
		}
		if err := json.Unmarshal(rp.lines[len(rp.lines)-1], &last); err != nil {
			return a, err
		}
		if !last.Done {
			return a, fmt.Errorf("stream ended without done: %s", rp.lines[len(rp.lines)-1])
		}
		if rq.kind == "montecarlo" {
			break
		}
		for _, line := range rp.lines[:len(rp.lines)-1] {
			var pt struct {
				Tc    *float64
				Error string
			}
			if err := json.Unmarshal(line, &pt); err != nil {
				return a, err
			}
			if pt.Error != "" || pt.Tc == nil {
				return a, fmt.Errorf("sweep point: %s", line)
			}
			a.tcs = append(a.tcs, *pt.Tc)
		}
		if len(a.tcs) != len(rq.values) {
			return a, fmt.Errorf("sweep returned %d of %d points", len(a.tcs), len(rq.values))
		}
	}
	return a, nil
}

// mixLibrarySamples is how many served answers of each kind are
// answered again in-process through the library after the run.
const mixLibrarySamples = 6

// verify answers a seeded sample of the served queries of every kind
// again through the library, in-process, and compares.
func (w *serveMix) verify(ctx context.Context) {
	rng := rand.New(rand.NewSource(roundSeed(w.e.seed, -5)))
	byKind := make(map[string][]answer)
	for _, a := range w.answers {
		byKind[a.req.kind] = append(byKind[a.req.kind], a)
	}
	for _, kind := range []string{"solve", "checktc", "reoptimize", "sweep"} {
		set := byKind[kind]
		for k := 0; k < mixLibrarySamples && len(set) > 0; k++ {
			w.e.chk.add(w.library(ctx, set[rng.Intn(len(set))], rng))
		}
	}
}

// library answers one served query in-process and compares.
func (w *serveMix) library(ctx context.Context, a answer, rng *rand.Rand) error {
	rq, s := a.req, a.req.sess
	what := fmt.Sprintf("%s %s %s", s.name, rq.kind, rq.body)
	ov := s.cc.Overlay()
	for _, ed := range rq.edits {
		ov = ov.With(ed.Path, ed.Delay)
	}
	switch rq.kind {
	case "solve":
		res, err := engine.SolveCertifiedOverlay(ctx, "mlp", ov, engine.Options{}, engine.Policy{})
		if err != nil {
			return fmt.Errorf("%s: library: %w", what, err)
		}
		return sameTc(what+" served vs library", a.tc, res.Tc)
	case "checktc":
		an, err := core.CheckTcOverlay(ov, s.sched, core.Options{})
		if err != nil {
			return fmt.Errorf("%s: library: %w", what, err)
		}
		if an.Feasible != a.feasible {
			return fmt.Errorf("%s: served feasible=%v, library %v", what, a.feasible, an.Feasible)
		}
		worst := math.Inf(1)
		for _, x := range an.SetupSlack {
			if !math.IsNaN(x) {
				worst = min(worst, x)
			}
		}
		if math.IsInf(worst, 0) {
			worst = 0
		}
		return sameTc(what+" worst setup slack served vs library", a.slack, worst)
	case "reoptimize":
		res, err := core.MinTcOverlayCtx(ctx, ov.With(rq.path, rq.delay), core.Options{})
		if err != nil {
			return fmt.Errorf("%s: library: %w", what, err)
		}
		return sameTc(what+" served vs library", a.tc, res.Schedule.Tc)
	case "sweep":
		i := rng.Intn(len(rq.values))
		res, err := core.MinTcOverlayCtx(ctx, ov.With(rq.path, rq.values[i]), core.Options{})
		if err != nil {
			return fmt.Errorf("%s: library: %w", what, err)
		}
		return sameTc(fmt.Sprintf("%s point %g served vs library", what, rq.values[i]), a.tcs[i], res.Schedule.Tc)
	}
	return nil
}

// obsSnapshot reads the obs counters smod exposes on /metrics.
func (w *serveMix) obsSnapshot(ctx context.Context) (obs.Stats, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/metrics", nil)
	if err != nil {
		return obs.Stats{}, err
	}
	resp, err := w.client.Do(hr)
	if err != nil {
		return obs.Stats{}, err
	}
	defer resp.Body.Close()
	var m serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return obs.Stats{}, fmt.Errorf("decode /metrics: %w", err)
	}
	return m.Obs, nil
}

func (w *serveMix) layers(ctx context.Context, _ traceSummary, rounds int) map[string]float64 {
	lv := make(map[string]float64)
	if st, err := w.obsSnapshot(ctx); err == nil && w.metrics0 != nil {
		obsLayers(diffStats(st, *w.metrics0), w.timedRounds, lv)
	} else if err != nil {
		w.e.chk.add(fmt.Errorf("serve /metrics: %w", err))
	}
	w.tally.layers(rounds, lv)
	lv["serve.open_ms"] = median(w.openMs)
	if w.mcSecs > 0 {
		lv["sim.trials_per_s"] = w.mcTrials / w.mcSecs
	}
	return lv
}

// diffStats returns a − b per counter and stage.
func diffStats(a, b obs.Stats) obs.Stats {
	out := obs.Stats{Counters: make(map[string]int64), StageNs: make(map[string]int64)}
	for k, v := range a.Counters {
		out.Counters[k] = v - b.Counters[k]
	}
	for k, v := range a.StageNs {
		out.StageNs[k] = v - b.StageNs[k]
	}
	return out
}

// close drains smod, shuts the HTTP server and waits for it to return.
func (w *serveMix) close() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.srv.Drain(ctx) // nothing is in flight between rounds
	_ = w.hs.Shutdown(ctx)
	w.client.CloseIdleConnections()
	<-w.served
	w.srv = nil
}
