// Command perfbench is mintc's end-to-end benchmark. It runs one of
// three workloads (cold-suite, whatif-scale, serve-mix) in a single
// process, checks every answer against independent computations, and
// prints one JSON line of metrics: the end-to-end metrics when run
// untraced, the per-layer metrics when run with --trace 1.
//
//	go run . --workload cold-suite --seed 1 --seconds 10 --trace 0
//	go run . --steady 10 --seconds 10   # median and spread per metric
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// workload is one benchmark scenario. A run calls setup setupReps
// times on fresh values (the last one is kept), then round for a fixed
// number of rounds derived from the time budget, then verify.
type workload interface {
	// setup builds the workload's inputs and state from the seed and
	// warms it up; it returns the first edited solve's time where the
	// workload opens sessions.
	setup(ctx context.Context, e *env) (firstEdit time.Duration, err error)
	// round runs round r's fixed operation list; samples are recorded
	// only when record is set (the warm-up round passes false).
	round(ctx context.Context, r int, record bool) error
	// roundSeconds is the nominal length of one round on the machine
	// the benchmark was calibrated on (see README.md); it converts
	// --seconds into a fixed round count.
	roundSeconds() float64
	// heapRounds is how many rounds the heap pass runs after setup:
	// enough to fill the workload's bounded caches.
	heapRounds() int
	// minRounds is the round count that guarantees every reported
	// percentile its samples.
	minRounds() int
	// verify runs the untimed checks after the timed phase.
	verify(ctx context.Context)
	// results returns what the timed rounds recorded.
	results() *measured
	// layers returns the per-layer metrics of the traced rounds.
	layers(ctx context.Context, s traceSummary, tracedRounds int) map[string]float64
	// close releases servers and connections.
	close()
}

var workloads = map[string]func() workload{
	"cold-suite":   func() workload { return &coldSuite{} },
	"whatif-scale": func() workload { return &whatIf{} },
	"serve-mix":    func() workload { return &serveMix{} },
}

// env is what a workload receives from run: the input seed,
// the tracer (switched on only during traced rounds) and the run's
// check collector.
type env struct {
	seed   int64
	traced bool // the run alternates traced and untraced rounds
	tr     *tracer
	chk    *checks
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 3

// roundSeed derives round r's seed from the run seed.
func roundSeed(seed int64, r int) int64 { return seed*1_000_003 + int64(r) + 7 }

func roundRand(seed int64, r int) *rand.Rand { return rand.New(rand.NewSource(roundSeed(seed, r))) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: cold-suite, whatif-scale or serve-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "nominal length of the timed phase in seconds; sets the fixed round count")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	out := flag.String("out", "", "directory for the span dump of traced runs (empty = none)")
	steady := flag.Int("steady", 0, "steadiness mode: run every workload this many times and print medians and spreads")
	only := flag.String("workloads", "", "comma-separated workloads for --steady (default all)")
	flag.Parse()

	if *steady > 0 {
		if err := steadiness(*steady, *seconds, *only); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (cold-suite, whatif-scale, serve-mix), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(mk, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload: setup, warm-up, the timed rounds, the
// untimed checks, and the metrics.
func run(mk func() workload, name string, seed int64, budget time.Duration, traced bool, outDir string) (*result, error) {
	ctx := context.Background()
	var w workload
	var setups, firstEdits []float64
	var tr *tracer
	chk := &checks{}
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		w = mk()
		tr = newTracer()
		t0 := time.Now()
		fe, err := w.setup(ctx, &env{seed: seed, traced: traced, tr: tr, chk: chk})
		if err == nil {
			err = w.round(ctx, -1, false)
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		firstEdits = append(firstEdits, fe.Seconds())
	}
	defer func() {
		if w != nil {
			w.close()
		}
	}()

	var rt runtimeDelta
	var tracedDur, plainDur []float64
	rounds, tracedRounds := 0, 0
	start := time.Now()
	n := roundCount(w, budget)
	for r := 0; r < n; r++ {
		on := traced && r%2 == 1
		tr.on.Store(on)
		if traced && !on {
			rt.begin()
		}
		t0 := tr.now()
		if err := w.round(ctx, r, true); err != nil {
			return nil, fmt.Errorf("%s round %d: %w", name, r, err)
		}
		t1 := tr.now()
		d := (t1 - t0).Seconds()
		if on {
			tracedRounds++
			tracedDur = append(tracedDur, d)
		} else {
			plainDur = append(plainDur, d)
			if traced {
				rt.end()
			}
		}
		rounds++
		if time.Since(start) > runawayLimit {
			fmt.Fprintf(os.Stderr, "%s: stopping after %d of %d rounds: the timed phase passed %v\n", name, rounds, n, runawayLimit)
			break
		}
	}
	elapsed := time.Since(start).Seconds()
	tr.on.Store(false)

	w.verify(ctx)
	m := w.results()
	attempted, failed := m.counts.totals()
	fmt.Fprintf(os.Stderr, "%s seed %d: %d rounds in %.2fs; ops (attempted/failed): %s; %d checks, %d failed\n",
		name, seed, rounds, elapsed, m.counts, chk.ran, len(chk.fails))
	if p99, err := m.solve.tail(99); err == nil {
		fmt.Fprintf(os.Stderr, "%s seed %d: solve p99 %.4g ms over %d samples (reported here only; see README)\n", name, seed, p99, m.solve.count())
	}

	res := &result{Correct: chk.ok(), Attempted: attempted, Failed: failed, Metrics: make(map[string]metric)}
	if !traced {
		e2e := map[string]float64{
			"setup_s":            median(setups),
			"solve_p50_ms":       m.solve.p50(),
			"ops_per_s":          float64(attempted) / elapsed,
			"sweep_points_per_s": m.sweep.geomean(),
			"checktc_p50_ms":     m.check.p50(),
		}
		w.close()
		w = nil
		peak, err := heapPass(ctx, mk, &env{seed: seed, tr: newTracer(), chk: chk})
		if err != nil {
			return nil, fmt.Errorf("%s heap pass: %w", name, err)
		}
		res.Correct = chk.ok()
		e2e["peak_heap_mb"] = float64(peak) / 1e6
		for _, m := range endToEndMetrics {
			v, ok := e2e[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return nil, fmt.Errorf("%s: metric %s is %v", name, m.name, v)
			}
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
		return res, nil
	}

	sum := tr.summarize()
	lv := w.layers(ctx, sum, tracedRounds)
	perRound := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(tracedRounds) }
	for spanName, metricName := range spanMetrics {
		lv[metricName] = perRound(sum.self[spanName])
	}
	lv["session.first_edit_s"] = median(firstEdits)
	lv["alloc_bytes_per_op"], lv["gc_pause_ms"] = rt.perOp(float64(attempted)/float64(rounds)), rt.pausePerRound()
	lv["trace.unattributed_ms"] = perRound(sum.unattributed)
	lv["trace.overhead_pct"] = (median(tracedDur)/median(plainDur) - 1) * 100
	share := sum.attributedShare()
	fmt.Fprintf(os.Stderr, "%s trace: self times + unattributed = %.4f of traced wall %.3fs\n", name, share, sum.wall.Seconds())
	res.Correct = res.Correct && math.Abs(share-1) <= 0.05
	for _, m := range perLayerMetrics {
		v := lv[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if outDir != "" {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runawayLimit stops a timed phase that has run far past any budget
// the benchmark is given, so a badly regressed program still ends
// within the run time limit; a run that hits it says so on stderr.
const runawayLimit = 120 * time.Second

// roundCount converts the time budget into the run's fixed number of
// rounds: every run with the same budget executes the same operation
// sequence to its end, however fast the machine is that day, and at
// least minRounds rounds (2 in a traced run, which alternates traced
// and untraced rounds).
func roundCount(w workload, budget time.Duration) int {
	n := int(math.Round(budget.Seconds() / w.roundSeconds()))
	return max(n, w.minRounds(), 2)
}

// heapGCPercent is the GOGC setting of the heap pass: a collection
// after every 10% of heap growth sees the live heap close to its peak
// wherever the peak falls, at a cost the pass can afford.
const heapGCPercent = 10

// heapPass sets the workload up once more and runs its first
// heapRounds rounds with frequent collections, returning the largest
// live heap any collection saw. It runs after the timed phase, so the
// frequent collections slow nothing that is timed, and it always does
// the same work, so the peak does not depend on how many rounds the
// timed phase fitted in.
func heapPass(ctx context.Context, mk func() workload, e *env) (uint64, error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(heapGCPercent))
	h := startHeapPeak()
	defer h.stop()
	w := mk()
	defer w.close()
	if _, err := w.setup(ctx, e); err != nil {
		return 0, err
	}
	for r := 0; r < w.heapRounds(); r++ {
		if err := w.round(ctx, r, false); err != nil {
			return 0, err
		}
	}
	return h.peakBytes(), nil
}

type metricDef struct{ name, unit string }

// endToEndMetrics are printed by every untraced run, on every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"solve_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"sweep_points_per_s", "1/s"},
	{"checktc_p50_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

// spanMetrics maps span names to the per-layer metric of their summed
// self time per traced round.
var spanMetrics = map[string]string{
	"parse":           "parse.ms",
	"core.freeze":     "core.freeze_ms",
	"core.checktc":    "core.checktc_ms",
	"core.sweep":      "core.sweep_ms",
	"engine.solve":    "engine.solve_ms",
	"session.solve":   "session.solve_ms",
	"session.checktc": "session.checktc_ms",
	"decomp.sweep":    "decomp.sweep_ms",
	"serve.request":   "serve.transport_ms",
	"serve.handler":   "serve.handler_ms",
}

// perLayerMetrics are printed by every traced run, on every workload;
// a layer the workload leaves idle reads 0.
var perLayerMetrics = []metricDef{
	{"parse.ms", "ms/round"},
	{"core.freeze_ms", "ms/round"},
	{"core.slide_ms", "ms/round"},
	{"core.slide_iterations", "count/round"},
	{"core.checktc_ms", "ms/round"},
	{"core.sweep_ms", "ms/round"},
	{"lp.pivots", "count/round"},
	{"lp.pivot_ms", "ms/round"},
	{"lp.factor_ms", "ms/round"},
	{"lp.assemble_ms", "ms/round"},
	{"lp.refactorizations", "count/round"},
	{"lp.warm_pivots", "count/round"},
	{"mcr.probes", "count/round"},
	{"mcr.probe_relaxations", "count/round"},
	{"mcr.probe_rounds", "count/round"},
	{"decomp.components_ms", "ms/round"},
	{"decomp.couple_ms", "ms/round"},
	{"decomp.components_resolved", "count/round"},
	{"decomp.resolved_ratio", "ratio"},
	{"decomp.sweep_ms", "ms/round"},
	{"verify.ms", "ms/round"},
	{"verify.calls", "count/round"},
	{"engine.solve_ms", "ms/round"},
	{"engine.rungs_per_solve", "count"},
	{"engine.fallbacks", "count/round"},
	{"session.solve_ms", "ms/round"},
	{"session.checktc_ms", "ms/round"},
	{"session.hits", "count/round"},
	{"session.misses", "count/round"},
	{"session.hit_ratio", "ratio"},
	{"session.first_edit_s", "s"},
	{"serve.handler_ms", "ms/round"},
	{"serve.transport_ms", "ms/round"},
	{"serve.open_ms", "ms"},
	{"sim.trials_per_s", "1/s"},
	{"alloc_bytes_per_op", "B/op"},
	{"gc_pause_ms", "ms/round"},
	{"trace.unattributed_ms", "ms/round"},
	{"trace.overhead_pct", "%"},
}

func init() {
	// Callers and solver pools never exceed the machine's CPUs.
	runtime.GOMAXPROCS(runtime.NumCPU())
}
