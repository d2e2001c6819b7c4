package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// minBeyond is the number of samples a tail percentile needs beyond it
// before it is reported: with fewer, the "tail" is one or two unlucky
// samples and moves from run to run.
const minBeyond = 10

// errTooFewSamples is returned by percentile when the sample count
// leaves fewer than minBeyond samples beyond the requested quantile.
var errTooFewSamples = errors.New("too few samples beyond the percentile")

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty slice. xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, refusing when fewer than minBeyond samples lie
// beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples: %w (need %d)", p, n, errTooFewSamples, minBeyond)
	}
	return sortedCopy(xs)[rank-1], nil
}

// geomean returns the geometric mean of positive values; NaN when xs
// is empty or holds a value that is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// quartileSpread returns the median of xs and the distance between its
// first and third quartiles as a share of the median, using the
// exclusive method (Python's statistics.quantiles default).
func quartileSpread(xs []float64) (med, spread float64) {
	s := sortedCopy(xs)
	med = median(s)
	if len(s) < 2 || med == 0 {
		return med, math.NaN()
	}
	q := func(i int) float64 { // i-th of the three cut points, n=4
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return med, (q(3) - q(1)) / math.Abs(med)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// byCircuit collects one latency sample set per circuit, so a workload
// that mixes circuit sizes never pools a median across size modes.
type byCircuit struct {
	order   []string
	samples map[string][]float64
}

func newByCircuit() *byCircuit { return &byCircuit{samples: make(map[string][]float64)} }

func (b *byCircuit) add(circuit string, x float64) {
	if _, ok := b.samples[circuit]; !ok {
		b.order = append(b.order, circuit)
	}
	b.samples[circuit] = append(b.samples[circuit], x)
}

func (b *byCircuit) count() int {
	n := 0
	for _, xs := range b.samples {
		n += len(xs)
	}
	return n
}

// medians returns each circuit's median in first-seen order.
func (b *byCircuit) medians() []float64 {
	out := make([]float64, 0, len(b.order))
	for _, c := range b.order {
		out = append(out, median(b.samples[c]))
	}
	return out
}

// p50 is the geometric mean over circuits of each circuit's median.
func (b *byCircuit) p50() float64 { return geomean(b.medians()) }

// tail is the geometric mean of the per-circuit medians scaled by the
// p-th percentile of every sample's ratio to its own circuit's median.
// Normalising by the circuit's own median first keeps the pooled tail
// from jumping between the size modes of a mixed workload; with one
// circuit it is exactly that circuit's p-th percentile.
func (b *byCircuit) tail(p float64) (float64, error) {
	var ratios []float64
	for _, c := range b.order {
		m := median(b.samples[c])
		for _, x := range b.samples[c] {
			ratios = append(ratios, x/m)
		}
	}
	r, err := percentile(ratios, p)
	if err != nil {
		return 0, err
	}
	return b.p50() * r, nil
}

// rate is the geometric mean over circuits of work done per second,
// for per-circuit totals of work and seconds.
type rate struct {
	order []string
	work  map[string]float64
	secs  map[string]float64
}

func newRate() *rate {
	return &rate{work: make(map[string]float64), secs: make(map[string]float64)}
}

func (r *rate) add(circuit string, work, secs float64) {
	if _, ok := r.work[circuit]; !ok {
		r.order = append(r.order, circuit)
	}
	r.work[circuit] += work
	r.secs[circuit] += secs
}

func (r *rate) geomean() float64 {
	xs := make([]float64, 0, len(r.order))
	for _, c := range r.order {
		xs = append(xs, r.work[c]/r.secs[c])
	}
	return geomean(xs)
}

// measured is what a workload's timed rounds record: operation counts
// and, per circuit, solve and CheckTc latencies and sweep throughput.
type measured struct {
	counts       *opCounts
	solve, check *byCircuit
	sweep        *rate
}

func newMeasured() measured {
	return measured{counts: newOpCounts(), solve: newByCircuit(), check: newByCircuit(), sweep: newRate()}
}

func (m *measured) results() *measured { return m }

// opCounts counts attempted and failed operations per kind.
type opCounts struct {
	kinds     []string
	attempted map[string]int
	failed    map[string]int
}

func newOpCounts() *opCounts {
	return &opCounts{attempted: make(map[string]int), failed: make(map[string]int)}
}

func (o *opCounts) note(kind string, err error) {
	if _, ok := o.attempted[kind]; !ok {
		o.kinds = append(o.kinds, kind)
	}
	o.attempted[kind]++
	if err != nil {
		o.failed[kind]++
	}
}

func (o *opCounts) totals() (attempted, failed int) {
	for _, k := range o.kinds {
		attempted += o.attempted[k]
		failed += o.failed[k]
	}
	return attempted, failed
}

// String renders "kind attempted/failed" pairs in first-seen order.
func (o *opCounts) String() string {
	parts := make([]string, 0, len(o.kinds))
	for _, k := range o.kinds {
		parts = append(parts, fmt.Sprintf("%s %d/%d", k, o.attempted[k], o.failed[k]))
	}
	return strings.Join(parts, ", ")
}
