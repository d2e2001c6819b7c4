package main

import (
	"errors"
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 1000 samples: rank 990 leaves 10 beyond.
	got, err := percentile(xs, 99)
	if err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	// One sample fewer leaves only 9 beyond: refuse.
	if _, err := percentile(xs[:999], 99); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p99 of 999 samples: err = %v, want errTooFewSamples", err)
	}
	if _, err := percentile(nil, 50); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p50 of nothing: err = %v, want errTooFewSamples", err)
	}
}

func TestGeomeanOfPerCircuitMedians(t *testing.T) {
	b := newByCircuit()
	for _, x := range []float64{1, 2, 100} { // median 2
		b.add("small", x)
	}
	for _, x := range []float64{800, 50, 8} { // median 50
		b.add("large", x)
	}
	if got := b.p50(); !near(got, 10) { // sqrt(2*50)
		t.Fatalf("p50 = %v, want 10", got)
	}
	if !math.IsNaN(geomean([]float64{1, 0})) {
		t.Error("geomean with a zero should be NaN")
	}
}

func TestTailNormalisesPerCircuit(t *testing.T) {
	// One circuit: the tail is that circuit's own percentile.
	b := newByCircuit()
	for i := 1; i <= 2000; i++ {
		b.add("only", float64(i))
	}
	got, err := b.tail(99)
	if err != nil || !near(got, 1980) {
		t.Fatalf("tail of 1..2000 = %v, %v; want 1980", got, err)
	}
	// Two circuits of very different sizes but the same shape: the
	// pooled ratio tail does not jump to the large circuit's values.
	b = newByCircuit()
	for i := 1; i <= 1000; i++ {
		b.add("small", float64(i))
		b.add("large", 1000*float64(i))
	}
	got, err = b.tail(99)
	want := b.p50() * (990.0 / 500.5)
	if err != nil || !near(got, want) {
		t.Fatalf("tail = %v, %v; want %v", got, err, want)
	}
}

func TestRateGeomean(t *testing.T) {
	r := newRate()
	r.add("a", 64, 1)
	r.add("a", 64, 1) // 64/s
	r.add("b", 4, 1)  // 4/s
	if got := r.geomean(); !near(got, 16) {
		t.Fatalf("rate geomean = %v, want 16", got)
	}
}

func TestOpCounts(t *testing.T) {
	o := newOpCounts()
	o.note("solve", nil)
	o.note("solve", errors.New("boom"))
	o.note("sweep", nil)
	a, f := o.totals()
	if a != 3 || f != 1 {
		t.Fatalf("totals = %d/%d, want 3/1", a, f)
	}
	if got, want := o.String(), "solve 2/1, sweep 1/0"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	med, spread := quartileSpread(xs)
	if med != 5.5 || !near(spread, (8.25-2.75)/5.5) {
		t.Fatalf("quartileSpread = %v, %v", med, spread)
	}
}
