package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// liveHeapMetric is the heap still reachable at the end of the last
// garbage collection.
const liveHeapMetric = "/gc/heap/live:bytes"

// heapPeak tracks the largest live heap any garbage collection of the
// run saw. A finalizer on a sentinel object runs after every GC cycle,
// reads the live heap and re-arms itself, so no cycle is missed and no
// sampling goroutine competes with the workload for CPU.
type heapPeak struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

// sentinel holds a pointer so it is never tiny-allocated (finalizers on
// tiny objects may not run).
type sentinel struct {
	_ *int
	_ [2]int64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{}
	h.arm()
	return h
}

func (h *heapPeak) arm() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		h.sample()
		if !h.stopped.Load() {
			h.arm()
		}
	})
}

func (h *heapPeak) sample() {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

func (h *heapPeak) peakBytes() uint64 {
	h.sample()
	return h.peak.Load()
}

// stop ends the re-arming; the last sentinel's finalizer may still run
// once and is harmless.
func (h *heapPeak) stop() { h.stopped.Store(true) }

// runtimeDelta accumulates allocation and GC pause totals over the
// untraced rounds of a traced run, so the tracer's own allocations do
// not count.
type runtimeDelta struct {
	rounds  int
	alloc   uint64
	pause   time.Duration
	m0      runtime.MemStats
	started bool
}

func (r *runtimeDelta) begin() {
	runtime.ReadMemStats(&r.m0)
	r.started = true
}

func (r *runtimeDelta) end() {
	if !r.started {
		return
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	r.alloc += m1.TotalAlloc - r.m0.TotalAlloc
	r.pause += time.Duration(m1.PauseTotalNs - r.m0.PauseTotalNs)
	r.rounds++
	r.started = false
}

// perOp returns allocated bytes per operation, given operations per
// round.
func (r *runtimeDelta) perOp(opsPerRound float64) float64 {
	if r.rounds == 0 || opsPerRound == 0 {
		return 0
	}
	return float64(r.alloc) / float64(r.rounds) / opsPerRound
}

// pausePerRound returns GC stop-the-world pause time per round in ms.
func (r *runtimeDelta) pausePerRound() float64 {
	if r.rounds == 0 {
		return 0
	}
	return r.pause.Seconds() * 1e3 / float64(r.rounds)
}
