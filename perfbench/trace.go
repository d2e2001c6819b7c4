package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A tracer records spans around the benchmark's calls into the
// program's layers: name, start, end and parent. Spans live in memory,
// one list per lane (a lane is one caller: the workload's own loop, or
// one client connection), and are written out when the run ends.
//
// A nil *lane, or a lane whose tracer is switched off, records nothing;
// begin and end then cost one branch, so the untraced rounds of a
// traced run execute exactly the calls an untraced run does.
type tracer struct {
	epoch time.Time
	on    atomic.Bool // switched only between rounds
	lanes []*lane

	// remote holds spans recorded on the server side of a loopback
	// request (the serve handler), keyed to the client span that caused
	// them; they are attached to that span's lane at analysis time.
	mu     sync.Mutex
	remote []remoteSpan
}

type span struct {
	name       string
	parent     int32 // index into the lane's spans, -1 at top level
	start, end time.Duration
}

type remoteSpan struct {
	lane, parent int
	name         string
	start, end   time.Duration
}

// lane is one caller's span stack. Only its own goroutine touches it.
type lane struct {
	tr      *tracer
	id      int
	spans   []span
	stack   []int32
	windows [][2]time.Duration // traced round windows, for wall time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// lane returns the tracer's i-th lane, creating lanes up to i.
func (t *tracer) lane(i int) *lane {
	for len(t.lanes) <= i {
		t.lanes = append(t.lanes, &lane{tr: t, id: len(t.lanes)})
	}
	return t.lanes[i]
}

// roundLane returns lane i and a function closing the lane's traced
// window for this round; when the tracer is off it returns a nil lane
// and a no-op.
func (t *tracer) roundLane(i int) (*lane, func()) {
	if !t.on.Load() {
		return nil, func() {}
	}
	l := t.lane(i)
	t0 := t.now()
	return l, func() { l.windows = append(l.windows, [2]time.Duration{t0, t.now()}) }
}

func (l *lane) active() bool { return l != nil && l.tr.on.Load() }

// begin opens a span and returns its index (-1 when not recording).
func (l *lane) begin(name string) int32 {
	if !l.active() {
		return -1
	}
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	i := int32(len(l.spans))
	l.spans = append(l.spans, span{name: name, parent: parent, start: l.tr.now()})
	l.stack = append(l.stack, i)
	return i
}

// end closes the span begin returned.
func (l *lane) end(i int32) {
	if i < 0 {
		return
	}
	l.spans[i].end = l.tr.now()
	l.stack = l.stack[:len(l.stack)-1]
}

// spanHeader carries "lane.span" from a client request to the server
// handler wrapper, which records the handler's span under it.
const spanHeader = "X-Perfbench-Span"

// header returns the value identifying open span i to the server.
func (l *lane) header(i int32) string {
	return strconv.Itoa(l.id) + "." + strconv.Itoa(int(i))
}

// wrapHandler times every request the handler serves and records it
// as a child of the client span named in the request header.
func (t *tracer) wrapHandler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(spanHeader)
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		laneID, parent, ok := strings.Cut(id, ".")
		if !ok || !t.on.Load() {
			return
		}
		li, err1 := strconv.Atoi(laneID)
		pi, err2 := strconv.Atoi(parent)
		if err1 != nil || err2 != nil {
			return
		}
		t.mu.Lock()
		t.remote = append(t.remote, remoteSpan{lane: li, parent: pi, name: name, start: start, end: end})
		t.mu.Unlock()
	})
}

// traceSummary is the analysis of a finished trace.
type traceSummary struct {
	wall         time.Duration            // summed over lanes' traced windows
	self         map[string]time.Duration // self time per span name
	unattributed time.Duration            // window time no top-level span covers
}

// attributedShare returns (Σ self + unattributed) / wall: 1 when spans
// nest properly, above 1 when they double-count.
func (s traceSummary) attributedShare() float64 {
	var sum time.Duration
	for _, d := range s.self {
		sum += d
	}
	return float64(sum+s.unattributed) / float64(s.wall)
}

// summarize attaches remote spans to their parents and computes every
// span's self time: its duration minus the union of its children's
// intervals clipped to it.
func (t *tracer) summarize() traceSummary {
	t.mu.Lock()
	for _, r := range t.remote {
		if r.lane >= len(t.lanes) || r.parent >= len(t.lanes[r.lane].spans) {
			continue
		}
		// The handler may return a moment after the client has read the
		// response; only the part inside the client span is its child.
		l := t.lanes[r.lane]
		p := l.spans[r.parent]
		l.spans = append(l.spans, span{name: r.name, parent: int32(r.parent), start: max(r.start, p.start), end: min(r.end, p.end)})
	}
	t.remote = nil
	t.mu.Unlock()

	s := traceSummary{self: make(map[string]time.Duration)}
	for _, l := range t.lanes {
		children := make(map[int32][][2]time.Duration)
		var top [][2]time.Duration
		for _, sp := range l.spans {
			iv := [2]time.Duration{sp.start, sp.end}
			if sp.parent < 0 {
				top = append(top, iv)
			} else {
				children[sp.parent] = append(children[sp.parent], iv)
			}
		}
		for i, sp := range l.spans {
			covered := unionWithin(children[int32(i)], sp.start, sp.end)
			s.self[sp.name] += sp.end - sp.start - covered
		}
		for _, w := range l.windows {
			s.wall += w[1] - w[0]
			s.unattributed += w[1] - w[0] - unionWithin(top, w[0], w[1])
		}
	}
	return s
}

// unionWithin returns the length of the union of intervals clipped to
// [lo, hi].
func unionWithin(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	c := make([][2]time.Duration, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			c = append(c, [2]time.Duration{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB time.Duration
	for i, iv := range c {
		if i == 0 || iv[0] > curB {
			total += curB - curA
			curA, curB = iv[0], iv[1]
			continue
		}
		curB = max(curB, iv[1])
	}
	return total + curB - curA
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range t.lanes {
		for i, sp := range l.spans {
			rec := map[string]any{
				"lane": l.id, "id": i, "parent": sp.parent, "name": sp.name,
				"start_ns": sp.start.Nanoseconds(), "end_ns": sp.end.Nanoseconds(),
			}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
