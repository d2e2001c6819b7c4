package main

import (
	"testing"
	"time"
)

func TestUnionWithin(t *testing.T) {
	ivs := [][2]time.Duration{{10, 30}, {20, 40}, {50, 60}, {90, 200}}
	if got := unionWithin(ivs, 0, 100); got != 30+10+10 {
		t.Fatalf("union = %v, want 50", got)
	}
	if got := unionWithin(nil, 0, 100); got != 0 {
		t.Fatalf("union of nothing = %v", got)
	}
}

func TestSummarizeSelfTimesAddUp(t *testing.T) {
	tr := newTracer()
	l := tr.lane(0)
	l.spans = []span{
		{name: "outer", parent: -1, start: 0, end: 100},
		{name: "inner", parent: 0, start: 10, end: 30},
		{name: "inner", parent: 0, start: 40, end: 50},
		{name: "outer", parent: -1, start: 100, end: 110},
	}
	l.windows = [][2]time.Duration{{0, 130}}
	// The server side of the last span outlives it; only the part inside
	// the client span counts.
	tr.remote = []remoteSpan{{lane: 0, parent: 3, name: "handler", start: 102, end: 115}}
	s := tr.summarize()
	if s.self["outer"] != 70+2 || s.self["inner"] != 30 || s.self["handler"] != 8 {
		t.Fatalf("self times = %v", s.self)
	}
	if s.unattributed != 20 || s.wall != 130 {
		t.Fatalf("unattributed %v of wall %v, want 20 of 130", s.unattributed, s.wall)
	}
	if share := s.attributedShare(); share != 1 {
		t.Fatalf("attributed share = %v, want 1", share)
	}
}

func TestSummarizeShowsDoubleCounting(t *testing.T) {
	tr := newTracer()
	l := tr.lane(0)
	// Two sibling spans that overlap claim the same 10 units twice.
	l.spans = []span{
		{name: "outer", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 30},
		{name: "b", parent: 0, start: 20, end: 40},
	}
	l.windows = [][2]time.Duration{{0, 100}}
	if share := tr.summarize().attributedShare(); share <= 1.05 {
		t.Fatalf("overlapping siblings gave share %v, want above 1.05", share)
	}
}
