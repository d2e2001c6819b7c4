package main

import (
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/core"
)

func TestSameTc(t *testing.T) {
	if err := sameTc("equal", 110, 110+1e-9); err != nil {
		t.Fatalf("agreeing answers rejected: %v", err)
	}
	if err := sameTc("wrong", 110.5, 110); err == nil {
		t.Fatal("a wrong Tc was accepted")
	}
}

// example1Curve samples the closed form of the paper's Example 1 over
// a grid of its swept delay.
func example1Curve(t *testing.T) (values, tcs []float64, anchor int) {
	t.Helper()
	values, anchor = grid(100, 16, 0.9)
	for _, v := range values {
		tcs = append(tcs, circuits.Example1OptimalTc(v))
	}
	return values, tcs, anchor
}

func TestCheckCurveAcceptsTheClosedForm(t *testing.T) {
	values, tcs, anchor := example1Curve(t)
	if values[anchor] != 100 {
		t.Fatalf("grid anchor holds %v, want the unedited delay 100", values[anchor])
	}
	if err := checkCurve("example1", values, tcs, anchor, circuits.Example1OptimalTc(100)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCurveRejectsBadCurves(t *testing.T) {
	values, tcs, anchor := example1Curve(t)
	point := circuits.Example1OptimalTc(100)

	bump := append([]float64(nil), tcs...)
	bump[anchor+2] += 5 // a kink upward: not convex
	if err := checkCurve("bump", values, bump, -1, 0); err == nil {
		t.Error("a non-convex curve was accepted")
	}
	dip := append([]float64(nil), tcs...)
	dip[len(dip)-1] = dip[len(dip)-2] - 1
	if err := checkCurve("dip", values, dip, -1, 0); err == nil {
		t.Error("a decreasing curve was accepted")
	}
	if err := checkCurve("anchor", values, tcs, anchor, point+1); err == nil {
		t.Error("a curve that misses the point solve was accepted")
	}
}

func TestCheckScheduleRejectsWrongTc(t *testing.T) {
	c := circuits.Example1(80)
	cc, err := c.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.MinTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ov := cc.Overlay()
	if err := checkSchedule("optimal", ov, res.Schedule, core.Options{}); err != nil {
		t.Fatalf("the optimal schedule was rejected: %v", err)
	}
	// Too slow a clock passes CheckTc even when shrunk a little, so it
	// cannot be the optimum.
	if err := checkSchedule("too slow", ov, scaled(res.Schedule, 1.2), core.Options{}); err == nil {
		t.Error("a schedule 20% above the optimum was accepted as optimal")
	}
	// Too fast a clock fails CheckTc outright.
	if err := checkSchedule("too fast", ov, scaled(res.Schedule, 0.98), core.Options{}); err == nil {
		t.Error("a schedule below the optimum was accepted")
	}
	if err := checkSchedule("missing", ov, nil, core.Options{}); err == nil {
		t.Error("a missing schedule was accepted")
	}
}
