package main

import (
	"fmt"
	"math"
	"os"

	"mintc/internal/core"
)

// The checks in this file are the benchmark's own: they compare the
// program's answers with independent computations (closed forms, the
// min-cycle-ratio engine, the in-process library) and with properties
// every correct answer has, never with a stored copy of earlier output.

// tcTol is the agreement tolerance between two cycle times computed by
// different routes: core.Eps relative to the value.
func tcTol(x float64) float64 { return core.Eps * math.Max(1, math.Abs(x)) }

// sameTc reports an error when two cycle times disagree beyond tcTol.
func sameTc(what string, got, want float64) error {
	if math.IsNaN(got) || math.IsNaN(want) || math.Abs(got-want) > tcTol(want) {
		return fmt.Errorf("%s: Tc %.12g, independent answer %.12g", what, got, want)
	}
	return nil
}

// checkCurve checks a sweep of the optimal cycle time over a uniform
// grid of one path's delay: the optimal value of a minimising LP is a
// nondecreasing convex function of a right-hand side that only
// tightens constraints, and the point at the unedited delay (index
// anchor) must equal the point solve there.
func checkCurve(what string, values, tcs []float64, anchor int, pointTc float64) error {
	if len(values) != len(tcs) || len(values) < 3 {
		return fmt.Errorf("%s: %d values, %d answers", what, len(values), len(tcs))
	}
	for i := 1; i < len(tcs); i++ {
		if tcs[i] < tcs[i-1]-tcTol(tcs[i]) {
			return fmt.Errorf("%s: Tc decreases from %.12g to %.12g as the delay grows from %g to %g", what, tcs[i-1], tcs[i], values[i-1], values[i])
		}
	}
	for i := 1; i+1 < len(tcs); i++ {
		if d2 := tcs[i-1] - 2*tcs[i] + tcs[i+1]; d2 < -4*tcTol(tcs[i]) {
			return fmt.Errorf("%s: curve not convex at delay %g (second difference %.3g)", what, values[i], d2)
		}
	}
	if anchor >= 0 {
		if err := sameTc(what+" at the unedited delay", tcs[anchor], pointTc); err != nil {
			return err
		}
	}
	return nil
}

// belowScale is the factor a returned schedule is shrunk by to show
// that no clock faster than the reported optimum passes CheckTc.
const belowScale = 0.995

// scaled returns the schedule with every time multiplied by f.
func scaled(s *core.Schedule, f float64) *core.Schedule {
	out := &core.Schedule{Tc: s.Tc * f, S: make([]float64, len(s.S)), T: make([]float64, len(s.T))}
	for i := range s.S {
		out.S[i] = s.S[i] * f
		out.T[i] = s.T[i] * f
	}
	return out
}

// checkSchedule checks that the schedule returned with an optimal Tc
// passes CheckTc on the overlay it was solved for, and that the same
// schedule scaled below its Tc fails it.
func checkSchedule(what string, ov core.DelayOverlay, sched *core.Schedule, opts core.Options) error {
	if sched == nil {
		return fmt.Errorf("%s: no schedule returned", what)
	}
	an, err := core.CheckTcOverlay(ov, sched, opts)
	if err != nil {
		return fmt.Errorf("%s: CheckTc: %w", what, err)
	}
	if !an.Feasible {
		return fmt.Errorf("%s: returned schedule (Tc %.12g) fails CheckTc: %v", what, sched.Tc, an.Violations)
	}
	an, err = core.CheckTcOverlay(ov, scaled(sched, belowScale), opts)
	if err != nil {
		return fmt.Errorf("%s: CheckTc of the scaled schedule: %w", what, err)
	}
	if an.Feasible {
		return fmt.Errorf("%s: schedule scaled to Tc %.12g, below the reported optimum %.12g, still passes CheckTc", what, sched.Tc*belowScale, sched.Tc)
	}
	return nil
}

// grid builds n uniformly spaced delay values around d, with d itself
// at the returned anchor index. f in (0,1) sets how far below d the
// grid starts; the step is f·d/anchor, so every value stays positive.
func grid(d float64, n int, f float64) (values []float64, anchor int) {
	anchor = n / 3
	step := f * d / float64(anchor)
	if d <= 0 {
		anchor, step = 0, f
	}
	values = make([]float64, n)
	for i := range values {
		values[i] = d + float64(i-anchor)*step
	}
	values[anchor] = d
	return values, anchor
}

// checks collects the failures of one run; any failure makes the run
// incorrect.
type checks struct {
	ran   int
	fails []string
}

func (c *checks) add(err error) {
	c.ran++
	if err != nil {
		c.fails = append(c.fails, err.Error())
		fmt.Fprintln(os.Stderr, "check failed:", err)
	}
}

func (c *checks) ok() bool { return len(c.fails) == 0 }
