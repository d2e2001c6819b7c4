package main

import (
	"mintc/internal/obs"
)

// obsLayers converts the counters and stage times the program itself
// exposes (engine.Result.Stats, a session's or smod's obs recorder)
// into per-layer metrics per round.
func obsLayers(st obs.Stats, rounds int, lv map[string]float64) {
	n := float64(rounds)
	count := func(c obs.Counter) float64 { return float64(st.Counter(c)) / n }
	ms := func(stage string) float64 { return float64(st.StageNs[stage]) / 1e6 / n }

	lv["core.slide_ms"] = ms("slide")
	lv["core.slide_iterations"] = count(obs.SlideIterations)
	lv["lp.pivots"] = count(obs.Pivots)
	lv["lp.pivot_ms"] = ms("lp.pivot")
	lv["lp.factor_ms"] = ms("lp.factor")
	lv["lp.assemble_ms"] = ms("lp.assemble")
	lv["lp.refactorizations"] = count(obs.LPRefactorizations)
	lv["lp.warm_pivots"] = count(obs.LPWarmPivots)
	lv["mcr.probes"] = count(obs.Probes)
	lv["mcr.probe_relaxations"] = count(obs.ProbeRelaxations)
	lv["mcr.probe_rounds"] = count(obs.ProbeRounds)
	lv["decomp.components_ms"] = ms("decomp.components")
	lv["decomp.couple_ms"] = ms("decomp.couple")
	lv["decomp.components_resolved"] = count(obs.ComponentsResolved)
	if total := st.Counter(obs.ComponentsTotal); total > 0 {
		lv["decomp.resolved_ratio"] = float64(st.Counter(obs.ComponentsResolved)) / float64(total)
	}
	lv["verify.ms"] = ms("verify")
	lv["engine.fallbacks"] = count(obs.Fallbacks)
	hits, misses := st.Counter(obs.SessionHits), st.Counter(obs.SessionMisses)
	lv["session.hits"] = float64(hits) / n
	lv["session.misses"] = float64(misses) / n
	if hits+misses > 0 {
		lv["session.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
}

// solveTally counts certified solves and the ladder rungs they walked
// (each rung ends in one certificate check).
type solveTally struct{ solves, rungs int }

func (t *solveTally) add(trail int) {
	t.solves++
	t.rungs += trail
}

func (t solveTally) layers(rounds int, lv map[string]float64) {
	if t.solves > 0 {
		lv["engine.rungs_per_solve"] = float64(t.rungs) / float64(t.solves)
	}
	lv["verify.calls"] = float64(t.rungs) / float64(rounds)
}
