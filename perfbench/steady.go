package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// steadiness runs every workload n times, each time in a fresh process
// with another seed, and prints per end-to-end metric the median and
// the interquartile spread as a share of the median — the figures the
// bounds in BENCHMARK.json are set from.
func steadiness(n, seconds int, only string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{"cold-suite", "whatif-scale", "serve-mix"}
	if only != "" {
		names = strings.Split(only, ",")
	}
	for _, name := range names {
		if _, ok := workloads[name]; !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		values := make(map[string][]float64)
		var failShares []float64
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			res, err := lastResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: incorrect run", name, seed)
			}
			for m, v := range res.Metrics {
				values[m] = append(values[m], v.Value)
			}
			failShares = append(failShares, float64(res.Failed)/float64(res.Attempted))
		}
		fmt.Printf("%s (%d runs)\n", name, n)
		for _, m := range endToEndMetrics {
			med, spread := quartileSpread(values[m.name])
			fmt.Printf("  %-20s median %12.5g %-4s  IQR/median %6.2f%%  runs %.4g\n", m.name, med, m.unit, 100*spread, values[m.name])
		}
		fmt.Printf("  failed share: %v\n", failShares)
	}
	return nil
}

// lastResult parses the JSON object on the last line of a run's output.
func lastResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("parse result line %q: %w", last, err)
	}
	return &res, nil
}
