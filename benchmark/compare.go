package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// loadSet reads one result file, or every result-*.json of a directory.
func loadSet(path string) ([]*report, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "result-*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	var set []*report
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		rep := &report{}
		if err := json.Unmarshal(data, rep); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		set = append(set, rep)
	}
	return set, nil
}

// setValue reduces one metric of one workload over a set of runs: the
// median of the runs' values, and the set's spread as a share of it — the
// runs' interquartile range when there are at least four, otherwise the
// largest within-run spread (summary.SpreadPct).
func setValue(set []*report, workload, metric string) (value, spread float64, ok bool) {
	var vals []float64
	within := 0.0
	for _, rep := range set {
		w := rep.Workloads[workload]
		if w == nil {
			continue
		}
		m, found := w.Metrics[metric]
		if !found {
			continue
		}
		vals = append(vals, m.Value)
		if m.SpreadPct/100 > within {
			within = m.SpreadPct / 100
		}
	}
	if len(vals) == 0 {
		return 0, 0, false
	}
	sort.Float64s(vals)
	value = quantile(vals, 0.5)
	spread = within
	if len(vals) >= 4 && value != 0 {
		spread = (quantile(vals, 0.75) - quantile(vals, 0.25)) / value
	}
	return value, spread, true
}

// compareSets prints, for every bounded metric of every workload, how far
// set b is worse than set a against that metric's bound. A row whose sets
// spread wider than the bound is unresolved, not unchanged. It returns an
// error (non-zero exit) on a breach.
func compareSets(pathA, pathB string) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a: %s (%d runs)   b: %s (%d runs)\n", pathA, len(a), pathB, len(b))
	fmt.Printf("%-22s %-26s %14s %14s %9s %9s %9s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "spread", "verdict")
	var bounded []metricDef
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.Bound > 0 || d.AbsBound > 0 {
			bounded = append(bounded, d)
		}
	}
	breaches, unresolved := 0, 0
	for _, w := range workloads {
		for _, d := range bounded {
			va, sa, okA := setValue(a, w.Name, d.Name)
			vb, sb, okB := setValue(b, w.Name, d.Name)
			if !okA || !okB {
				continue
			}
			sign := 1.0
			if d.Better == "higher" {
				sign = -1
			}
			spread := sa
			if sb > spread {
				spread = sb
			}
			var worse, bound float64
			var unit string
			if d.AbsBound > 0 {
				// Exact quality metrics: percentage points, no spread.
				worse, bound, unit, spread = sign*(vb-va), d.AbsBound, "pt", 0
			} else {
				worse, bound, unit = 100*sign*(vb-va)/va, 100*d.Bound, "%"
				spread *= 100
			}
			verdict := "ok"
			switch {
			case spread > bound:
				verdict = "unresolved"
				unresolved++
			case worse > bound:
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("%-22s %-26s %14.6g %14.6g %+8.2f%s %8.2f%s %8.2f%s  %s\n",
				w.Name, d.Name, va, vb, worse, unit, bound, unit, spread, unit, verdict)
		}
	}
	fmt.Printf("%d breaches, %d unresolved\n", breaches, unresolved)
	if breaches > 0 {
		return fmt.Errorf("%d metrics worse than their bound", breaches)
	}
	return nil
}
