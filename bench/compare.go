package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
)

// Verdicts of -compare, per (metric, workload).
const (
	improved   = "improved"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	regressed  = "regressed"
)

// verdict judges candidate runs b against baseline runs a of one metric on
// one workload: a move of the median beyond the metric's bound is a
// regression or an improvement. When either side's run-to-run spread
// (interquartile range over median) is wider than the bound the medians
// cannot tell, and the verdict is unresolved — unless the two sides do not
// overlap at all, which no spread explains away.
func verdict(spec metricSpec, a, b []float64) string {
	sa, sb := sorted(a), sorted(b)
	apart := sb[0] > sa[len(sa)-1] || sb[len(sb)-1] < sa[0]
	if (spread(a) > spec.bound || spread(b) > spec.bound) && !apart {
		return unresolved
	}
	switch c := change(spec, a, b); {
	case c < -spec.bound:
		return regressed
	case c > spec.bound:
		return improved
	}
	return unchanged
}

// change is the candidate median's move relative to the baseline median,
// positive when better.
func change(spec metricSpec, a, b []float64) float64 {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0
	}
	c := (mb - ma) / ma
	if spec.better == "lower" {
		c = -c
	}
	return c
}

// loadReports reads an -out file: one report per line, grouped by workload.
// Traced runs carry no end-to-end metrics and are skipped.
func loadReports(path string) (map[string][]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		rep := &report{}
		if err := json.Unmarshal(sc.Bytes(), rep); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !rep.Trace {
			out[rep.Workload] = append(out[rep.Workload], rep)
		}
	}
	return out, sc.Err()
}

// sameConditions refuses run sets that cannot be compared: different boxes,
// different instance lists, or different run lengths.
func sameConditions(workload string, a, b []*report) error {
	ref := a[0]
	for _, r := range append(append([]*report(nil), a...), b...) {
		switch {
		case r.Box != ref.Box:
			return fmt.Errorf("%s: runs come from different boxes (%+v vs %+v)", workload, ref.Box, r.Box)
		case !reflect.DeepEqual(r.Instances, ref.Instances):
			return fmt.Errorf("%s: runs use different instance lists (%v vs %v)", workload, ref.Instances, r.Instances)
		//corlint:allow float-eq — Seconds is the --seconds flag echoed back, not a computed value; any difference is a different run length
		case r.Seconds != ref.Seconds:
			return fmt.Errorf("%s: runs measure for different lengths (%g s vs %g s)", workload, ref.Seconds, r.Seconds)
		}
	}
	return nil
}

func values(reps []*report, metric string) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

// compareFiles prints one verdict per (workload, end-to-end metric) for the
// run sets in files a (baseline) and b (candidate), and reports whether any
// metric regressed. Failed output checks on the candidate side regress the
// workload whatever its timings say.
func compareFiles(w io.Writer, pathA, pathB string) (anyRegressed bool, err error) {
	setA, err := loadReports(pathA)
	if err != nil {
		return false, err
	}
	setB, err := loadReports(pathB)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(setA))
	for name := range setA {
		if len(setB[name]) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("%s and %s share no workload", pathA, pathB)
	}
	fmt.Fprintf(w, "%-12s %-22s %13s %13s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median_a", "median_b", "change", "spread_a", "spread_b", "bound", "verdict")
	for _, name := range names {
		a, b := setA[name], setB[name]
		if err := sameConditions(name, a, b); err != nil {
			return false, err
		}
		failedA, failedB := 0, 0
		for _, r := range a {
			failedA += r.Failed
		}
		for _, r := range b {
			failedB += r.Failed
		}
		if failedB > failedA {
			anyRegressed = true
			fmt.Fprintf(w, "%-12s candidate failed %d output checks (baseline %d): %s\n", name, failedB, failedA, regressed)
		}
		for _, spec := range endToEnd {
			va, vb := values(a, spec.name), values(b, spec.name)
			v := verdict(spec, va, vb)
			anyRegressed = anyRegressed || v == regressed
			fmt.Fprintf(w, "%-12s %-22s %13.6g %13.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				name, spec.name, median(va), median(vb), 100*change(spec, va, vb),
				100*spread(va), 100*spread(vb), 100*spec.bound, v)
		}
	}
	return anyRegressed, nil
}
