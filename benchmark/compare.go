package main

import (
	"fmt"
	"io"
	"sort"
)

// endToEnd is the bounds table: for each end-to-end metric its unit, its
// direction, and the share of the baseline's median by which it may worsen
// before a change is a regression. BENCHMARK.json carries the same table for
// the driver (bench_test.go checks the two agree); error_rate is only here,
// because the driver takes failures from the result line instead.
var endToEnd = []struct {
	name, unit string
	higher     bool
	bound      float64
}{
	{"qps", "1/s", true, 0.25},
	{"p50_ms", "ms", false, 0.25},
	{"p99_ms", "ms", false, 0.25},
	{"alloc_kb_per_query", "KiB", false, 0.02},
	{"error_rate", "ratio", false, 0}, // any increase
	{"setup_s", "s", false, 0.25},     // and more than setupSlack absolute
}

// setupSlack is the absolute part of setup_s's bound: a quarter second of
// set-up is noise whatever share of the median it is.
const setupSlack = 0.25

// quartiles returns the quartiles of vals as Python's
// statistics.quantiles(vals, n=4) gives them (the driver's spread).
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// series collects one metric's values per workload from a report's untraced
// runs.
func series(r *report, workload, name string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if m, ok := run.EndToEnd[name]; ok && run.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareReports applies the bounds table per (metric, workload) to two sets
// of runs, a the baseline and b the candidate, and prints one row per
// workload. A metric whose own run-to-run spread (interquartile range over
// median, in either set) exceeds its bound is unresolved, not unchanged —
// unless every run of b is on one side of every run of a. It returns an error
// on a regression or a higher error_rate.
func compareReports(w io.Writer, pathA, pathB string) error {
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	regressions := 0
	for _, wl := range workloadNames {
		fmt.Fprintf(w, "%-12s", wl)
		for _, m := range endToEnd {
			va, vb := series(a, wl, m.name), series(b, wl, m.name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "  %s: no runs", m.name)
				continue
			}
			verdict, worse := judge(m.name, m.higher, m.bound, va, vb)
			if verdict == "REGRESSION" {
				regressions++
			}
			fmt.Fprintf(w, "  %s %+.1f%% %s", m.name, 100*worse, verdict)
		}
		fmt.Fprintln(w)
	}
	if regressions > 0 {
		return fmt.Errorf("%d regression(s) of %s against %s", regressions, pathB, pathA)
	}
	return nil
}

// judge returns the verdict for one metric on one workload and how much
// worse b's median is than a's, as a share of a's (negative: better).
func judge(name string, higher bool, bound float64, a, b []float64) (string, float64) {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	if name == "error_rate" {
		if bm > am {
			return "REGRESSION", bm - am
		}
		return "ok", 0
	}
	if am == 0 {
		return "unresolved", 0
	}
	worse := (bm - am) / am
	if higher {
		worse = -worse
	}
	spread := max((a3-a1)/am, (b3-b1)/bm)
	sort.Float64s(a)
	sort.Float64s(b)
	allWorse := b[0] > a[len(a)-1]
	allBetter := b[len(b)-1] < a[0]
	if higher {
		allWorse, allBetter = allBetter, allWorse
	}
	over := worse > bound && (name != "setup_s" || bm-am > setupSlack)
	switch {
	case spread > bound && !allWorse && !allBetter:
		return "unresolved", worse
	case over:
		return "REGRESSION", worse
	default:
		return "ok", worse
	}
}
