package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// series is every value one metric took on one workload in one result file.
type series map[string]map[string][]float64 // workload -> metric -> values

func collect(f resultFile, traced bool) (series, map[string][2]int64) {
	s := make(series)
	ops := make(map[string][2]int64) // workload -> attempted, failed
	for _, r := range f.Runs {
		if r.Traced != traced {
			continue
		}
		if s[r.Workload] == nil {
			s[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], m.Value)
		}
		o := ops[r.Workload]
		ops[r.Workload] = [2]int64{o[0] + r.Attempted, o[1] + r.Failed}
	}
	return s, ops
}

// worseBy is how much worse b is than a, as a share of a, given which
// direction is better (negative = b is better).
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	delta := (b - a) / a
	if d.Better == "higher" {
		delta = -delta
	}
	if a < 0 {
		delta = -delta
	}
	return delta
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if worseBy(d, x, y) >= 0 {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

// verdict judges one metric on one workload: b against baseline a.
func verdict(d metricDef, a, b []float64) string {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	delta := worseBy(d, ma, mb)
	if spread(a) > d.Bound || spread(b) > d.Bound {
		// The run-to-run spread hides a move of the size of the bound:
		// only a clean sweep counts.
		if allBetter(d, a, b) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case delta > d.Bound:
		return "worse"
	case delta < -d.Bound:
		return "better"
	}
	return "within"
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareMain is `bench compare A.json B.json`: one row per end-to-end
// metric and workload with each side's median and quartiles and a verdict
// against the metric's bound, then the per-layer medians side by side.
// It returns 1 when any verdict is "worse" or B fails more operations.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	fa, err := readResultFile(args[0])
	if err == nil {
		var fb resultFile
		if fb, err = readResultFile(args[1]); err == nil {
			return compareFiles(fa, fb)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

func compareFiles(fa, fb resultFile) int {
	fmt.Printf("baseline: commit %s, %s, GOMAXPROCS %d, seed %d, %gs\n", fa.Env.Commit, fa.Env.GoVersion, fa.Env.GOMAXPROCS, fa.Env.Seed, fa.Env.Seconds)
	fmt.Printf("change:   commit %s, %s, GOMAXPROCS %d, seed %d, %gs\n\n", fb.Env.Commit, fb.Env.GoVersion, fb.Env.GOMAXPROCS, fb.Env.Seed, fb.Env.Seconds)
	sa, opsA := collect(fa, false)
	sb, opsB := collect(fb, false)
	bad := 0
	fmt.Printf("%-14s %-30s %12s %12s %12s   %12s %12s %12s  %8s %6s  %s\n",
		"workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "worse by", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sa[w.name][d.Name], sb[w.name][d.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			v := verdict(d, a, b)
			if v == "worse" {
				bad++
			}
			fmt.Printf("%-14s %-30s %12.4f %12.4f %12.4f   %12.4f %12.4f %12.4f  %+7.1f%% %5.1f%%  %s\n",
				w.name, d.Name, a1, a2, a3, b1, b2, b3, worseBy(d, a2, b2)*100, d.Bound*100, v)
		}
		oa, ob := opsA[w.name], opsB[w.name]
		if oa[0] > 0 && ob[0] > 0 {
			ra, rb := float64(oa[1])/float64(oa[0]), float64(ob[1])/float64(ob[0])
			note := "ok"
			if rb > ra {
				note = "MORE FAILURES"
				bad++
			}
			fmt.Printf("%-14s %-30s failed/attempted A %d/%d, B %d/%d  %s\n", w.name, "ops", oa[1], oa[0], ob[1], ob[0], note)
		}
	}

	la, _ := collect(fa, true)
	lb, _ := collect(fb, true)
	if len(la) > 0 && len(lb) > 0 {
		fmt.Printf("\nper-layer medians (no bounds; they say where an end-to-end move came from)\n")
		fmt.Printf("%-14s %-36s %14s %14s %9s\n", "workload", "metric", "A", "B", "change")
		for _, w := range workloads {
			for _, d := range perLayer {
				a, b := la[w.name][d.Name], lb[w.name][d.Name]
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				_, ma, _ := quartiles(a)
				_, mb, _ := quartiles(b)
				if ma == 0 && mb == 0 {
					continue
				}
				fmt.Printf("%-14s %-36s %14.4f %14.4f %+8.1f%%\n", w.name, d.Name, ma, mb, ratio(mb-ma, ma)*100)
			}
		}
	}
	if bad > 0 {
		fmt.Printf("\n%d regression(s)\n", bad)
		return 1
	}
	fmt.Println("\nno regression")
	return 0
}

// printSpreads is the -repeat report: each end-to-end metric's run-to-run
// spread (interquartile distance over the median, as the driver computes
// it) against its bound.
func printSpreads(f resultFile) {
	s, _ := collect(f, false)
	fmt.Printf("\nspread of %d repeats against each metric's bound\n", len(f.Runs))
	fmt.Printf("%-14s %-30s %4s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "n", "q1", "median", "q3", "spread", "bound", "")
	names := make([]string, 0, len(s))
	for w := range s {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		for _, d := range endToEnd {
			v := s[w][d.Name]
			if len(v) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			sp := spread(v)
			note := "steady"
			switch {
			case sp > d.Bound:
				note = "WIDER THAN BOUND"
			case sp > d.Bound/3:
				note = "over a third of the bound"
			}
			fmt.Printf("%-14s %-30s %4d %12.4f %12.4f %12.4f %7.2f%% %5.1f%%  %s\n", w, d.Name, len(v), q1, q2, q3, sp*100, d.Bound*100, note)
		}
	}
}
