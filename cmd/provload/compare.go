package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// runSet groups the records of one runs.jsonl file by workload.
type runSet map[string][]record

func readRuns(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		set[rec.Workload] = append(set[rec.Workload], rec)
	}
	return set, sc.Err()
}

// column is one side's values of one metric on one workload.
type column []float64

func collect(recs []record, pick func(*record) metricSet, name string) column {
	var out column
	for i := range recs {
		if v, ok := pick(&recs[i])[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a share
// of the median (Python's statistics.quantiles(n=4), exclusive method).
func (c column) spread() float64 {
	if len(c) < 2 {
		return 0
	}
	s := append([]float64(nil), c...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := int(pos)
		if lo < 0 {
			return s[0]
		}
		if lo >= len(s)-1 {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return ratio(q(0.75)-q(0.25), median(c))
}

// allBetter reports whether every run of after reads better than every
// run of before.
func allBetter(before, after column, lower bool) bool {
	for _, a := range after {
		for _, b := range before {
			if (lower && a >= b) || (!lower && a <= b) {
				return false
			}
		}
	}
	return true
}

// compareFiles prints one row per (workload, end-to-end metric) with
// both medians, the ratio with its base, the bound and a verdict, then
// the per-layer deltas. It reports whether any row is WORSE or any gate
// (failures, leaks, digests of same-seed read-only runs) broke.
func compareFiles(w io.Writer, beforePath, afterPath string) (bool, error) {
	before, err := readRuns(beforePath)
	if err != nil {
		return false, err
	}
	after, err := readRuns(afterPath)
	if err != nil {
		return false, err
	}
	worse := false
	fmt.Fprintf(w, "%-13s %-22s %12s %12s %8s %6s %7s %7s  %s\n",
		"workload", "metric", "before", "after", "ratio", "bound", "spr.b", "spr.a", "verdict")
	for _, def := range workloads {
		b, a := before[def.name], after[def.name]
		if len(b) == 0 || len(a) == 0 {
			continue
		}
		for _, d := range endToEnd {
			bc := collect(b, func(r *record) metricSet { return r.EndToEnd }, d.Name)
			ac := collect(a, func(r *record) metricSet { return r.EndToEnd }, d.Name)
			if len(bc) == 0 || len(ac) == 0 {
				continue
			}
			bm, am := median(bc), median(ac)
			lower := d.Better == "lower"
			change := ratio(am-bm, bm) // share of the before median
			if !lower {
				change = -change
			}
			verdict := "OK"
			switch {
			case change > d.Bound:
				verdict = "WORSE"
				worse = true
			case max(bc.spread(), ac.spread()) > d.Bound && !allBetter(bc, ac, lower):
				verdict = "UNRESOLVED"
			}
			fmt.Fprintf(w, "%-13s %-22s %12.4f %12.4f %8.4f %6.2f %7.4f %7.4f  %s (n=%d/%d, ratio = after/before)\n",
				def.name, d.Name, bm, am, ratio(am, bm), d.Bound, bc.spread(), ac.spread(), verdict, len(bc), len(ac))
		}
		for _, side := range [][]record{b, a} {
			for i := range side {
				if !side[i].Correct {
					fmt.Fprintf(w, "%-13s GATE a run is not correct: failed=%d leak_incidents=%d\n", def.name, side[i].Failed, side[i].Leaks)
					worse = true
				}
			}
		}
		if bad := digestMismatch(append(append([]record(nil), b...), a...)); bad != "" {
			fmt.Fprintf(w, "%-13s GATE response digests differ between same-seed runs: %s\n", def.name, bad)
			worse = true
		}
	}
	fmt.Fprintf(w, "\nper-layer medians (no bound)\n%-13s %-34s %14s %14s %8s\n", "workload", "metric", "before", "after", "ratio")
	for _, def := range workloads {
		for _, d := range perLayer {
			bc := collect(before[def.name], func(r *record) metricSet { return r.PerLayer }, d.Name)
			ac := collect(after[def.name], func(r *record) metricSet { return r.PerLayer }, d.Name)
			if len(bc) == 0 || len(ac) == 0 || (median(bc) == 0 && median(ac) == 0) {
				continue
			}
			fmt.Fprintf(w, "%-13s %-34s %14.4f %14.4f %8.4f\n", def.name, d.Name, median(bc), median(ac), ratio(median(ac), median(bc)))
		}
	}
	return worse, nil
}

// digestMismatch names the first seed whose runs disagree on a digest.
func digestMismatch(recs []record) string {
	seen := map[int64]string{}
	for _, r := range recs {
		if len(r.Digests) == 0 {
			continue
		}
		d := strings.Join(r.Digests, ",")
		if prev, ok := seen[r.Seed]; ok && prev != d {
			return fmt.Sprintf("seed %d", r.Seed)
		}
		seen[r.Seed] = d
	}
	return ""
}
