package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// readRecords reads a results file's untraced records, grouped by workload
// in file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// values extracts one metric from records, in order.
func values(recs []record, name string) []float64 {
	var xs []float64
	for _, r := range recs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(med))
}

// better reports whether a beats b on metric m (strictly).
func better(m metricSpec, a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// judge compares a change's runs of one metric with its parent's.
//
//   - "improved" is the claim rule for a performance change: at least ten
//     pairs (runs are paired in file order, which alternates the sides when
//     the runs did), the change wins at least nine tenths of them, ties
//     counting for neither, and the medians differ by more than the
//     parent's interquartile range.
//   - Otherwise, when either side's spread exceeds the metric's bound the
//     comparison is "unresolved", unless every run of the change beats
//     every run of the parent ("better, every run").
//   - Otherwise the change "regressed" when its median is worse than the
//     parent's by more than the bound, and is "ok" if not.
func judge(m metricSpec, base, cand []float64) string {
	if len(base) == 0 || len(cand) == 0 {
		return "missing"
	}
	bq1, bm, bq3 := quartiles(base)
	_, cm, _ := quartiles(cand)
	pairs := min(len(base), len(cand))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(m, cand[i], base[i]) {
			wins++
		}
	}
	if pairs >= 10 && 10*wins >= 9*pairs && better(m, cm, bm) && math.Abs(cm-bm) > bq3-bq1 {
		return fmt.Sprintf("improved (claim holds: %d/%d pairs won)", wins, pairs)
	}
	if spread(base) > m.Bound || spread(cand) > m.Bound {
		allBetter := true
		for _, c := range cand {
			for _, b := range base {
				allBetter = allBetter && better(m, c, b)
			}
		}
		if allBetter {
			return "better, every run"
		}
		return "unresolved"
	}
	worse := (cm - bm) / math.Abs(bm)
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return "REGRESSED"
	}
	return "ok"
}

// compareMain implements -compare. With one file it summarizes each
// workload's end-to-end metrics (median, quartiles, spread against the
// bound); with more it judges every later file against the first.
func compareMain(w io.Writer, spec *benchSpec, files []string) int {
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "parimg-bench: -compare needs at least one results file")
		return 2
	}
	sides := make([]map[string][]record, len(files))
	for i, f := range files {
		recs, err := readRecords(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "parimg-bench:", err)
			return 1
		}
		sides[i] = recs
	}
	quart := func(xs []float64) string {
		q1, med, q3 := quartiles(xs)
		return fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", med, q1, q3, len(xs))
	}
	code := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			base := values(sides[0][wl.Name], m.Name)
			if len(base) == 0 {
				continue
			}
			if len(files) == 1 {
				fmt.Fprintf(w, "%-13s %-13s %-40s spread %.3f (bound %.2f)\n",
					wl.Name, m.Name, quart(base), spread(base), m.Bound)
				continue
			}
			for i := 1; i < len(files); i++ {
				cand := values(sides[i][wl.Name], m.Name)
				v := judge(m, base, cand)
				if v == "REGRESSED" {
					code = 1
				}
				_, bm, _ := quartiles(base)
				_, cm, _ := quartiles(cand)
				fmt.Fprintf(w, "%-13s %-13s %-40s %-40s %+7.2f%%  %s\n",
					wl.Name, m.Name, quart(base), quart(cand), 100*ratio(cm-bm, math.Abs(bm)), v)
			}
		}
	}
	return code
}
