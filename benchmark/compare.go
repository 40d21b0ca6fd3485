//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		} else if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// readRecords loads the untraced results of one -out file, grouped by
// workload and then by metric, in file order.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if !rec.Result.Correct {
			return nil, fmt.Errorf("%s: %s seed %d is not a correct run", path, rec.Workload, rec.Seed)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = make(map[string][]float64)
		}
		for name, v := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles holds two result sets of the same commit to the
// repeatability rule: for every workload and end-to-end metric, the
// spread of each set (interquartile range over median; setup_s exempt)
// and the amount by which B's median is worse than A's must both stay
// within the metric's bound. It prints one row per pairing and reports
// whether all of them passed.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-17s %-22s %3s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "n", "median A", "median B", "B worse", "spread A", "spread B", "bound")
	for _, wl := range workloads {
		for _, ms := range sp.EndToEnd {
			va, vb := a[wl.name][ms.Name], b[wl.name][ms.Name]
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s %s: missing from one of the result sets", wl.name, ms.Name)
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if ms.Better == "higher" {
				worse = -worse
			}
			spread := func(xs []float64) float64 {
				q1, q3 := quartiles(xs)
				return (q3 - q1) / median(xs)
			}
			sa, sb := spread(va), spread(vb)
			verdict := ""
			if worse > ms.Bound || (ms.Name != "setup_s" && max(sa, sb) > ms.Bound) {
				verdict = "  FAIL"
				ok = false
			}
			fmt.Fprintf(w, "%-17s %-22s %3d %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%%s\n",
				wl.name, ms.Name, len(va), ma, mb, 100*worse, 100*sa, 100*sb, 100*ms.Bound, verdict)
		}
	}
	return ok, nil
}
