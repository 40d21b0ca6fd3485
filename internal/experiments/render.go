// Package experiments is the reproduction of the paper's evaluation: one
// runner per table and figure, the shared environment and rendering
// helpers, and the registry (registry.go) that lists every runner once
// with its one size. The blameit-experiments command, BenchmarkExperiments
// (bench_test.go) and this package's shape tests iterate the registry; its
// scalars at small scale, seed 42 are committed as EXPERIMENTS.json, which
// `go test ./internal/experiments -run TestExperimentsMatchCommitted
// -update` regenerates and `make test` holds every run to.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a paper-style result table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}

// Series is one line of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a paper-style plot rendered as text.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Render writes each series as sampled (x, y) pairs plus a sparkline.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(w, "  x: %s, y: %s\n", f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, "  -- %s (%d points)\n", s.Name, len(s.X))
		fmt.Fprintf(w, "     %s\n", sparkline(s.Y, 60))
		for _, i := range sampleIndexes(len(s.X), 12) {
			fmt.Fprintf(w, "     x=%-12.4g y=%.4g\n", s.X[i], s.Y[i])
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// sampleIndexes picks up to n evenly spaced indexes of a length-m series.
func sampleIndexes(m, n int) []int {
	if m == 0 {
		return nil
	}
	if m <= n {
		out := make([]int, m)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = i * (m - 1) / (n - 1)
	}
	return out
}

// sparkline renders values as a unicode mini-chart of the given width.
func sparkline(ys []float64, width int) string {
	if len(ys) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	min, max := ys[0], ys[0]
	for _, y := range ys {
		if y < min {
			min = y
		}
		if y > max {
			max = y
		}
	}
	var sb strings.Builder
	for _, i := range sampleIndexes(len(ys), width) {
		frac := 0.0
		if max > min {
			frac = (ys[i] - min) / (max - min)
		}
		idx := int(frac * float64(len(blocks)-1))
		sb.WriteRune(blocks[idx])
	}
	return sb.String()
}

// fmtF formats a float with the given precision.
func fmtF(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// fmtPct formats a fraction as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// fmtInt formats an integer with thousands separators.
func fmtInt(v int64) string {
	s := fmt.Sprintf("%d", v)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}
