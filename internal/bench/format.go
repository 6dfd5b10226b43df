package bench

import (
	"fmt"
	"io"
	"strings"
)

// table is a minimal fixed-width text table writer for experiment output.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer, title string) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if title != "" {
		fmt.Fprintf(w, "\n== %s ==\n", title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		fmt.Fprintln(w)
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// downsample reduces a series to at most k points (keeping the last).
func downsample(s Series, k int) Series {
	n := len(s.Values)
	if n <= k || k < 2 {
		return s
	}
	out := Series{Label: s.Label}
	step := float64(n-1) / float64(k-1)
	for i := 0; i < k; i++ {
		j := int(float64(i) * step)
		if i == k-1 {
			j = n - 1
		}
		out.Iters = append(out.Iters, s.Iters[j])
		if s.Times != nil {
			out.Times = append(out.Times, s.Times[j])
		}
		out.Values = append(out.Values, s.Values[j])
	}
	return out
}

// writeSeries renders convergence curves as aligned columns, one series
// per block — the textual stand-in for the paper's plots.
func writeSeries(w io.Writer, title string, series []Series, maxPoints int) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	for _, s := range series {
		ds := downsample(s, maxPoints)
		fmt.Fprintf(w, "%s:\n", s.Label)
		for i := range ds.Values {
			if ds.Times != nil {
				fmt.Fprintf(w, "  iter %8d   t=%.6es   f=%.6e\n", ds.Iters[i], ds.Times[i], ds.Values[i])
			} else {
				fmt.Fprintf(w, "  iter %8d   f=%.6e\n", ds.Iters[i], ds.Values[i])
			}
		}
	}
}
