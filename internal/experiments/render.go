// Uniform result rendering: an experiment declares its output once, as a
// Layout — section name, table title, one column list for the aligned text
// table and one for the TSV series, and its summary metrics — and the one
// generic Rendering implementation below derives Section/Rows/Table/Series
// from it. The column formats are byte-for-byte the ones the committed golden
// TSV fixtures pin. Fig. 7's two-run time-series dump is the only result that
// is not a row table and keeps a hand-written Rendering (Fig7Out).

package experiments

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Series is one TSV series of an experiment result, ready for plotting and
// for byte-exact comparison against a committed golden fixture.
type Series struct {
	Name   string
	Header []string
	Cells  [][]string
}

// Write emits the series in the committed TSV format: a header line, then
// one tab-joined line per row.
func (s Series) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, strings.Join(s.Header, "\t"))
	for _, r := range s.Cells {
		fmt.Fprintln(bw, strings.Join(r, "\t"))
	}
	return bw.Flush()
}

// Rendering is the uniform serialization surface of an experiment result:
// a section name and structured rows for the JSON dump, an aligned text
// table, zero or more TSV series, and key scalar metrics for a run folder's
// summary table. A Section of "" means "nothing to record" (empty result).
type Rendering interface {
	Section() string
	Rows() any
	Table(w io.Writer)
	Series() []Series
	Summary() map[string]float64
}

// NewTW is the aligned-table writer every repro table shares.
func NewTW(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// Col is one column of a table or series: its header, the fmt verb a cell
// is printed with, and the row's value for it.
type Col[R any] struct {
	Head, Verb string
	Val        func(R) any
}

// Layout declares how one experiment's rows render. Section and Title see
// the full (non-empty) row set, so they can name the machine, tree or
// benchmark the sweep ran on.
type Layout[R any] struct {
	Section func(rows []R) string // JSON section and TSV series name
	Title   func(rows []R) string // table heading, printed as "== title =="
	Table   []Col[R]              // aligned text table
	TSV     []Col[R]              // plot series; nil for table-only experiments
	// Extra adds series that are not one line per row (serve's per-request
	// tail bands).
	Extra   func(rows []R) []Series
	Summary func(rows []R) map[string]float64
}

// Of binds rows to the layout as a Rendering. An empty row set renders as
// nothing: Section "", no table, no series, no summary.
func (l *Layout[R]) Of(rows []R) Rendering { return rendered[R]{l, rows} }

type rendered[R any] struct {
	l    *Layout[R]
	rows []R
}

func (r rendered[R]) Section() string {
	if len(r.rows) == 0 {
		return ""
	}
	return r.l.Section(r.rows)
}

func (r rendered[R]) Rows() any { return r.rows }

func (r rendered[R]) Table(w io.Writer) {
	if len(r.rows) == 0 {
		return
	}
	fmt.Fprintf(w, "\n== %s ==\n", r.l.Title(r.rows))
	tw := NewTW(w)
	fmt.Fprintln(tw, strings.Join(heads(r.l.Table), "\t"))
	for _, row := range r.rows {
		fmt.Fprintln(tw, strings.Join(cells(r.l.Table, row), "\t"))
	}
	tw.Flush()
}

func (r rendered[R]) Series() []Series {
	if len(r.rows) == 0 || r.l.TSV == nil {
		return nil
	}
	s := Series{Name: r.Section(), Header: heads(r.l.TSV)}
	for _, row := range r.rows {
		s.Cells = append(s.Cells, cells(r.l.TSV, row))
	}
	out := []Series{s}
	if r.l.Extra != nil {
		out = append(out, r.l.Extra(r.rows)...)
	}
	return out
}

func (r rendered[R]) Summary() map[string]float64 {
	if len(r.rows) == 0 || r.l.Summary == nil {
		return nil
	}
	return r.l.Summary(r.rows)
}

func heads[R any](cols []Col[R]) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Head
	}
	return out
}

func cells[R any](cols []Col[R], row R) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = fmt.Sprintf(c.Verb, c.Val(row))
	}
	return out
}

// machLabel is the machine tag of a sweep that may span machines: its
// single machine, or "all" when the rows cover several.
func machLabel[R interface{ machine() string }](rows []R) string {
	label := rows[0].machine()
	for _, row := range rows {
		if row.machine() != label {
			return "all"
		}
	}
	return label
}

// Fig7Out renders the Fig. 7 time-series pair: two sampled runs of unequal
// length side by side, dumped as raw tab-separated lines.
type Fig7Out struct{ R Fig7Result }

func (r Fig7Out) Section() string             { return "fig7" }
func (r Fig7Out) Rows() any                   { return r.R }
func (r Fig7Out) Series() []Series            { return nil }
func (r Fig7Out) Summary() map[string]float64 { return nil }

func (r Fig7Out) Table(w io.Writer) {
	fmt.Fprintf(w, "\n== Fig. 7: RecPFor scheduler activity time series (%d workers) ==\n", r.R.Workers)
	fmt.Fprintln(w, "t(ms)\tbusy[greedy]\treadyOJ[greedy]\tbusy[child-full]\treadyOJ[child-full]")
	n := len(r.R.ContGreedy)
	if len(r.R.ChildFull) > n {
		n = len(r.R.ChildFull)
	}
	for i := 0; i < n; i++ {
		var t float64
		bg, rg, bc, rc := "", "", "", ""
		if i < len(r.R.ContGreedy) {
			s := r.R.ContGreedy[i]
			t = s.T.Seconds() * 1e3
			bg, rg = fmt.Sprint(s.Busy), fmt.Sprint(s.Ready)
		}
		if i < len(r.R.ChildFull) {
			s := r.R.ChildFull[i]
			t = s.T.Seconds() * 1e3
			bc, rc = fmt.Sprint(s.Busy), fmt.Sprint(s.Ready)
		}
		fmt.Fprintf(w, "%.1f\t%s\t%s\t%s\t%s\n", t, bg, rg, bc, rc)
	}
}
