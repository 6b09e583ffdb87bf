// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) against the synthetic datasets that package datagen
// substitutes for the paper's (`cmd/experiments -list` prints the index).
// Each experiment returns a Table whose rows correspond to the series the
// paper plots; absolute numbers differ from the paper's testbed, but the
// comparisons — who wins, how gains move with k, m, eps, cores, nodes and
// data size — are the reproduction targets.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Scale selects the dataset sizes: Tiny keeps `go test -bench` snappy,
// Small is the default for the CLI, Mid approaches the paper's relative
// dataset-size ratios.
type Scale string

// Available scales.
const (
	Tiny  Scale = "tiny"
	Small Scale = "small"
	Mid   Scale = "mid"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries caveats (e.g. which substitution applies).
	Notes string
}

// Render writes the table as aligned text.
func (t Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Runner is one experiment generator.
type Runner func(Scale) (Table, error)

// registry maps experiment ids (paper figure/table names) to runners.
var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// IDs returns the registered experiment ids in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by id ("fig7a", "table5", ...).
func Run(id string, scale Scale) (Table, error) {
	r, ok := registry[strings.ToLower(id)]
	if !ok {
		return Table{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return r(scale)
}

// RunAll executes every experiment and writes the tables to w.
func RunAll(scale Scale, w io.Writer) error {
	for _, id := range IDs() {
		t, err := Run(id, scale)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		t.Render(w)
	}
	return nil
}

// --- small shared helpers ------------------------------------------------

func secs(d time.Duration) string { return fmt.Sprintf("%.3fs", d.Seconds()) }
func gain(base, fast time.Duration) string {
	if fast <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(base)/float64(fast))
}
func itoa(v int) string     { return fmt.Sprintf("%d", v) }
func ftoa(v float64) string { return fmt.Sprintf("%g", v) }
