// Package experiments regenerates every table and figure in the paper's
// evaluation from the reproduced system. Each runner returns a Table whose
// rows mirror what the paper reports; cmd/batbench prints them and
// bench_test.go wraps each in a benchmark.
//
// Scale note: the paper's clusters serve 1.5B–7B-parameter models on A100s
// and H20s against production traffic. The reproduction keeps every
// algorithm and architecture intact but runs the serving experiments in
// virtual time on reduced traces, with per-node KV memory scaled down
// (12 GB instead of 150 GB) so the active user working set exerts the same
// pressure the full population exerts at production scale. EXPERIMENTS.md
// records paper-vs-measured values for every artifact.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Table is one regenerated artifact.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	rows := append([][]string{t.Header}, t.Rows...)
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for ri, row := range rows {
		for i, c := range row {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			if i < len(row)-1 {
				b.WriteString(strings.Repeat(" ", pad+2))
			}
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i, w := range widths {
				b.WriteString(strings.Repeat("-", w))
				if i < len(widths)-1 {
					b.WriteString("  ")
				}
			}
			b.WriteByte('\n')
		}
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (cells containing commas
// are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Options tunes experiment scale.
type Options struct {
	// Requests is the trace length per serving simulation (default 4000).
	Requests int
	// Seed makes runs reproducible (default 11).
	Seed int64
	// Quick shrinks everything for unit tests and smoke runs.
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.Requests == 0 {
		// Dense enough that cache-reuse distances exceed the scaled user
		// pools the way production traffic exceeds the real ones.
		o.Requests = 20000
		if o.Quick {
			o.Requests = 800
		}
	}
	if o.Seed == 0 {
		o.Seed = 11
	}
	return o
}

// Runner produces one artifact.
type Runner func(Options) (*Table, error)

// Registry maps artifact IDs to runners, in paper order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"fig2a", Fig2aLatency},
		{"fig2b", Fig2bUserTokenCDF},
		{"fig2c", Fig2cUserFreqCDF},
		{"fig2d", Fig2dItemFreqCDF},
		{"table1", Table1Datasets},
		{"table2", Table2Models},
		{"fig4", Fig4FreqConsistency},
		{"fig5", Fig5QPS},
		{"fig6", Fig6HitRate},
		{"table3", Table3Accuracy},
		{"fig7", Fig7Placement},
		{"fig8", Fig8Scheduling},
		{"table4", Table4Ablation},
		{"fig9", Fig9LatencyCurve},
		{"fig10", Fig10DatasetScale},
		{"fig11", Fig11NodeScale},
		// Beyond the paper's evaluation section: passing claims and design
		// knobs (see extensions.go).
		{"ext-candidates", ExtCandidateSweep},
		{"ext-alpha", ExtAlphaSweep},
		{"ext-burst", ExtBurstRefresh},
		{"ext-tier", ExtSlowTier},
		{"ext-gpu", ExtGPUResidentItems},
		{"ext-oracle", ExtSchedulerLattice},
	}
}

// Lookup finds a runner by ID.
func Lookup(id string) (Runner, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

// IDs returns all artifact IDs in order.
func IDs() []string {
	reg := Registry()
	ids := make([]string, len(reg))
	for i, e := range reg {
		ids[i] = e.ID
	}
	return ids
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f4(v float64) string  { return fmt.Sprintf("%.4f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
func ms(v float64) string  { return fmt.Sprintf("%.1fms", v*1e3) }

// sortedKeys returns map keys in sorted order (deterministic tables).
func sortedKeys(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
