package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func quickOpts() Options { return Options{Quick: true, Seed: 11} }

// runQuick executes a runner in quick mode and sanity-checks its table.
func runQuick(t *testing.T, id string) *Table {
	t.Helper()
	run, ok := Lookup(id)
	if !ok {
		t.Fatalf("runner %s not registered", id)
	}
	tab, err := run(quickOpts())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tab.ID != id {
		t.Fatalf("%s: table reports ID %s", id, tab.ID)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: no rows", id)
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("%s row %d: %d cells for %d columns", id, i, len(row), len(tab.Header))
		}
	}
	if !strings.Contains(tab.Format(), tab.Title) {
		t.Fatalf("%s: Format() lacks title", id)
	}
	return tab
}

func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSuffix(cell, "%"), "ms")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig2a", "fig2b", "fig2c", "fig2d", "table1", "table2",
		"fig4", "fig5", "fig6", "table3", "fig7", "fig8", "table4",
		"fig9", "fig10", "fig11",
		"ext-candidates", "ext-alpha", "ext-burst", "ext-tier", "ext-gpu", "ext-oracle"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus ID resolved")
	}
}

func TestFig2aShape(t *testing.T) {
	tab := runQuick(t, "fig2a")
	// 3 models x 5 lengths.
	if len(tab.Rows) != 15 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Prefix load must be cheaper than recompute in every row.
	for _, row := range tab.Rows {
		if cellFloat(t, row[2]) <= cellFloat(t, row[3]) {
			t.Fatalf("recompute %s not above load %s", row[2], row[3])
		}
	}
}

func TestFig2Distributions(t *testing.T) {
	b := runQuick(t, "fig2b")
	// CDF must be non-decreasing and end at 100%.
	last := 0.0
	for _, row := range b.Rows {
		v := cellFloat(t, row[1])
		if v < last {
			t.Fatal("fig2b CDF decreasing")
		}
		last = v
	}
	if last != 100 {
		t.Fatalf("fig2b CDF ends at %v", last)
	}

	c := runQuick(t, "fig2c")
	if got := cellFloat(t, c.Rows[len(c.Rows)-1][2]); got != 100 {
		t.Fatalf("fig2c CDF ends at %v", got)
	}

	d := runQuick(t, "fig2d")
	// Top 10% of items should carry most accesses.
	var top10 float64
	for _, row := range d.Rows {
		if row[0] == "10.0%" {
			top10 = cellFloat(t, row[1])
		}
	}
	if top10 < 75 {
		t.Fatalf("top-10%% access share %v%%, want heavy skew", top10)
	}
}

func TestTable1And2(t *testing.T) {
	t1 := runQuick(t, "table1")
	if len(t1.Rows) != 4 {
		t.Fatalf("table1 rows %d", len(t1.Rows))
	}
	// Measured token means must track the configured averages within 20%.
	for _, row := range t1.Rows {
		want := cellFloat(t, row[3])
		got := cellFloat(t, row[5])
		if got < want*0.8 || got > want*1.2 {
			t.Fatalf("%s: measured user tokens %v vs configured %v", row[0], got, want)
		}
	}
	t2 := runQuick(t, "table2")
	if len(t2.Rows) != 3 {
		t.Fatalf("table2 rows %d", len(t2.Rows))
	}
	if t2.Rows[0][4] != "28672" {
		t.Fatalf("Qwen2-1.5B KV bytes = %s", t2.Rows[0][4])
	}
}

func TestFig4Consistency(t *testing.T) {
	tab := runQuick(t, "fig4")
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		mean := cellFloat(t, row[1])
		if mean < 0.3 || mean > 1 {
			t.Fatalf("window %s similarity %v implausible", row[0], mean)
		}
	}
}

func TestFig5And6Orderings(t *testing.T) {
	f5 := runQuick(t, "fig5")
	for _, row := range f5.Rows {
		re, up, ip, bat := cellFloat(t, row[2]), cellFloat(t, row[3]), cellFloat(t, row[4]), cellFloat(t, row[5])
		if bat < up*0.999 || bat < ip*0.999 || bat < re*0.999 {
			t.Fatalf("%s/%s: BAT %v not leading (RE %v UP %v IP %v)", row[0], row[1], bat, re, up, ip)
		}
		if re > up || re > ip {
			t.Fatalf("%s/%s: RE %v not trailing", row[0], row[1], re)
		}
	}
	f6 := runQuick(t, "fig6")
	for _, row := range f6.Rows {
		if cellFloat(t, row[2]) != 0 {
			t.Fatal("RE hit rate must be zero")
		}
		bat := cellFloat(t, row[5])
		if bat < cellFloat(t, row[3]) || bat < cellFloat(t, row[4]) {
			t.Fatalf("%s/%s: BAT hit rate %v below a baseline", row[0], row[1], bat)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	tab := runQuick(t, "table3")
	// 3 datasets x (3 variants x 2 strategies + 1 PIC row) = 21 rows.
	if len(tab.Rows) != 21 {
		t.Fatalf("table3 rows = %d, want 21", len(tab.Rows))
	}
	picRows := 0
	for _, row := range tab.Rows {
		r10 := cellFloat(t, row[3])
		if r10 <= 0 || r10 > 1 {
			t.Fatalf("Recall@10 %v out of range", r10)
		}
		if row[2] == "IP+PIC" {
			picRows++
		}
	}
	if picRows != 3 {
		t.Fatalf("%d PIC rows, want 3", picRows)
	}
	// For each dataset, the AbsPos model's IP must trail its UP, and PIC
	// must land between them.
	type key struct{ ds, strat string }
	abs := map[key]float64{}
	for _, row := range tab.Rows {
		if row[1] == "PrefGR-AbsPos" {
			abs[key{row[0], row[2]}] = cellFloat(t, row[3])
		}
	}
	for _, ds := range []string{"Beauty-syn", "Games-syn", "Books-syn"} {
		up, ip, pic := abs[key{ds, "UP"}], abs[key{ds, "IP"}], abs[key{ds, "IP+PIC"}]
		if !(ip < up && pic > ip) {
			t.Fatalf("%s AbsPos: UP %v IP %v PIC %v — expected IP < UP and PIC recovery", ds, up, ip, pic)
		}
	}
}

func TestFig7Ordering(t *testing.T) {
	tab := runQuick(t, "fig7")
	if len(tab.Rows) != 6 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	byKey := map[string]float64{}
	for _, row := range tab.Rows {
		byKey[row[0]+"/"+row[1]] = cellFloat(t, row[2])
	}
	// At 10Gbps, hash pays the network: it must trail HRCS.
	if byKey["10Gbps/BAT-Hash"] >= byKey["10Gbps/BAT"] {
		t.Fatalf("hash (%v) should trail HRCS (%v) at 10Gbps", byKey["10Gbps/BAT-Hash"], byKey["10Gbps/BAT"])
	}
	// HRCS at least matches full replication at both speeds.
	for _, net := range []string{"10Gbps", "100Gbps"} {
		if byKey[net+"/BAT"] < byKey[net+"/BAT-Replicate"]*0.98 {
			t.Fatalf("%s: HRCS %v below replicate %v", net, byKey[net+"/BAT"], byKey[net+"/BAT-Replicate"])
		}
	}
}

func TestFig8Ordering(t *testing.T) {
	tab := runQuick(t, "fig8")
	// At every user-cache size, hotness-aware >= cache-agnostic.
	for i := 0; i < len(tab.Rows); i += 2 {
		aware, agnostic := cellFloat(t, tab.Rows[i][2]), cellFloat(t, tab.Rows[i+1][2])
		if aware < agnostic*0.98 {
			t.Fatalf("user cache %s: hotness-aware %v below cache-agnostic %v",
				tab.Rows[i][0], aware, agnostic)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	tab := runQuick(t, "table4")
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		abc, none := cellFloat(t, row[1]), cellFloat(t, row[5])
		if abc <= none {
			t.Fatalf("%s: ABC %v not above None %v", row[0], abc, none)
		}
	}
}

func TestFig9SaturationKnee(t *testing.T) {
	tab := runQuick(t, "fig9")
	// Each system appears at a low and an above-saturation rate; P99 at the
	// high rate must exceed P99 at the low rate.
	rowsBySys := map[string][][]string{}
	for _, row := range tab.Rows {
		rowsBySys[row[0]] = append(rowsBySys[row[0]], row)
	}
	for sys, rows := range rowsBySys {
		if len(rows) < 2 {
			t.Fatalf("%s has %d rate points", sys, len(rows))
		}
		low := cellFloat(t, rows[0][3])
		high := cellFloat(t, rows[len(rows)-1][3])
		if high <= low {
			t.Fatalf("%s: P99 %v at overload not above %v at low rate", sys, high, low)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	tab := runQuick(t, "fig10")
	byKey := map[string]float64{}
	for _, row := range tab.Rows {
		byKey[row[0]+"/"+row[1]] = cellFloat(t, row[2])
	}
	for _, corpus := range []string{"Industry-1M", "Industry-100M"} {
		bat := byKey[corpus+"/BAT"]
		if bat < byKey[corpus+"/UP"]*0.999 || bat < byKey[corpus+"/IP"]*0.999 {
			t.Fatalf("%s: BAT %v not leading (UP %v, IP %v)",
				corpus, bat, byKey[corpus+"/UP"], byKey[corpus+"/IP"])
		}
	}
}

func TestFig11NearLinearScaling(t *testing.T) {
	tab := runQuick(t, "fig11")
	first := cellFloat(t, tab.Rows[0][1])
	lastRow := tab.Rows[len(tab.Rows)-1]
	nodes := cellFloat(t, lastRow[0])
	speedup := cellFloat(t, lastRow[3])
	if first <= 0 {
		t.Fatal("zero baseline throughput")
	}
	if speedup < nodes*0.7 {
		t.Fatalf("speedup %v at %v nodes; expected near-linear", speedup, nodes)
	}
}

func TestTableFormatAlignment(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Header: []string{"A", "LongHeader"}}
	tab.AddRow("1", "2")
	out := tab.Format()
	if !strings.Contains(out, "LongHeader") || !strings.Contains(out, "--") {
		t.Fatalf("format output: %q", out)
	}
}

func TestExtCandidateSweep(t *testing.T) {
	tab := runQuick(t, "ext-candidates")
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// IP savings must grow with candidate count and exceed UP's at the top.
	small, big := tab.Rows[0], tab.Rows[1]
	if cellFloat(t, big[3]) <= cellFloat(t, small[3]) {
		t.Fatalf("IP savings did not grow: %s -> %s", small[3], big[3])
	}
	if cellFloat(t, big[3]) <= cellFloat(t, big[2]) {
		t.Fatalf("at %s candidates IP (%s) should out-save UP (%s)", big[0], big[3], big[2])
	}
	// BAT tracks the better side at both ends.
	for _, row := range tab.Rows {
		bat := cellFloat(t, row[4])
		if bat < cellFloat(t, row[2])-2 || bat < cellFloat(t, row[3])-2 {
			t.Fatalf("BAT savings %v trail a static policy (%s / %s)", bat, row[2], row[3])
		}
	}
}

func TestExtAlphaSweep(t *testing.T) {
	tab := runQuick(t, "ext-alpha")
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	tight, loose := tab.Rows[0], tab.Rows[1]
	if cellFloat(t, tight[2]) <= cellFloat(t, loose[2]) {
		t.Fatalf("smaller alpha should replicate more: %s vs %s", tight[2], loose[2])
	}
	if cellFloat(t, tight[5]) > cellFloat(t, loose[5]) {
		t.Fatalf("smaller alpha should transfer less: %s vs %s", tight[5], loose[5])
	}
}

func TestExtBurstRefresh(t *testing.T) {
	tab := runQuick(t, "ext-burst")
	var staticBurst, refreshedBurst, burstRows float64
	for _, row := range tab.Rows {
		if row[1] == "burst" {
			staticBurst += cellFloat(t, row[2])
			refreshedBurst += cellFloat(t, row[3])
			burstRows++
		}
	}
	if burstRows == 0 {
		t.Fatal("no burst-phase rows")
	}
	if refreshedBurst <= staticBurst {
		t.Fatalf("refresh did not improve burst-phase hit rate: %v vs %v", refreshedBurst/burstRows, staticBurst/burstRows)
	}
}

func TestExtSlowTier(t *testing.T) {
	tab := runQuick(t, "ext-tier")
	if len(tab.Rows) != 3 { // UP flat, UP tiered, BAT reference
		t.Fatalf("%d rows", len(tab.Rows))
	}
	flat, tiered := tab.Rows[0], tab.Rows[1]
	if cellFloat(t, tiered[3]) < cellFloat(t, flat[3]) {
		t.Fatalf("spill tier lowered UP hit rate: %s vs %s", tiered[3], flat[3])
	}
	if cellFloat(t, tiered[4]) <= 0 {
		t.Fatal("no slow-tier traffic recorded")
	}
	if tab.Rows[2][0] != "BAT" {
		t.Fatal("missing BAT reference row")
	}
}

func TestTableMarkdownAndCSV(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Header: []string{"A", "B"}}
	tab.AddRow("1", "two,with comma")
	tab.Notes = append(tab.Notes, "a note")
	md := tab.Markdown()
	if !strings.Contains(md, "| A | B |") || !strings.Contains(md, "*a note*") {
		t.Fatalf("markdown: %q", md)
	}
	csv := tab.CSV()
	if !strings.Contains(csv, "\"two,with comma\"") {
		t.Fatalf("csv quoting: %q", csv)
	}
}

func TestExtGPUResidentItems(t *testing.T) {
	tab := runQuick(t, "ext-gpu")
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	flat, gpu := tab.Rows[0], tab.Rows[1]
	if cellFloat(t, gpu[2]) < cellFloat(t, flat[2]) {
		t.Fatalf("GPU area lowered QPS: %s vs %s", gpu[2], flat[2])
	}
	if cellFloat(t, gpu[4]) <= 0 {
		t.Fatal("no GPU-resident traffic recorded")
	}
	if cellFloat(t, flat[4]) != 0 {
		t.Fatal("GPU traffic without a GPU area")
	}
}

func TestExtSchedulerLattice(t *testing.T) {
	tab := runQuick(t, "ext-oracle")
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	qps := map[string]float64{}
	for _, row := range tab.Rows {
		qps[row[0]] = cellFloat(t, row[1])
	}
	if qps["hotness-aware"] < qps["IP"]*0.98 || qps["hotness-aware"] < qps["greedy-oracle"]*0.98 {
		t.Fatalf("hotness-aware (%v) should lead IP (%v) and the oracle (%v)",
			qps["hotness-aware"], qps["IP"], qps["greedy-oracle"])
	}
	if qps["greedy-oracle"] < qps["IP"]*0.98 {
		t.Fatalf("oracle (%v) should not trail always-IP (%v)", qps["greedy-oracle"], qps["IP"])
	}
}
