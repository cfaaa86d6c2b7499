// Command batbench regenerates the paper's tables and figures from the
// reproduced system and prints them as aligned text tables.
//
// Usage:
//
//	batbench -run all              # every artifact, paper order
//	batbench -run fig5,table4     # selected artifacts
//	batbench -run fig9 -requests 8000 -seed 7
//	batbench -list                 # available artifact IDs
//
// Performance is measured by the benchmark under benchmark/, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bat/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "comma-separated artifact IDs, or 'all'")
	requests := flag.Int("requests", 0, "requests per serving simulation (0 = default)")
	seed := flag.Int64("seed", 0, "workload seed (0 = default)")
	quick := flag.Bool("quick", false, "shrink every experiment for a fast smoke run")
	format := flag.String("format", "text", "output format: text | markdown | csv")
	list := flag.Bool("list", false, "list artifact IDs and exit")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	// Check every argument before running anything: an artifact can take
	// minutes, and a typo found after it would waste them.
	switch *format {
	case "text", "markdown", "csv":
	default:
		fmt.Fprintf(os.Stderr, "batbench: unknown format %q\n", *format)
		os.Exit(2)
	}
	ids := experiments.IDs()
	if *run != "all" {
		ids = strings.Split(*run, ",")
	}
	runners := make([]experiments.Runner, len(ids))
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
		runner, ok := experiments.Lookup(ids[i])
		if !ok {
			fmt.Fprintf(os.Stderr, "batbench: unknown artifact %q (try -list)\n", ids[i])
			os.Exit(2)
		}
		runners[i] = runner
	}

	opts := experiments.Options{Requests: *requests, Seed: *seed, Quick: *quick}
	for i, id := range ids {
		start := time.Now()
		table, err := runners[i](opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "batbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		switch *format {
		case "markdown":
			fmt.Println(table.Markdown())
		case "csv":
			fmt.Print(table.CSV())
		default:
			fmt.Print(table.Format())
			fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
		}
	}
}
