// Command batrouter launches the sharded frontend tier: one router in front
// of N frontend replicas. The router does cluster-level admission (the same
// bounded in-flight + queue + 429 ladder the frontends run per-replica),
// polls each frontend's GET /v1/load for live load and a bloom summary of
// resident user caches, scores every rank request across the live frontends
// with the shared routing pipeline (cache affinity, least-loaded,
// round-robin by weight), proxies to the winner, and fails over to the
// next-best frontend when one dies mid-request.
//
// Usage:
//
//	batrouter -addr :8900 -frontends http://127.0.0.1:9000,http://127.0.0.1:9100
//
// Then:
//
//	curl -s localhost:8900/v1/rank -d '{"user_id":3,"candidate_ids":[1,2,3,4,5,6,7,8,9,10]}'
//	curl -s localhost:8900/v1/stats   # per-frontend alive/load, decisions by scorer, failovers
//	curl -s localhost:8900/metrics    # bat_route_decisions_total{scorer}, bat_route_failovers_total, gauges
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"bat/internal/admission"
	"bat/internal/routing"
)

func main() {
	addr := flag.String("addr", ":8900", "router listen address")
	frontends := flag.String("frontends", "", "comma-separated frontend base URLs (required)")
	scorerSpec := flag.String("routing-scorers", "", `scorer pipeline, e.g. "cache-affinity:2,least-loaded:1,round-robin:0.25" (empty = defaults)`)
	maxInFlight := flag.Int("router-max-inflight", 16, "concurrently proxied requests before queueing")
	queueDepth := flag.Int("router-queue-depth", 32, "bounded wait queue past the in-flight limit (negative disables queueing)")
	defaultDeadline := flag.Duration("default-deadline", 5*time.Second, "request budget when no Deadline-Ms header is sent")
	pollInterval := flag.Duration("poll-interval", 500*time.Millisecond, "frontend /v1/load poll cadence")
	failAfter := flag.Int("fail-after", 2, "consecutive failures that mark a frontend dead until a poll succeeds")
	seed := flag.Uint64("seed", 1, "round-robin scorer seed")
	timeout := flag.Duration("proxy-timeout", 10*time.Second, "HTTP client timeout for polls and proxied ranks")
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*frontends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		log.Fatal("batrouter: -frontends is required")
	}
	var scorers []routing.Weighted
	if *scorerSpec != "" {
		var err error
		if scorers, err = routing.ParseScorers(*scorerSpec); err != nil {
			log.Fatalf("batrouter: %v", err)
		}
	}

	r, err := routing.NewRouter(routing.RouterConfig{
		Frontends: urls,
		Scorers:   scorers,
		Seed:      *seed,
		Admission: admission.Config{
			MaxInFlight:     *maxInFlight,
			MaxQueue:        *queueDepth,
			DefaultDeadline: *defaultDeadline,
		},
		// No Transport: the client rides the router's own keep-alive
		// transport, keeping this timeout.
		Client:       &http.Client{Timeout: *timeout},
		PollInterval: *pollInterval,
		FailAfter:    *failAfter,
	})
	if err != nil {
		log.Fatalf("batrouter: %v", err)
	}
	defer r.Close()

	var names []string
	for _, w := range r.Scorers() {
		names = append(names, fmt.Sprintf("%s:%g", w.Scorer.Name(), w.Weight))
	}
	fmt.Printf("batrouter: routing %d frontends on %s, scorers %s, max-inflight=%d queue=%d poll=%v\n",
		len(urls), *addr, strings.Join(names, ","), *maxInFlight, *queueDepth, *pollInterval)
	log.Fatal(http.ListenAndServe(*addr, r.Handler()))
}
