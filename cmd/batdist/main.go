// Command batdist launches a complete disaggregated BAT deployment in one
// process for demonstration: a cache meta service, N KV cache workers, and
// an inference frontend, each on its own HTTP port (Figure 3 as real
// services). The frontend moves KV payloads through the fault-tolerant
// transfer engine (timeouts, retries, circuit breakers, parallel fetch), and
// each worker's LRU evictions unregister from the meta service so location
// metadata never goes stale. The frontend runs the overload ladder (bounded
// in-flight + wait queue, Deadline-Ms budgets, degraded retrieval fallback,
// 429 shedding) and a poolguard that probes worker health, purges dead
// workers' meta bindings, and re-replicates their hottest entries.
//
// Usage:
//
//	batdist -base-port 9000 -workers 3 -transfer-timeout 2s
//
// Attach mode boots only a frontend against a cluster another batdist owns
// (a second replica for the cmd/batrouter sharded frontend tier):
//
//	batdist -base-port 9100 -meta-url http://127.0.0.1:9001 \
//	        -cache-workers http://127.0.0.1:9002,http://127.0.0.1:9003
//
// Then:
//
//	curl -s localhost:9000/v1/rank -d '{"user_id":3,"candidate_ids":[1,2,3,4,5,6,7,8,9,10]}'
//	curl -s localhost:9000/v1/stats          # frontend, incl. per-worker health
//	curl -s localhost:9000/metrics           # stage histograms + pool health (text)
//	curl -s localhost:9000/debug/trace       # last-N traces, fetch spans tagged
//	curl -s localhost:9001/v1/locate'?kind=item&id=1'   # meta
//	curl -s localhost:9002/stats             # first cache worker
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"bat/internal/admission"
	"bat/internal/distserve"
	"bat/internal/partition"
	"bat/internal/ranking"
)

func main() {
	basePort := flag.Int("base-port", 9000, "frontend port; meta takes +1, cache workers +2..")
	workers := flag.Int("workers", 3, "cache worker count")
	capacityMB := flag.Int64("worker-mem", 256, "cache worker capacity in MiB")
	items := flag.Int("items", 600, "item corpus size")
	users := flag.Int("users", 200, "user population")
	seed := flag.Int64("seed", 1, "dataset seed")
	timeout := flag.Duration("transfer-timeout", 2*time.Second, "per-attempt KV transfer timeout")
	retries := flag.Int("transfer-retries", 2, "extra attempts for idempotent cache GETs (negative disables)")
	breakerTrip := flag.Int("breaker-threshold", 5, "consecutive failures that trip a worker's circuit breaker (negative disables)")
	breakerCool := flag.Duration("breaker-cooldown", 2*time.Second, "open-breaker cooldown before a half-open probe")
	fetchConc := flag.Int("fetch-concurrency", 16, "parallel item-cache fetches per request")
	maxInFlight := flag.Int("max-inflight", 4, "concurrently served requests before queueing")
	queueDepth := flag.Int("queue-depth", 8, "bounded wait queue past the in-flight limit (negative disables queueing)")
	defaultDeadline := flag.Duration("default-deadline", 5*time.Second, "request budget when no Deadline-Ms header is sent")
	degradeQueue := flag.Int("degrade-queue", 4, "queue depth at which admitted requests are served degraded")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "poolguard health-probe cadence")
	repairHot := flag.Int("repair-hot", 16, "hottest entries re-replicated after a cache worker dies")
	batchWindow := flag.Duration("batch-window", 2*time.Millisecond, "how long the first queued request waits for batchmates (negative = drain-only)")
	maxBatch := flag.Int("max-batch", 8, "most requests packed into one bipartite execution (1 = serialized)")
	windowPolicy := flag.String("window-policy", "adaptive", "batch-window policy: adaptive (close early when arrivals lull) or fixed (always wait out batch-window)")
	traceRing := flag.Int("trace-ring", 128, "request traces retained for GET /debug/trace")
	jitterSeed := flag.Int64("jitter-seed", 0, "retry-jitter RNG seed (0 = from the clock)")
	storeQueue := flag.Int("store-queue", 256, "write-behind cache-store queue depth (negative = synchronous stores at the batch boundary)")
	storeWorkers := flag.Int("store-workers", 2, "concurrent write-behind store uploads")
	replication := flag.Int("replication", 2, "replicas per committed cache entry (1 = single copy)")
	closeFlushTimeout := flag.Duration("close-flush-timeout", 2*time.Second, "bounded flush of queued write-behind stores at shutdown (negative = abandon)")
	scrubInterval := flag.Duration("scrub-interval", 2*time.Second, "anti-entropy scrub cadence (negative disables)")
	hedgeQuantile := flag.Float64("hedge-quantile", 0.99, "fetch-stage latency quantile that arms hedged replica reads (negative disables)")
	chaos := flag.Bool("chaos", false, "route each cache worker through a fault proxy controlled via POST /chaos?worker=N&mode=error|delay|none on the frontend port")
	partitionMode := flag.String("partition", "static", "worker cache capacity split between user and item classes: static or adaptive")
	itemBudgetFraction := flag.Float64("item-budget-fraction", 0.7, "item class share of each worker's capacity when -partition adaptive")
	attachMeta := flag.String("meta-url", "", "attach mode: reuse an existing cache meta service instead of booting one (requires -cache-workers)")
	attachWorkers := flag.String("cache-workers", "", "attach mode: comma-separated existing cache worker URLs (with -meta-url); this process boots only a frontend")
	flag.Parse()

	mode, err := partition.ParseMode(*partitionMode)
	if err != nil {
		log.Fatalf("batdist: %v", err)
	}
	ds, err := ranking.NewDataset(ranking.DatasetConfig{
		Name: "dist", Items: *items, Users: *users, Clusters: 8, LatentDim: 8,
		HistoryMin: 8, HistoryMax: 40, ItemAttrTokens: 2,
		ClusterNoise: 0.15, Candidates: 100, HardNegatives: 8, Seed: *seed,
	})
	if err != nil {
		log.Fatalf("batdist: %v", err)
	}

	errs := make(chan error, *workers+2)
	serve := func(port int, h http.Handler, what string) {
		addr := fmt.Sprintf(":%d", port)
		fmt.Printf("batdist: %s on %s\n", what, addr)
		go func() { errs <- fmt.Errorf("%s: %w", what, http.ListenAndServe(addr, h)) }()
	}

	// Attach mode: -meta-url + -cache-workers boot only a frontend against a
	// cluster another batdist already owns — the second replica of a sharded
	// frontend tier (see cmd/batrouter). The attached frontend shares the
	// meta service and KV pool, so either replica can serve any user.
	attach := *attachMeta != ""
	var metaURL string
	if attach {
		if *attachWorkers == "" {
			log.Fatal("batdist: -meta-url requires -cache-workers")
		}
		metaURL = strings.TrimRight(*attachMeta, "/")
	} else {
		meta := distserve.NewMetaServer(300, nil)
		metaURL = fmt.Sprintf("http://127.0.0.1:%d", *basePort+1)
		serve(*basePort+1, meta.Handler(), "cache meta service")
	}

	// With -chaos each worker's public port serves a fault proxy in front of
	// the real worker (listening workers positions further up), so faults can
	// be injected into a live deployment without killing processes.
	var workerURLs []string
	var cacheWorkers []*distserve.CacheWorker
	var proxies []*distserve.FaultProxy
	if attach {
		for _, u := range strings.Split(*attachWorkers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				workerURLs = append(workerURLs, strings.TrimRight(u, "/"))
			}
		}
		if len(workerURLs) == 0 {
			log.Fatal("batdist: -cache-workers lists no URLs")
		}
	}
	for i := 0; !attach && i < *workers; i++ {
		cw, err := distserve.NewCacheWorker(*capacityMB << 20)
		if err != nil {
			log.Fatalf("batdist: %v", err)
		}
		cacheWorkers = append(cacheWorkers, cw)
		handler := cw.Handler()
		if mode == partition.Adaptive {
			// Each worker runs its own capacity partition controller: the
			// user/item byte split starts at -item-budget-fraction and
			// follows measured marginal utility; bat_partition_* gauges
			// appear on the worker's /metrics.
			ctrl, err := distserve.NewWorkerPartition(cw, *itemBudgetFraction, partition.Config{})
			if err != nil {
				log.Fatalf("batdist: worker %d partition: %v", i, err)
			}
			ctrl.Run()
			defer ctrl.Stop()
			handler = distserve.PartitionedWorkerHandler(cw, ctrl)
		}
		port := *basePort + 2 + i
		if *chaos {
			backendPort := port + *workers
			serve(backendPort, handler, fmt.Sprintf("cache worker %d (backend)", i))
			proxy := distserve.NewFaultProxy(fmt.Sprintf("http://127.0.0.1:%d", backendPort))
			proxies = append(proxies, proxy)
			serve(port, proxy.Handler(), fmt.Sprintf("cache worker %d (fault proxy)", i))
		} else {
			serve(port, handler, fmt.Sprintf("cache worker %d", i))
		}
		workerURLs = append(workerURLs, fmt.Sprintf("http://127.0.0.1:%d", port))
	}

	frontend, err := distserve.NewFrontend(distserve.FrontendConfig{
		Dataset:      ds,
		Variant:      ranking.VariantBase,
		MetaURL:      metaURL,
		CacheWorkers: workerURLs,
		Transfer: distserve.TransferConfig{
			Timeout:          *timeout,
			MaxRetries:       *retries,
			BreakerThreshold: *breakerTrip,
			BreakerCooldown:  *breakerCool,
			FetchConcurrency: *fetchConc,
			JitterSeed:       *jitterSeed,
			StoreQueueDepth:  *storeQueue,
			StoreWorkers:     *storeWorkers,
			HedgeQuantile:    *hedgeQuantile,
		},
		Replication:       *replication,
		CloseFlushTimeout: *closeFlushTimeout,
		Admission: admission.Config{
			MaxInFlight:       *maxInFlight,
			MaxQueue:          *queueDepth,
			DefaultDeadline:   *defaultDeadline,
			DegradeQueueDepth: *degradeQueue,
		},
		BatchWindow:  *batchWindow,
		WindowPolicy: *windowPolicy,
		MaxBatch:     *maxBatch,
		TraceRing:    *traceRing,
	})
	if err != nil {
		log.Fatalf("batdist: %v", err)
	}
	// Evictions propagate to the meta service so /v1/locate never reports
	// entries the pool already dropped. Every worker's hook calls meta on the
	// frontend's client (bounded by -transfer-timeout), sharing its warm
	// connections. The hooks go in before the frontend that stores into the
	// workers starts serving.
	for i, cw := range cacheWorkers {
		cw.SetEvictHook(unregisterHook(frontend.Client(), metaURL, i))
	}
	guard := distserve.NewPoolGuard(frontend, distserve.PoolGuardConfig{
		ProbeInterval: *probeInterval,
		RepairHot:     *repairHot,
		ScrubInterval: *scrubInterval,
	})
	guard.Start()
	front := http.NewServeMux()
	front.Handle("/", frontend.Handler())
	if *chaos {
		front.HandleFunc("/chaos", func(rw http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(rw, "POST required", http.StatusMethodNotAllowed)
				return
			}
			var worker int
			if _, err := fmt.Sscanf(r.URL.Query().Get("worker"), "%d", &worker); err != nil ||
				worker < 0 || worker >= len(proxies) {
				http.Error(rw, "bad worker", http.StatusBadRequest)
				return
			}
			delay := 200 * time.Millisecond
			if d, err := time.ParseDuration(r.URL.Query().Get("delay")); err == nil {
				delay = d
			}
			switch r.URL.Query().Get("mode") {
			case "none":
				proxies[worker].SetMode(distserve.FaultNone, 0)
			case "delay":
				proxies[worker].SetMode(distserve.FaultDelay, delay)
			case "error", "kill":
				proxies[worker].SetMode(distserve.FaultError, 0)
			case "drop":
				proxies[worker].SetMode(distserve.FaultDrop, 0)
			default:
				http.Error(rw, "mode must be none|delay|error|kill|drop", http.StatusBadRequest)
				return
			}
			rw.WriteHeader(http.StatusNoContent)
		})
	}
	serve(*basePort, front, "inference frontend")
	fmt.Printf("batdist: overload ladder max-inflight=%d queue=%d deadline=%v; poolguard probing every %v; replication=%d scrub=%v partition=%s\n",
		*maxInFlight, *queueDepth, *defaultDeadline, *probeInterval, *replication, *scrubInterval, mode)

	// Periodically surface the robustness counters so shedding and
	// self-healing are visible without curling /v1/stats.
	go func() {
		for range time.Tick(30 * time.Second) {
			st := frontend.Stats()
			line := fmt.Sprintf("batdist: served=%d degraded=%d shed=%d(queue)+%d(deadline) purges=%d",
				st.Requests, st.DegradedRequests, st.Admission.ShedQueueFull, st.Admission.ShedDeadline, st.WorkerPurges)
			if st.Guard != nil {
				line += fmt.Sprintf(" deaths=%d rejoins=%d repaired=%d", st.Guard.Deaths, st.Guard.Rejoins, st.Guard.Repaired)
			}
			fmt.Println(line)
		}
	}()

	log.Fatal(<-errs)
}

// unregisterHook is one cache worker's eviction hook: it un-registers each
// evicted key's binding from the meta service, reading the reply to EOF so
// the connection goes back to the client's idle pool.
func unregisterHook(client *http.Client, metaURL string, worker int) func(key string) {
	return func(key string) {
		kind, id, err := distserve.ParseCacheKey(key)
		if err != nil {
			return
		}
		body, err := json.Marshal(distserve.RegisterRequest{
			EntryRef: distserve.EntryRef{Kind: kind, ID: id}, Worker: worker,
		})
		if err != nil {
			return
		}
		resp, err := client.Post(metaURL+"/v1/unregister", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
}
