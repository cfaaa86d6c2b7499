// Command batserve runs the BAT ranking service over a synthetic
// recommendation corpus: a real HTTP API backed by the executable GR model,
// bipartite attention, and an in-process user/item KV cache.
//
// Usage:
//
//	batserve -addr :8080 -items 600 -users 200 -precompute
//
// Then:
//
//	curl -s localhost:8080/v1/rank -d '{"user_id":3,"candidate_ids":[1,2,3,4,5,6,7,8,9,10,11,12]}'
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/metrics       # per-stage latency histograms (text)
//	curl -s localhost:8080/debug/trace   # last-N request traces (JSON)
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"bat/internal/ranking"
	"bat/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	items := flag.Int("items", 600, "item corpus size")
	users := flag.Int("users", 200, "user population")
	seed := flag.Int64("seed", 1, "dataset seed")
	precompute := flag.Bool("precompute", true, "precompute every item KV cache at startup")
	posSensitive := flag.Bool("abs-pos", false, "serve the position-sensitive model variant")
	multiDisc := flag.Bool("multi-disc", false, "serve with one discriminant token per candidate")
	batchWindow := flag.Duration("batch-window", 2*time.Millisecond, "how long the first queued request waits for batchmates (negative = drain-only)")
	maxBatch := flag.Int("max-batch", 8, "most requests packed into one bipartite execution (1 = serialized)")
	windowPolicy := flag.String("window-policy", "adaptive", "batch-window policy: adaptive (close early when arrivals lull) or fixed (always wait out batch-window)")
	traceRing := flag.Int("trace-ring", 128, "request traces retained for GET /debug/trace")
	partitionMode := flag.String("partition", "static", "user/item cache capacity split: static (fixed caps) or adaptive (marginal-utility controller)")
	maxUserCaches := flag.Int("max-user-caches", 0, "user-cache entry cap (0 = default 256)")
	maxItemCaches := flag.Int("max-item-caches", 0, "item-cache entry cap (0 = unbounded; adaptive defaults to 4096)")
	flag.Parse()

	ds, err := ranking.NewDataset(ranking.DatasetConfig{
		Name: "serve", Items: *items, Users: *users, Clusters: 8, LatentDim: 8,
		HistoryMin: 8, HistoryMax: 40, ItemAttrTokens: 2,
		ClusterNoise: 0.15, Candidates: 100, HardNegatives: 8, Seed: *seed,
	})
	if err != nil {
		log.Fatalf("batserve: %v", err)
	}
	variant := ranking.VariantBase
	if *posSensitive {
		variant = ranking.VariantAbsPos
	}
	srv, err := server.New(server.Config{
		Dataset:         ds,
		Variant:         variant,
		PrecomputeItems: *precompute,
		MultiDisc:       *multiDisc,
		BatchWindow:     *batchWindow,
		WindowPolicy:    *windowPolicy,
		MaxBatch:        *maxBatch,
		TraceRing:       *traceRing,
		Partition:       *partitionMode,
		MaxUserCaches:   *maxUserCaches,
		MaxItemCaches:   *maxItemCaches,
	})
	if err != nil {
		log.Fatalf("batserve: %v", err)
	}
	fmt.Printf("batserve: %d items, %d users, model %s, partition %s, listening on %s\n",
		*items, *users, variant.Name, *partitionMode, *addr)
	log.Fatal(http.ListenAndServe(*addr, srv.Handler()))
}
