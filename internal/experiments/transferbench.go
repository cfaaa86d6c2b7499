package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"bat/internal/distserve"
	"bat/internal/model"
)

// TransferBenchResult records the KV transfer engine's measured performance
// on this machine — the BENCH_transfer.json artifact. Codec numbers compare
// the BKV2 bulk byte-block paths against the portable scalar fallback on the
// same payload; fetch numbers time real HTTP round trips against a cache
// worker with the streaming frame decoder.
type TransferBenchResult struct {
	Model        string `json:"model"`
	Tokens       int    `json:"tokens"`
	PayloadBytes int    `json:"payload_bytes"`

	// Codec throughput, MB/s (1e6 bytes) over the encoded payload.
	MarshalMBps       float64 `json:"marshal_mb_s"`
	UnmarshalMBps     float64 `json:"unmarshal_mb_s"`
	ScalarMarshalMBps float64 `json:"scalar_marshal_mb_s"`
	ScalarUnmarshMBps float64 `json:"scalar_unmarshal_mb_s"`
	StreamDecodeMBps  float64 `json:"stream_decode_mb_s"`
	// BulkUnmarshalSpeedup is the ratio the CI gate pins (>=5x on
	// little-endian hosts).
	BulkUnmarshalSpeedup float64 `json:"bulk_unmarshal_speedup"`

	// Streaming fetch over real HTTP: decode overlaps receive.
	Fetches       int     `json:"fetches"`
	BytesPerFetch int     `json:"bytes_per_fetch"`
	FetchP50Ms    float64 `json:"fetch_p50_ms"`
	FetchP99Ms    float64 `json:"fetch_p99_ms"`
	FetchMBps     float64 `json:"fetch_mb_s"`
}

// transferBenchCache builds a tokens-long cache of real forward-pass rows.
func transferBenchCache(cfg model.Config, tokens int, seed int64) (*model.KVCache, error) {
	c := model.NewKVCache(cfg)
	w := model.NewWeights(cfg, seed)
	rng := rand.New(rand.NewSource(seed))
	toks := make([]int, tokens)
	pos := make([]int, tokens)
	for i := range toks {
		toks[i] = rng.Intn(cfg.Vocab)
		pos[i] = i
	}
	w.Forward(toks, pos, nil, c)
	return c, nil
}

// mbps converts a best-of per-op duration over size bytes to MB/s.
func mbps(size int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(size) / 1e6 / d.Seconds()
}

// bestOf runs fn reps times, iters iterations per rep, returning the fastest
// per-iteration duration (max throughput ≈ least interference).
func bestOf(reps, iters int, fn func() error) (time.Duration, error) {
	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		d := time.Since(start) / time.Duration(iters)
		if r == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// RunTransferBench measures the transfer engine end to end: codec MB/s (bulk
// and forced-scalar), streaming fetch latency against a real cache-worker
// HTTP server.
func RunTransferBench(opts Options) (*TransferBenchResult, error) {
	opts = opts.withDefaults()
	// BenchGR at 256 tokens is ~1MB — cache-resident like the per-layer
	// frames the streaming path decodes, so the codec columns compare codecs
	// rather than DRAM bandwidth (mirrors the model package's gate bench).
	cfg := model.BenchGR(64)
	tokens, fetches, reps, iters := 256, 200, 5, 10
	if opts.Quick {
		tokens, fetches, reps, iters = 64, 20, 2, 2
	}
	c, err := transferBenchCache(cfg, tokens, opts.Seed)
	if err != nil {
		return nil, err
	}
	data, err := c.MarshalBinary()
	if err != nil {
		return nil, err
	}
	res := &TransferBenchResult{
		Model: cfg.Name, Tokens: tokens, PayloadBytes: len(data),
		Fetches: fetches, BytesPerFetch: len(data),
	}

	out := model.NewKVCache(cfg)
	marshal, err := bestOf(reps, iters, func() error { _, err := c.MarshalBinary(); return err })
	if err != nil {
		return nil, err
	}
	unmarshal, err := bestOf(reps, iters, func() error { return out.UnmarshalBinary(data) })
	if err != nil {
		return nil, err
	}
	stream, err := bestOf(reps, iters, func() error {
		_, err := out.ReadFrom(bytes.NewReader(data))
		return err
	})
	if err != nil {
		return nil, err
	}
	prev := model.ForceScalarCodec(true)
	scalarMarshal, err := bestOf(reps, iters, func() error { _, err := c.MarshalBinary(); return err })
	if err == nil {
		var d time.Duration
		d, err = bestOf(reps, iters, func() error { return out.UnmarshalBinary(data) })
		if err == nil {
			res.ScalarUnmarshMBps = mbps(len(data), d)
			if unmarshal > 0 {
				res.BulkUnmarshalSpeedup = float64(d) / float64(unmarshal)
			}
		}
	}
	model.ForceScalarCodec(prev)
	if err != nil {
		return nil, err
	}
	res.MarshalMBps = mbps(len(data), marshal)
	res.UnmarshalMBps = mbps(len(data), unmarshal)
	res.StreamDecodeMBps = mbps(len(data), stream)
	res.ScalarMarshalMBps = mbps(len(data), scalarMarshal)

	// Streaming fetch against a real worker over HTTP: GET + frame-decode
	// straight off the response body, the frontend's receive-overlap path.
	cw, err := distserve.NewCacheWorker(int64(4 * len(data)))
	if err != nil {
		return nil, err
	}
	if err := cw.Put("item/1", data); err != nil {
		return nil, err
	}
	srv := httptest.NewServer(cw.Handler())
	defer srv.Close()
	lat := make([]time.Duration, 0, fetches)
	for i := 0; i < fetches; i++ {
		start := time.Now()
		resp, err := http.Get(srv.URL + "/kv/item/1")
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("transferbench: fetch status %d", resp.StatusCode)
		}
		if _, err := out.ReadFrom(resp.Body); err != nil {
			resp.Body.Close()
			return nil, err
		}
		resp.Body.Close()
		lat = append(lat, time.Since(start))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.FetchP50Ms = lat[len(lat)/2].Seconds() * 1e3
	res.FetchP99Ms = lat[len(lat)*99/100].Seconds() * 1e3
	res.FetchMBps = mbps(len(data), lat[len(lat)/2])

	return res, nil
}

// TransferBench is the "transferbench" artifact.
func TransferBench(opts Options) (*Table, error) {
	res, err := RunTransferBench(opts)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}

// Table renders an already-measured result as the "transferbench" artifact.
func (res *TransferBenchResult) Table() *Table {
	t := &Table{
		ID:     "transferbench",
		Title:  fmt.Sprintf("KV transfer engine (%s, %d tokens, %d-byte payload)", res.Model, res.Tokens, res.PayloadBytes),
		Header: []string{"metric", "bulk", "scalar", "ratio"},
	}
	t.AddRow("marshal MB/s", f1(res.MarshalMBps), f1(res.ScalarMarshalMBps),
		f2(ratioOf(res.MarshalMBps, res.ScalarMarshalMBps))+"x")
	t.AddRow("unmarshal MB/s", f1(res.UnmarshalMBps), f1(res.ScalarUnmarshMBps),
		f2(res.BulkUnmarshalSpeedup)+"x")
	t.AddRow("stream decode MB/s", f1(res.StreamDecodeMBps), "-", "-")
	t.AddRow("fetch p50 / p99 ms", f2(res.FetchP50Ms), f2(res.FetchP99Ms), f1(res.FetchMBps)+" MB/s")
	t.Notes = append(t.Notes,
		"bulk = BKV2 byte-block codec, scalar = portable per-float fallback",
		fmt.Sprintf("fetch = %d streamed HTTP GETs against a live cache worker, decode overlapping receive", res.Fetches))
	return t
}

func ratioOf(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// WriteTransferBenchJSON writes the result where the acceptance trajectory
// expects it (BENCH_transfer.json at the repo root).
func WriteTransferBenchJSON(path string, res *TransferBenchResult) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
