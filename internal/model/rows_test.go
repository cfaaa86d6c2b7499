package model

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"bat/internal/tensor"
)

// TestForwardRowsBitExact pins the row-pruned forward: for every config in
// the engine matrix plus the served one-layer shape, every lowered mask form,
// and a cached prefix held contiguously or as a view of 3- or 4-token parts,
// ForwardRows over that prefix returns exactly Forward's and
// ForwardReference's rows for the rows asked for — none (nil or empty), the
// last, a scattered list with a repeat, and all — and leaves a cache whose
// bytes equal the one Forward leaves.
func TestForwardRowsBitExact(t *testing.T) {
	const n, split = 32, 11
	segmented := func(q, k int) bool {
		if q < 24 {
			return q/8 == k/8
		}
		return true
	}
	every := make([]int, n-split)
	for i := range every {
		every[i] = i
	}
	rowSets := map[string][]int{
		"nil":       nil,
		"empty":     {},
		"last":      {n - split - 1},
		"scattered": {17, 0, 9, 9, 20},
		"all":       every,
	}
	for _, cfg := range append(engineConfigs(), servedGR(128)) {
		w := NewWeights(cfg, 17)
		rng := rand.New(rand.NewSource(99))
		toks, pos := randTokens(rng, n, cfg.Vocab), seqPos(n)
		masks := maskForms(segmented)
		masks["causal"] = nil
		for form, mask := range masks {
			want := w.ForwardReference(toks, pos, mask, NewKVCache(cfg))
			fullCache := NewKVCache(cfg)
			w.Forward(toks[:split], pos[:split], mask, fullCache)
			full := w.Forward(toks[split:], pos[split:], mask, fullCache)
			wantBytes := marshalCache(t, fullCache)
			for _, part := range []int{0, 3, 4} {
				for set, rows := range rowSets {
					name := fmt.Sprintf("%s %s part=%d rows=%s", cfg.Name, form, part, set)
					cache := NewKVCache(cfg)
					w.Forward(toks[:split], pos[:split], mask, cache)
					if part > 0 {
						cache = partedContext(cache, part, n-split)
					}
					got := w.ForwardRows(toks[split:], pos[split:], mask, cache, rows)
					if got.Rows != len(rows) || got.Cols != cfg.Hidden {
						t.Fatalf("%s: got %dx%d, want %dx%d", name, got.Rows, got.Cols, len(rows), cfg.Hidden)
					}
					for j, r := range rows {
						if !sameBits(got.Row(j), full.Row(r)) {
							t.Fatalf("%s: row %d deviates from Forward by %v", name, r, tensor.MaxAbsDiff(got.Row(j), full.Row(r)))
						}
						if !sameBits(got.Row(j), want.Row(split+r)) {
							t.Fatalf("%s: row %d deviates from reference by %v", name, r, tensor.MaxAbsDiff(got.Row(j), want.Row(split+r)))
						}
					}
					if !bytes.Equal(marshalCache(t, cache), wantBytes) {
						t.Fatalf("%s: cache bytes differ from Forward's", name)
					}
					cache.Release()
				}
			}
		}
	}
}

// TestForwardRowsRejectsOutOfRange pins the row contract: a row outside the
// new tokens is a caller bug, not an empty read.
func TestForwardRowsRejectsOutOfRange(t *testing.T) {
	w := tinyWeights(t, 64)
	for _, rows := range [][]int{{-1}, {3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rows %v over 3 tokens: no panic", rows)
				}
			}()
			w.ForwardRows([]int{1, 2, 3}, seqPos(3), nil, nil, rows)
		}()
	}
}

func marshalCache(t *testing.T, c *KVCache) []byte {
	t.Helper()
	data, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// BenchmarkForwardKVOnly is BenchmarkPrefill asking for no output rows — a
// prefix recompute, which keeps only the K/V it leaves in the cache — on the
// served one-layer shape and on BenchGR.
func BenchmarkForwardKVOnly(b *testing.B) {
	benchForwardRows(b, func(int) []int { return nil })
}

// BenchmarkForwardAllRows is BenchmarkForwardKVOnly's full-row counterpart.
func BenchmarkForwardAllRows(b *testing.B) {
	benchForwardRows(b, func(n int) []int {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		return rows
	})
}

func benchForwardRows(b *testing.B, rowsFor func(n int) []int) {
	const n = 256
	for _, cfg := range []Config{servedGR(1024), BenchGR(1024)} {
		b.Run(cfg.Name, func(b *testing.B) {
			w := NewWeights(cfg, 1)
			rng := rand.New(rand.NewSource(1))
			toks, pos := randTokens(rng, n, cfg.Vocab), seqPos(n)
			rows := rowsFor(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.ForwardRows(toks, pos, nil, NewKVCache(cfg), rows)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tokens/sec")
		})
	}
}
