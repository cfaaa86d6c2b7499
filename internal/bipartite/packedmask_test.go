package bipartite

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bat/internal/model"
	"bat/internal/tensor"
)

// exactMask is a mask that advertises exact key ranges, as every packed
// mask does.
type exactMask interface {
	model.Mask
	model.ExactKeyRanger
}

// allowedRuns run-length encodes m.Allowed over the causal keys of q — the
// reference definition of q's visible keys (a query always sees itself).
func allowedRuns(m model.Mask, q int) [][2]int {
	var runs [][2]int
	for k := 0; k <= q; k++ {
		if k != q && !m.Allowed(q, k) {
			continue
		}
		if n := len(runs); n > 0 && runs[n-1][1] == k {
			runs[n-1][1]++
		} else {
			runs = append(runs, [2]int{k, k + 1})
		}
	}
	return runs
}

// exactRuns clamps q's exact ranges to its causal horizon, as the engine's
// lowering does, and coalesces adjacent ones so they compare with
// allowedRuns. Ranges that overlap or descend are an error.
func exactRuns(m model.ExactKeyRanger, q int) ([][2]int, error) {
	var runs [][2]int
	end := 0
	for _, r := range m.ExactKeyRanges(q, nil) {
		if r[0] < end {
			return nil, fmt.Errorf("ranges %v not ascending and disjoint", m.ExactKeyRanges(q, nil))
		}
		end = r[1]
		lo, hi := r[0], min(r[1], q+1)
		if lo >= hi {
			continue
		}
		if n := len(runs); n > 0 && runs[n-1][1] == lo {
			runs[n-1][1] = hi
		} else {
			runs = append(runs, [2]int{lo, hi})
		}
	}
	return runs, nil
}

// checkExactMatchesAllowed fails unless every query in [lo, hi) has exact
// ranges equal to the run-length encoding of the mask's own Allowed.
func checkExactMatchesAllowed(t *testing.T, what string, m exactMask, lo, hi int) {
	t.Helper()
	for q := lo; q < hi; q++ {
		got, err := exactRuns(m, q)
		if err != nil {
			t.Fatalf("%s q=%d: %v", what, q, err)
		}
		if want := allowedRuns(m, q); !slices.Equal(got, want) {
			t.Fatalf("%s q=%d: exact ranges %v, Allowed admits %v", what, q, got, want)
		}
	}
}

// randomPackedBatch builds 1-5 layouts mixing both prefix kinds, single- and
// multi-discriminant forms, empty and non-empty users and unequal item
// lengths.
func randomPackedBatch(rng *rand.Rand) []*Layout {
	ls := make([]*Layout, 1+rng.Intn(5))
	for i := range ls {
		kind := PrefixKind(rng.Intn(2))
		multi := rng.Intn(2) == 1
		instr := 1 + rng.Intn(2)
		if multi {
			instr = 1
		}
		p := testPrompt(rng, rng.Intn(6), 1+rng.Intn(4), 3, instr)
		for j := range p.Items {
			p.Items[j] = p.Items[j][:1+rng.Intn(3)]
		}
		build := Build
		if multi {
			build = BuildMultiDisc
		}
		l, err := build(kind, p)
		if err != nil {
			panic(err)
		}
		ls[i] = l
	}
	return ls
}

// packSuffixes lays a batch out the way ExecuteBatch does — every prefix,
// then every suffix, in item order — and returns the packed suffix tokens,
// positions and batch mask.
func packSuffixes(ls []*Layout) (tokens, pos []int, m batchMask) {
	prefRange, sufRange := make([][2]int, len(ls)), make([][2]int, len(ls))
	masks := make([]layoutMask, len(ls))
	off := 0
	for i, l := range ls {
		prefRange[i] = [2]int{off, off + l.PrefixLen}
		off += l.PrefixLen
		masks[i] = layoutMask{l}
	}
	base := off
	var owner []int32
	for i, l := range ls {
		sufRange[i][0] = off
		for t := l.PrefixLen; t < l.Len(); t++ {
			owner = append(owner, int32(i))
			tokens = append(tokens, l.Tokens[t])
			pos = append(pos, l.Pos[t])
			off++
		}
		sufRange[i][1] = off
	}
	return tokens, pos, newBatchMask(base, owner, masks, prefRange, sufRange)
}

// TestPackedMasksExactMatchAllowed pins the invariant that leaves exact
// ranges the only form a packed forward needs. Over seeded batches mixing
// UP and IP, single- and multi-discriminant layouts, every packed suffix
// query's exact ranges and every packed miss-unit query's exact ranges
// equal the run-length encoding of that mask's own Allowed. Then, on a GQA
// and an HSTU config, each packed forward under its exact mask equals
// ForwardReference under the same mask served through Allowed alone, bit
// for bit.
func TestPackedMasksExactMatchAllowed(t *testing.T) {
	gqa := model.TinyGR(testVocab) // 4 query heads over 2 KV heads
	hstu := model.TinyGR(testVocab)
	hstu.Name, hstu.Attn = "TinyHSTU", model.AttnHSTU
	for _, cfg := range []model.Config{gqa, hstu} {
		w := model.NewWeights(cfg, 42)
		for seed := int64(0); seed < 12; seed++ {
			ls := randomPackedBatch(rand.New(rand.NewSource(seed)))
			what := fmt.Sprintf("%s seed %d", cfg.Name, seed)

			toks, pos, bm := packSuffixes(ls)
			checkExactMatchesAllowed(t, what+" suffix", bm, bm.base, bm.base+len(toks))
			var parts []*model.KVCache
			for _, l := range ls {
				cold, err := Execute(w, l, CacheSet{})
				if err != nil {
					t.Fatal(err)
				}
				if c := cold.NewUserCache; c != nil {
					parts = append(parts, c)
				}
				for _, seg := range l.ItemSegments() {
					if c := cold.NewItemCaches[seg.Item]; c != nil {
						parts = append(parts, c)
					}
				}
			}
			if len(parts) == 0 {
				parts = append(parts, model.NewKVCache(cfg))
			}
			ctx := model.ConcatCachesReserve(len(toks), parts...)
			got := w.Forward(toks, pos, bm, ctx)
			ctx.Release()
			want := w.ForwardReference(toks, pos, model.MaskFunc(bm.Allowed), model.ConcatCaches(parts...).Clone())
			if !sameBits(got.Data, want.Data) {
				t.Fatalf("%s: packed suffix deviates from the Allowed-only reference by %v", what, tensor.MaxAbsDiff(got.Data, want.Data))
			}

			var plan missPlan
			for i, l := range ls {
				if _, err := plan.classifyPrefix(l, CacheSet{}, &Run{Layout: l}, i); err != nil {
					t.Fatal(err)
				}
			}
			if len(plan.units) == 0 {
				continue
			}
			toks, pos, um := plan.pack()
			checkExactMatchesAllowed(t, what+" miss units", um, 0, len(toks))
			got = w.Forward(toks, pos, um, nil)
			want = w.ForwardReference(toks, pos, model.MaskFunc(um.Allowed), nil)
			if !sameBits(got.Data, want.Data) {
				t.Fatalf("%s: packed miss units deviate from the Allowed-only reference by %v", what, tensor.MaxAbsDiff(got.Data, want.Data))
			}
		}
	}
}
