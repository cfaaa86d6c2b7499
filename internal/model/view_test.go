package model

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"bat/internal/tensor"
)

// copiedContext is the context ConcatCaches assembled before views: every
// input's K/V copied, in order, into one contiguous cache.
func copiedContext(cfg Config, inputs []*KVCache) *KVCache {
	out := NewKVCache(cfg)
	fs := out.store.(*flatStore)
	for _, in := range inputs {
		for l := range fs.k {
			k, v := in.store.layerData(l, in.n)
			fs.k[l] = append(fs.k[l], k...)
			fs.v[l] = append(fs.v[l], v...)
		}
		out.n += in.n
	}
	return out
}

// viewInputs builds the context shapes the executors assemble: one user
// prefix; nine item prefixes with an empty cache among them; and views, with
// tokens in their tails, as inputs on their own and between contiguous
// caches, which a context splices in as their parts plus their tails.
func viewInputs(t *testing.T, w *Weights, rng *rand.Rand) map[string][]*KVCache {
	t.Helper()
	cfg := w.Config()
	fill := func(c *KVCache, n int) *KVCache {
		w.ForwardRows(randTokens(rng, n, cfg.Vocab), seqPos(c.Len() + n)[c.Len():], nil, c, nil)
		return c
	}
	flat := func(n int) *KVCache { return fill(NewKVCache(cfg), n) }
	view := func(tail int, in ...*KVCache) *KVCache { return fill(ConcatCachesReserve(tail, in...), tail) }
	items := []*KVCache{flat(3), flat(1), flat(5), flat(2), NewKVCache(cfg)}
	for i := 0; i < 5; i++ {
		items = append(items, flat(1+i))
	}
	return map[string][]*KVCache{
		"user":  {flat(40)},
		"items": items,
		"views": {view(2, flat(8), flat(6)), view(3, flat(4)), view(0, flat(2))},
		"mixed": {flat(5), view(3, flat(7), NewKVCache(cfg)), flat(3)},
	}
}

func totalLen(caches []*KVCache) int {
	n := 0
	for _, c := range caches {
		n += c.Len()
	}
	return n
}

// TestConcatViewMatchesCopiedContext pins the copy-free context. A suffix
// forward over ConcatCachesReserve's result (a view of contiguous inputs, or
// of views' parts and tails) returns the bits a forward over a copied
// context returns, for no rows, the last row and every row, and
// leaves the same K/V behind. The inputs' bytes never change, and after
// Release they serve the next context identically.
func TestConcatViewMatchesCopiedContext(t *testing.T) {
	w := tinyWeights(t, 128)
	cfg := w.Config()
	rng := rand.New(rand.NewSource(41))
	const n = 6
	for name, inputs := range viewInputs(t, w, rng) {
		before := make([][]byte, len(inputs))
		for i, in := range inputs {
			before[i] = marshalCache(t, in)
		}
		base := totalLen(inputs)
		toks, pos := randTokens(rng, n, cfg.Vocab), seqPos(base + n)[base:]
		for _, rows := range [][]int{nil, {n - 1}, {0, 1, 2, 3, 4, 5}} {
			ref := copiedContext(cfg, inputs)
			want := w.ForwardRows(toks, pos, nil, ref, rows)
			wantBytes := marshalCache(t, ref)
			for pass := 0; pass < 2; pass++ {
				what := fmt.Sprintf("%s rows=%v pass %d", name, rows, pass)
				ctx := ConcatCachesReserve(n, inputs...)
				if _, isView := ctx.store.(*viewStore); !isView {
					t.Fatalf("%s: context is a %T", what, ctx.store)
				}
				got := w.ForwardRows(toks, pos, nil, ctx, rows)
				if !sameBits(got.Data, want.Data) {
					t.Fatalf("%s: hidden states deviate from the copied context's", what)
				}
				if !bytes.Equal(marshalCache(t, ctx), wantBytes) {
					t.Fatalf("%s: context bytes differ from the copied context's", what)
				}
				ctx.Release()
				for i, in := range inputs {
					if !bytes.Equal(marshalCache(t, in), before[i]) {
						t.Fatalf("%s: input %d changed", what, i)
					}
				}
			}
		}
	}
}

// TestViewStoreMethods runs every kvStore operation on a view beside the
// same operation on a copied context; both must hold the same bytes after
// each.
func TestViewStoreMethods(t *testing.T) {
	w := tinyWeights(t, 128)
	cfg := w.Config()
	rng := rand.New(rand.NewSource(43))
	inputs := viewInputs(t, w, rng)["items"]
	base := totalLen(inputs)
	toks := randTokens(rng, 5, cfg.Vocab)
	build := func() (view, cp *KVCache) {
		view, cp = ConcatCaches(inputs...), copiedContext(cfg, inputs)
		w.Forward(toks, seqPos(base + 5)[base:], nil, view)
		w.Forward(toks, seqPos(base + 5)[base:], nil, cp)
		return view, cp
	}
	same := func(what string, a, b *KVCache) {
		t.Helper()
		if !bytes.Equal(marshalCache(t, a), marshalCache(t, b)) {
			t.Fatalf("%s: view and copy hold different bytes", what)
		}
	}

	// Truncate inside the tail, at the inputs' end and below it, then extend
	// again.
	for _, keep := range []int{base + 2, base, base - 1, 3, 0} {
		view, cp := build()
		view.Truncate(keep)
		cp.Truncate(keep)
		same(fmt.Sprintf("truncate to %d", keep), view, cp)
		hv := w.Forward(toks, seqPos(keep + 5)[keep:], nil, view)
		hc := w.Forward(toks, seqPos(keep + 5)[keep:], nil, cp)
		if !sameBits(hv.Data, hc.Data) {
			t.Fatalf("truncate to %d: a suffix over the view deviates", keep)
		}
		same(fmt.Sprintf("truncate to %d and extend", keep), view, cp)
		view.Release()
	}

	view, cp := build()
	clone := view.Clone()
	if _, ok := clone.store.(*flatStore); !ok {
		t.Fatalf("a view's clone is a %T, want contiguous storage", clone.store)
	}
	same("clone", clone, cp)
	w.Forward(toks[:1], []int{base + 5}, nil, clone)
	same("view after its clone grew", view, cp)

	same("CopyRange", view.CopyRange(2, base+3), cp.CopyRange(2, base+3))
	same("ConcatCaches over a view", ConcatCaches(view, inputs[2]), ConcatCaches(cp, inputs[2]))

	if err := view.UnmarshalBinary(marshalCache(t, cp)); err != nil {
		t.Fatal(err)
	}
	same("decode into a view", view, cp)

	again := ConcatCaches(inputs...)
	again.Release()
	again.Release() // a second Release is a no-op
}

// TestForwardPoolsShared runs ForwardRows from 8 goroutines at once, each
// with its own token count and row set, over views of the same cached
// inputs, so the scratch and tail pools hand buffers between calls of
// different sizes. Every call must return the bits its serial run returned.
// Under -race this is the pools' data-race gate.
func TestForwardPoolsShared(t *testing.T) {
	tensor.SetParallelism(4)
	defer tensor.SetParallelism(0)
	w := tinyWeights(t, 128)
	cfg := w.Config()
	rng := rand.New(rand.NewSource(47))
	inputs := viewInputs(t, w, rng)["items"]
	base := totalLen(inputs)
	const workers = 8
	toks := make([][]int, workers)
	run := func(g int) *tensor.Matrix {
		n := len(toks[g])
		var rows []int // every row for even g, the last for odd
		for r := 0; r < n; r++ {
			if g%2 == 0 || r == n-1 {
				rows = append(rows, r)
			}
		}
		ctx := ConcatCachesReserve(n, inputs...)
		defer ctx.Release()
		return w.ForwardRows(toks[g], seqPos(base + n)[base:], nil, ctx, rows)
	}
	want := make([]*tensor.Matrix, workers)
	for g := range toks {
		toks[g] = randTokens(rng, 1+9*g, cfg.Vocab)
		want[g] = run(g)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := run(g); !sameBits(got.Data, want[g].Data) {
					errs <- fmt.Errorf("goroutine %d (%d tokens), call %d: deviates from its serial run", g, len(toks[g]), i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
