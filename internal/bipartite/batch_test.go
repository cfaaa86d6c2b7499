package bipartite

import (
	"errors"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"

	"bat/internal/model"
	"bat/internal/tensor"
)

// refRun is what a single-discriminant item's run must equal: the
// discriminant row ForwardReference computes over the item's whole layout,
// and the token accounting its cache set implies.
type refRun struct {
	disc             []float32
	reused, computed int
}

// reference derives an item's expected run from the model's reference
// forward, independent of every execute path.
func reference(w *model.Weights, it BatchItem) refRun {
	l := it.Layout
	all := w.ForwardReference(l.Tokens, l.Pos, l.Mask(), nil)
	reused := 0
	switch l.Kind {
	case UserPrefix:
		if it.Caches.User != nil {
			reused = l.PrefixLen
		}
	case ItemPrefix:
		for _, seg := range l.ItemSegments() {
			if it.Caches.Items[seg.Item] != nil {
				reused += seg.Len
			}
		}
	}
	return refRun{disc: all.Row(l.Len() - 1), reused: reused, computed: l.Len() - reused}
}

// randomBatchItem builds one request with a random prompt shape, prefix kind,
// and cache mix (cold / fully warm / partially warm), returning the item and
// its reference run.
func randomBatchItem(w *model.Weights, rng *rand.Rand) (BatchItem, refRun, error) {
	p := randomPrompt(rng.Int63())
	kind := UserPrefix
	if rng.Intn(2) == 1 {
		kind = ItemPrefix
	}
	l, err := Build(kind, p)
	if err != nil {
		return BatchItem{}, refRun{}, err
	}
	cold, err := Execute(w, l, CacheSet{}) // mints the caches the warm mixes reuse
	if err != nil {
		return BatchItem{}, refRun{}, err
	}
	var caches CacheSet
	switch rng.Intn(3) {
	case 1: // fully warm
		caches = CacheSet{User: cold.NewUserCache, Items: cold.NewItemCaches}
	case 2: // partial: keep a random subset of item caches
		if kind == ItemPrefix && len(cold.NewItemCaches) > 0 {
			caches.Items = make(map[int]*model.KVCache)
			for k, c := range cold.NewItemCaches {
				if rng.Intn(2) == 0 {
					caches.Items[k] = c
				}
			}
		}
	}
	it := BatchItem{Layout: l, Caches: caches}
	return it, reference(w, it), nil
}

// TestPropertyExecuteBatchBitIdentical: for arbitrary mixes of prompt
// shapes, prefix kinds, and cache hit patterns, packing the requests into one
// batched forward produces discriminants bit-identical (MaxAbsDiff == 0) to
// the reference forward over each request's whole layout, and the
// reused/computed token accounting its cache set implies.
func TestPropertyExecuteBatchBitIdentical(t *testing.T) {
	w := testWeights()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		items := make([]BatchItem, n)
		refs := make([]refRun, n)
		for i := 0; i < n; i++ {
			it, ref, err := randomBatchItem(w, rng)
			if err != nil {
				return false
			}
			items[i], refs[i] = it, ref
		}
		runs, err := ExecuteBatch(w, items)
		if err != nil {
			return false
		}
		for i := range runs {
			if tensor.MaxAbsDiff(runs[i].Hidden.Data, refs[i].disc) != 0 {
				return false
			}
			if runs[i].ReusedTokens != refs[i].reused ||
				runs[i].ComputedTokens != refs[i].computed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestExecuteBatchAnySplit: the same request stream produces the reference
// discriminants no matter how it is split into batches — all-in-one, pairs,
// or one request per batch. This is the property that makes the serving
// core's window/size-driven batch formation semantically invisible.
func TestExecuteBatchAnySplit(t *testing.T) {
	w := testWeights()
	rng := rand.New(rand.NewSource(99))
	const n = 6
	items := make([]BatchItem, n)
	refs := make([]refRun, n)
	for i := 0; i < n; i++ {
		it, ref, err := randomBatchItem(w, rng)
		if err != nil {
			t.Fatal(err)
		}
		items[i], refs[i] = it, ref
	}
	for _, split := range [][]int{{6}, {3, 3}, {2, 2, 2}, {1, 1, 1, 1, 1, 1}, {4, 2}, {1, 5}} {
		at := 0
		for _, size := range split {
			runs, err := ExecuteBatch(w, items[at:at+size])
			if err != nil {
				t.Fatalf("split %v: %v", split, err)
			}
			for j, run := range runs {
				i := at + j
				if d := tensor.MaxAbsDiff(run.Hidden.Data, refs[i].disc); d != 0 {
					t.Fatalf("split %v request %d deviates by %v", split, i, d)
				}
			}
			at += size
		}
	}
}

// TestExecuteBatchHSTU: the bit-exactness property holds under HSTU-style
// attention too — the per-query visible count excludes cross-request keys,
// so batching does not change the normalization.
func TestExecuteBatchHSTU(t *testing.T) {
	cfg := model.TinyGR(testVocab)
	cfg.Name = "TinyHSTU"
	cfg.Attn = model.AttnHSTU
	w := model.NewWeights(cfg, 42)
	rng := rand.New(rand.NewSource(7))
	const n = 4
	items := make([]BatchItem, n)
	refs := make([]refRun, n)
	for i := 0; i < n; i++ {
		it, ref, err := randomBatchItem(w, rng)
		if err != nil {
			t.Fatal(err)
		}
		items[i], refs[i] = it, ref
	}
	runs, err := ExecuteBatch(w, items)
	if err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if d := tensor.MaxAbsDiff(runs[i].Hidden.Data, refs[i].disc); d != 0 {
			t.Fatalf("HSTU batched request %d deviates by %v", i, d)
		}
	}
}

// TestExecuteBatchCancelOne: canceling one request mid-batch errors that
// request only; the survivors' results stay bit-identical to the reference.
func TestExecuteBatchCancelOne(t *testing.T) {
	w := testWeights()
	rng := rand.New(rand.NewSource(11))
	const n = 3
	items := make([]BatchItem, n)
	refs := make([]refRun, n)
	for i := 0; i < n; i++ {
		it, ref, err := randomBatchItem(w, rng)
		if err != nil {
			t.Fatal(err)
		}
		items[i], refs[i] = it, ref
	}
	wantErr := errors.New("deadline exceeded")
	cancels := make([]func() error, n)
	cancels[1] = func() error { return wantErr }
	runs, errs := ExecuteBatchCancelable(w, items, cancels)
	if !errors.Is(errs[1], wantErr) || runs[1] != nil {
		t.Fatalf("canceled request: run=%v err=%v", runs[1], errs[1])
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Fatalf("survivor %d errored: %v", i, errs[i])
		}
		if d := tensor.MaxAbsDiff(runs[i].Hidden.Data, refs[i].disc); d != 0 {
			t.Fatalf("survivor %d deviates by %v after mid-batch cancel", i, d)
		}
	}
}

// TestExecuteBatchDedupIdenticalMisses: N in-batch requests missing the SAME
// prefix trigger exactly one recompute — the first slot pays for the forward,
// the other N-1 receive bit-identical clones and account the saved work as
// DedupedTokens. Results stay bit-identical to the reference, and every slot
// still owns a DISTINCT cache object so downstream pools can admit/evict each
// admission independently. Covers both planes' layouts (user-prefix and
// item-prefix misses).
func TestExecuteBatchDedupIdenticalMisses(t *testing.T) {
	w := testWeights()
	for _, kind := range []PrefixKind{UserPrefix, ItemPrefix} {
		t.Run(kind.String(), func(t *testing.T) {
			p := randomPrompt(123)
			l, err := Build(kind, p)
			if err != nil {
				t.Fatal(err)
			}
			ref := reference(w, BatchItem{Layout: l})
			const n = 4
			items := make([]BatchItem, n)
			for i := range items {
				items[i] = BatchItem{Layout: l} // no caches: every slot misses
			}
			runs, err := ExecuteBatch(w, items)
			if err != nil {
				t.Fatal(err)
			}
			var deduped int
			for i, run := range runs {
				if d := tensor.MaxAbsDiff(run.Hidden.Data, ref.disc); d != 0 {
					t.Fatalf("slot %d deviates from the reference by %v", i, d)
				}
				if run.ComputedTokens != ref.computed {
					t.Fatalf("slot %d computed %d tokens, want %d", i, run.ComputedTokens, ref.computed)
				}
				deduped += run.DedupedTokens
			}
			if want := (n - 1) * l.PrefixLen; deduped != want {
				t.Fatalf("batch deduped %d tokens, want %d — identical misses must collapse to one recompute", deduped, want)
			}
			// Distinct cache objects per slot: mutating one must not alias another.
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if kind == UserPrefix {
						if runs[i].NewUserCache == runs[j].NewUserCache {
							t.Fatalf("slots %d and %d share one user cache object", i, j)
						}
					} else {
						for slot, ci := range runs[i].NewItemCaches {
							if cj := runs[j].NewItemCaches[slot]; ci == cj {
								t.Fatalf("slots %d and %d share item cache %d", i, j, slot)
							}
						}
					}
				}
			}
		})
	}
}

// TestExecuteBatchEmptyAndNil: degenerate shapes don't panic.
func TestExecuteBatchEmptyAndNil(t *testing.T) {
	w := testWeights()
	if runs, err := ExecuteBatch(w, nil); err != nil || len(runs) != 0 {
		t.Fatalf("empty batch: runs=%v err=%v", runs, err)
	}
}

// TestExecuteBatchHitAssemblesContextOnce bounds what a user-prefix hit
// allocates by twice its attention context (cached prefix + suffix). A
// context once cost three times that: the prefix was copied at exact
// capacity, and the packed forward's reserve then doubled and copied it
// again. The context is now a view that copies nothing, and
// TestExecuteBatchHitBytesFlatInPrefix holds it there.
func TestExecuteBatchHitAssemblesContextOnce(t *testing.T) {
	w := testWeights()
	l, err := Build(UserPrefix, testPrompt(rand.New(rand.NewSource(5)), 512, 2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Execute(w, l, CacheSet{})
	if err != nil {
		t.Fatal(err)
	}
	items := []BatchItem{{Layout: l, Caches: CacheSet{User: cold.NewUserCache}}}

	gc := debug.SetGCPercent(-1) // TotalAlloc is cumulative, but keep the run undisturbed
	defer debug.SetGCPercent(gc)
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ExecuteBatch(w, items); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	cfg := w.Config()
	context := uint64(l.Len() * 2 * cfg.KVHeads * cfg.HeadDim * 4 * cfg.Layers) // K and V, float32
	t.Logf("one hit-path ExecuteBatch allocates %d bytes; its context holds %d", perRun, context)
	if perRun > 2*context {
		t.Errorf("one hit-path ExecuteBatch allocated %d bytes, over twice its %d-byte context: the context is being copied more than once", perRun, context)
	}
}

// TestExecuteBatchHitBytesFlatInPrefix is the copy-free context's gate: a
// user-prefix hit reads its cached prefix in place, so one hit-path
// ExecuteBatch allocates the same bytes, within a small constant, whether the
// prefix holds 128 or 384 tokens. A context that copied the prefix would
// allocate 256 tokens' K/V (64 KB here) more at 384.
func TestExecuteBatchHitBytesFlatInPrefix(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomly drops sync.Pool buffers; byte counts are not meaningful")
	}
	tensor.SetParallelism(2) // the 384-token attention fans out; the 128-token one runs inline
	defer tensor.SetParallelism(0)
	gc := debug.SetGCPercent(-1) // a collection would empty the pools mid-measure
	defer debug.SetGCPercent(gc)
	w := testWeights()
	bytesAt := func(prefix int) uint64 {
		l, err := Build(UserPrefix, testPrompt(rand.New(rand.NewSource(5)), prefix, 2, 2, 2))
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Execute(w, l, CacheSet{})
		if err != nil {
			t.Fatal(err)
		}
		items := []BatchItem{{Layout: l, Caches: CacheSet{User: cold.NewUserCache}}}
		if _, err := ExecuteBatch(w, items); err != nil { // size the pools
			t.Fatal(err)
		}
		const runs = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := ExecuteBatch(w, items); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	short, long := bytesAt(128), bytesAt(384)
	t.Logf("one hit-path ExecuteBatch allocates %d bytes over a 128-token prefix, %d over 384", short, long)
	if long > short+512 || short > long+512 {
		t.Errorf("a hit allocates %d bytes over a 128-token prefix but %d over 384: something on the hit path grows with the cached prefix", short, long)
	}
}

// TestMissKeysExact pins the dedup keys' contract: equal content gives equal
// keys, and a change of one token or one position gives a different key.
func TestMissKeysExact(t *testing.T) {
	p := testPrompt(rand.New(rand.NewSource(3)), 6, 2, 3, 1)
	build := func(p Prompt) *Layout {
		l, err := Build(UserPrefix, p)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	key := userMissKey(build(p))
	if userMissKey(build(p)) != key {
		t.Fatal("equal user prefixes got different keys")
	}
	q := p
	q.User = append([]int(nil), p.User...)
	q.User[4]++
	if userMissKey(build(q)) == key {
		t.Fatal("user prefixes one token apart share a key")
	}
	moved := build(p)
	moved.Pos[2]++
	if userMissKey(moved) == key {
		t.Fatal("user prefixes one position apart share a key")
	}

	toks := []int{5, 300, 7}
	key = itemMissKey(0, toks)
	if itemMissKey(0, []int{5, 300, 7}) != key {
		t.Fatal("equal items got different keys")
	}
	if itemMissKey(0, []int{5, 301, 7}) == key {
		t.Fatal("items one token apart share a key")
	}
	if itemMissKey(1, toks) == key {
		t.Fatal("items anchored one position apart share a key")
	}
	if itemMissKey(0, []int{1, 23}) == itemMissKey(0, []int{12, 3}) {
		t.Fatal("keys are not fixed-width: two token splits share a key")
	}
}
