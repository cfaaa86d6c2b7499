package bipartite

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bat/internal/model"
	"bat/internal/tensor"
)

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func cacheBytes(t *testing.T, c *model.KVCache) []byte {
	t.Helper()
	data, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// readoutCase is one layout of the readout matrix with the caches to serve
// it from.
type readoutCase struct {
	name   string
	layout *Layout
	caches CacheSet
}

// readoutCases crosses both prefix kinds with single- and multi-disc layouts,
// each served cold and from warm caches.
func readoutCases(t *testing.T, w *model.Weights) []readoutCase {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	var out []readoutCase
	for _, kind := range []PrefixKind{UserPrefix, ItemPrefix} {
		for _, multi := range []bool{false, true} {
			p := testPrompt(rng, 7, 4, 3, 1)
			build := Build
			if multi {
				build = BuildMultiDisc
			}
			l, err := build(kind, p)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Execute(w, l, CacheSet{})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%v multi=%v", kind, multi)
			out = append(out,
				readoutCase{name + " cold", l, CacheSet{}},
				readoutCase{name + " warm", l, CacheSet{User: cold.NewUserCache, Items: cold.NewItemCaches}})
		}
	}
	return out
}

// TestAppendReadoutRowsRecordedAllocFree pins the readout rows a layout
// records while it is built to a walk of its segments — each per-item
// discriminant's last token in candidate order, else the layout's last token
// — and pins that appending them, shifted into a packed batch, allocates
// nothing once dst has room: the packing loop runs it once per request.
func TestAppendReadoutRowsRecordedAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, kind := range []PrefixKind{UserPrefix, ItemPrefix} {
		for _, build := range []func(PrefixKind, Prompt) (*Layout, error){Build, BuildMultiDisc} {
			l, err := build(kind, testPrompt(rng, 6, 5, 2, 1))
			if err != nil {
				t.Fatal(err)
			}
			var want []int
			for _, s := range l.Segments {
				if s.Kind == SegDisc {
					want = append(want, 9+s.Start+s.Len-1)
				}
			}
			if want == nil {
				want = []int{9 + l.Len() - 1}
			}
			got := l.appendReadoutRows([]int{-1}, 9)
			if !slices.Equal(got[1:], want) || got[0] != -1 {
				t.Fatalf("%v, %d segments: readout rows %v, segment walk %v", kind, len(l.Segments), got, want)
			}
			dst := make([]int, 0, 16)
			if a := testing.AllocsPerRun(100, func() { dst = l.appendReadoutRows(dst[:0], 9) }); a != 0 {
				t.Fatalf("%v, %d segments: appending readout rows allocated %v objects", kind, len(l.Segments), a)
			}
		}
	}
}

// TestRunHiddenIsReadoutRows pins Run.Hidden as exactly the rows a run reads
// — the last token, or every per-item discriminant in candidate order — with
// the bits the reference engine computes for those tokens over the whole
// layout, from Execute and a mixed ExecuteBatch alike.
func TestRunHiddenIsReadoutRows(t *testing.T) {
	w := testWeights()
	cases := readoutCases(t, w)
	items := make([]BatchItem, len(cases))
	refs := make([]*tensor.Matrix, len(cases))
	// check compares one run with case i's reference readout rows and the
	// accounting its caches imply: a warm case reuses its whole prefix.
	check := func(path string, i int, run *Run) {
		t.Helper()
		c, l, ref := cases[i], cases[i].layout, refs[i]
		want := l.DiscriminantIndices()
		if want == nil {
			want = []int{l.Len() - 1}
		}
		if run.Hidden.Rows != len(want) {
			t.Fatalf("%s %s: Hidden has %d rows, want %d", path, c.name, run.Hidden.Rows, len(want))
		}
		for j, abs := range want {
			if !sameBits(run.Hidden.Row(j), ref.Row(abs)) {
				t.Fatalf("%s %s: readout row %d (token %d) deviates from reference by %v",
					path, c.name, j, abs, tensor.MaxAbsDiff(run.Hidden.Row(j), ref.Row(abs)))
			}
		}
		reused := 0
		if c.caches.User != nil || c.caches.Items != nil {
			reused = l.PrefixLen
		}
		if run.ReusedTokens != reused || run.ComputedTokens != l.Len()-reused {
			t.Fatalf("%s %s: accounting computed=%d reused=%d, want %d/%d", path, c.name,
				run.ComputedTokens, run.ReusedTokens, l.Len()-reused, reused)
		}
	}
	for i, c := range cases {
		l := c.layout
		refs[i] = w.ForwardReference(l.Tokens, l.Pos, l.Mask(), nil)
		run, err := Execute(w, l, c.caches)
		if err != nil {
			t.Fatal(err)
		}
		check("Execute", i, run)
		items[i] = BatchItem{Layout: l, Caches: c.caches}
	}

	runs, err := ExecuteBatch(w, items)
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range runs {
		check("ExecuteBatch", i, run)
	}
}

// TestPackedMissCachesMatchFullForward pins the K/V-only miss recompute: the
// packed unit forward leaves every unit a cache byte-identical to the one a
// full-row Forward of that prefix alone leaves.
func TestPackedMissCachesMatchFullForward(t *testing.T) {
	w := testWeights()
	rng := rand.New(rand.NewSource(22))
	var plan missPlan
	for i := 0; i < 4; i++ {
		kind := UserPrefix
		if i%2 == 1 {
			kind = ItemPrefix
		}
		l, err := Build(kind, testPrompt(rng, 6+i, 3, 2+i, 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.classifyPrefix(l, CacheSet{}, &Run{Layout: l}, i); err != nil {
			t.Fatal(err)
		}
	}
	want := make([][]byte, len(plan.units))
	for ui, u := range plan.units {
		c := model.NewKVCache(w.Config())
		if u.user {
			w.Forward(u.tokens, u.pos, u.mask, c)
		} else {
			pos := make([]int, len(u.tokens))
			for i := range pos {
				pos[i] = u.posStart + i
			}
			w.Forward(u.tokens, pos, nil, c)
		}
		want[ui] = cacheBytes(t, c)
	}
	plan.computeAll(w)
	for ui, u := range plan.units {
		if !bytes.Equal(cacheBytes(t, u.cache), want[ui]) {
			t.Fatalf("unit %d (user=%v) cache differs from a full-row forward", ui, u.user)
		}
	}
	// A lone unit takes the solo path.
	solo := missPlan{units: plan.units[:1]}
	solo.computeAll(w)
	if !bytes.Equal(cacheBytes(t, solo.units[0].cache), want[0]) {
		t.Fatal("solo unit cache differs from a full-row forward")
	}
}

// BenchmarkExecuteBatchMiss packs four cold requests — every prefix a miss —
// into one ExecuteBatch on the served one-layer shape: a user-prefix pair and
// an item-prefix pair, 256-token users and 16 two-token candidates each.
func BenchmarkExecuteBatchMiss(b *testing.B) { benchExecuteBatch(b, false) }

// BenchmarkExecuteBatchHit is BenchmarkExecuteBatchMiss with every prefix
// served from cache: the suffix forward alone.
func BenchmarkExecuteBatchHit(b *testing.B) { benchExecuteBatch(b, true) }

func benchExecuteBatch(b *testing.B, warm bool) {
	cfg := model.Config{Name: "ServedGR", Layers: 1, Heads: 1, KVHeads: 1, HeadDim: 32, Hidden: 32, FFNDim: 4, Vocab: testVocab}
	w := model.NewWeights(cfg, 1)
	rng := rand.New(rand.NewSource(1))
	items := make([]BatchItem, 4)
	tokens := 0
	for i := range items {
		kind := UserPrefix
		if i >= 2 {
			kind = ItemPrefix
		}
		l, err := Build(kind, testPrompt(rng, 256, 16, 2, 1))
		if err != nil {
			b.Fatal(err)
		}
		cold, err := Execute(w, l, CacheSet{})
		if err != nil {
			b.Fatal(err)
		}
		items[i] = BatchItem{Layout: l}
		if warm {
			items[i].Caches = CacheSet{User: cold.NewUserCache, Items: cold.NewItemCaches}
		}
		tokens += l.Len()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecuteBatch(w, items); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tokens)*float64(b.N)/b.Elapsed().Seconds(), "tokens/sec")
}
