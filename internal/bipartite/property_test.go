package bipartite

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bat/internal/model"
	"bat/internal/tensor"
)

// randomPrompt derives a structurally valid prompt from fuzz bytes.
func randomPrompt(seed int64) Prompt {
	rng := rand.New(rand.NewSource(seed))
	userLen := rng.Intn(12) // 0 is legal (new user)
	nItems := 1 + rng.Intn(6)
	instrLen := 1 + rng.Intn(3)
	p := Prompt{}
	tok := func() int { return rng.Intn(testVocab) }
	for i := 0; i < userLen; i++ {
		p.User = append(p.User, tok())
	}
	for i := 0; i < nItems; i++ {
		item := make([]int, 1+rng.Intn(4))
		for j := range item {
			item[j] = tok()
		}
		p.Items = append(p.Items, item)
	}
	for i := 0; i < instrLen; i++ {
		p.Instr = append(p.Instr, tok())
	}
	return p
}

// TestPropertyLayoutWellFormed: for arbitrary prompt shapes, both layouts
// preserve every token exactly once, keep positions consistent with segment
// metadata, and bound PrefixLen by the token count.
func TestPropertyLayoutWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		p := randomPrompt(seed)
		for _, kind := range []PrefixKind{UserPrefix, ItemPrefix} {
			l, err := Build(kind, p)
			if err != nil {
				return false
			}
			want := len(p.User) + len(p.Instr)
			for _, it := range p.Items {
				want += len(it)
			}
			if l.Len() != want || l.PrefixLen < 0 || l.PrefixLen > l.Len() {
				return false
			}
			// Token-by-token: position equals segment PosStart + offset.
			for i := 0; i < l.Len(); i++ {
				seg := l.SegmentOf(i)
				if l.Pos[i] != seg.PosStart+(i-seg.Start) {
					return false
				}
			}
			// The mask never allows cross-item edges.
			for q := 0; q < l.Len(); q++ {
				for k := 0; k < q; k++ {
					qs, ks := l.SegmentOf(q), l.SegmentOf(k)
					if qs.Kind == SegItem && ks.Kind == SegItem && qs.Item != ks.Item && l.Mask().Allowed(q, k) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCacheReuseExactness: for arbitrary prompts, serving any layout
// from its own freshly minted caches reproduces the cold discriminant state
// exactly.
func TestPropertyCacheReuseExactness(t *testing.T) {
	w := testWeights()
	f := func(seed int64) bool {
		p := randomPrompt(seed)
		for _, kind := range []PrefixKind{UserPrefix, ItemPrefix} {
			l, err := Build(kind, p)
			if err != nil {
				return false
			}
			cold, err := Execute(w, l, CacheSet{})
			if err != nil {
				return false
			}
			warm, err := Execute(w, l, CacheSet{User: cold.NewUserCache, Items: cold.NewItemCaches})
			if err != nil {
				return false
			}
			if tensor.MaxAbsDiff(cold.Hidden.Data, warm.Hidden.Data) != 0 {
				return false
			}
			if warm.ReusedTokens != l.PrefixLen && len(p.User) > 0 {
				// UP with an empty user has no cache to reuse; otherwise the
				// whole prefix must come from cache.
				if !(kind == UserPrefix && len(p.User) == 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPermutationInvariance: for arbitrary prompts, rotating the
// candidate list never changes the discriminant state beyond float noise.
func TestPropertyPermutationInvariance(t *testing.T) {
	w := testWeights()
	f := func(seed int64) bool {
		p := randomPrompt(seed)
		if len(p.Items) < 2 {
			return true
		}
		rot := Prompt{User: p.User, Instr: p.Instr}
		rot.Items = append(append([][]int{}, p.Items[1:]...), p.Items[0])
		for _, kind := range []PrefixKind{UserPrefix, ItemPrefix} {
			l1, err := Build(kind, p)
			if err != nil {
				return false
			}
			l2, err := Build(kind, rot)
			if err != nil {
				return false
			}
			r1, err := Execute(w, l1, CacheSet{})
			if err != nil {
				return false
			}
			r2, err := Execute(w, l2, CacheSet{})
			if err != nil {
				return false
			}
			if tensor.MaxAbsDiff(r1.Hidden.Data, r2.Hidden.Data) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyHSTUSharesInvariants: the same cache-exactness property holds
// under HSTU-style attention (the paper's §4.2 extension).
func TestPropertyHSTUSharesInvariants(t *testing.T) {
	cfg := model.TinyGR(testVocab)
	cfg.Name = "TinyHSTU"
	cfg.Attn = model.AttnHSTU
	w := model.NewWeights(cfg, 42)
	f := func(seed int64) bool {
		p := randomPrompt(seed)
		l, err := Build(ItemPrefix, p)
		if err != nil {
			return false
		}
		cold, err := Execute(w, l, CacheSet{})
		if err != nil {
			return false
		}
		warm, err := Execute(w, l, CacheSet{Items: cold.NewItemCaches})
		if err != nil {
			return false
		}
		return tensor.MaxAbsDiff(cold.Hidden.Data, warm.Hidden.Data) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
