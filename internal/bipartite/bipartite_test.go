package bipartite

import (
	"math/rand"
	"testing"

	"bat/internal/model"
	"bat/internal/tensor"
)

const testVocab = 256

func testPrompt(rng *rand.Rand, userLen, nItems, itemLen, instrLen int) Prompt {
	tok := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = rng.Intn(testVocab)
		}
		return out
	}
	p := Prompt{User: tok(userLen), Instr: tok(instrLen)}
	for i := 0; i < nItems; i++ {
		p.Items = append(p.Items, tok(itemLen))
	}
	return p
}

func testWeights() *model.Weights {
	return model.NewWeights(model.TinyGR(testVocab), 42)
}

func TestPromptValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	good := testPrompt(rng, 4, 2, 3, 2)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid prompt rejected: %v", err)
	}
	noItems := Prompt{User: []int{1}, Instr: []int{2}}
	if noItems.Validate() == nil {
		t.Fatal("prompt without items should be invalid")
	}
	emptyItem := Prompt{User: []int{1}, Items: [][]int{{}}, Instr: []int{2}}
	if emptyItem.Validate() == nil {
		t.Fatal("empty item should be invalid")
	}
	noInstr := Prompt{User: []int{1}, Items: [][]int{{3}}}
	if noInstr.Validate() == nil {
		t.Fatal("prompt without instr should be invalid")
	}
}

func TestUserPrefixLayoutShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := testPrompt(rng, 5, 3, 2, 2)
	l, err := Build(UserPrefix, p)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 5+3*2+2 {
		t.Fatalf("layout length %d", l.Len())
	}
	if l.PrefixLen != 5 {
		t.Fatalf("prefix len %d, want 5 (user tokens)", l.PrefixLen)
	}
	// Token order: user, items in order, instr.
	wantTokens := append([]int(nil), p.User...)
	for _, it := range p.Items {
		wantTokens = append(wantTokens, it...)
	}
	wantTokens = append(wantTokens, p.Instr...)
	for i, tok := range wantTokens {
		if l.Tokens[i] != tok {
			t.Fatalf("token %d = %d, want %d", i, l.Tokens[i], tok)
		}
	}
	// All items share starting position = len(user).
	for _, seg := range l.ItemSegments() {
		if seg.PosStart != 5 {
			t.Fatalf("item %d PosStart = %d, want 5", seg.Item, seg.PosStart)
		}
	}
	// Instr starts after user + max item length.
	instr := l.Segments[len(l.Segments)-1]
	if instr.Kind != SegInstr || instr.PosStart != 5+2 {
		t.Fatalf("instr segment %+v", instr)
	}
	if rows := l.appendReadoutRows(nil, 0); len(rows) != 1 || rows[0] != l.Len()-1 {
		t.Fatalf("readout rows %v: the discriminant must be the last token, %d", rows, l.Len()-1)
	}
}

func TestItemPrefixLayoutShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := testPrompt(rng, 5, 3, 2, 2)
	l, err := Build(ItemPrefix, p)
	if err != nil {
		t.Fatal(err)
	}
	if l.PrefixLen != 3*2 {
		t.Fatalf("prefix len %d, want 6 (all item tokens)", l.PrefixLen)
	}
	for _, seg := range l.ItemSegments() {
		if seg.PosStart != 0 {
			t.Fatalf("item %d PosStart = %d, want 0", seg.Item, seg.PosStart)
		}
	}
	// User follows items, positions continue after the longest item.
	userSeg := l.Segments[3]
	if userSeg.Kind != SegUser || userSeg.PosStart != 2 {
		t.Fatalf("user segment %+v", userSeg)
	}
	instr := l.Segments[len(l.Segments)-1]
	if instr.PosStart != 2+5 {
		t.Fatalf("instr PosStart = %d, want 7", instr.PosStart)
	}
}

func TestLayoutsShareTotalPositionBudget(t *testing.T) {
	// Both layouts assign the same final position to the discriminant token,
	// so neither inflates the effective context length.
	rng := rand.New(rand.NewSource(4))
	p := testPrompt(rng, 7, 4, 3, 2)
	up, _ := Build(UserPrefix, p)
	ip, _ := Build(ItemPrefix, p)
	if up.Pos[up.Len()-1] != ip.Pos[ip.Len()-1] {
		t.Fatalf("discriminant positions differ: UP %d vs IP %d",
			up.Pos[up.Len()-1], ip.Pos[ip.Len()-1])
	}
}

func TestMaskRules(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := testPrompt(rng, 3, 2, 2, 1)
	up, _ := Build(UserPrefix, p)
	ip, _ := Build(ItemPrefix, p)

	find := func(l *Layout, kind SegmentKind, item int) Segment {
		for _, s := range l.Segments {
			if s.Kind == kind && (kind != SegItem || s.Item == item) {
				return s
			}
		}
		t.Fatalf("segment %v/%d not found", kind, item)
		return Segment{}
	}

	// UP: item0 tokens attend user but not item1.
	upm := up.Mask()
	u := find(up, SegUser, -1)
	i0 := find(up, SegItem, 0)
	i1 := find(up, SegItem, 1)
	ins := find(up, SegInstr, -1)
	if !upm.Allowed(i1.Start, u.Start) {
		t.Fatal("UP: item must attend user")
	}
	if upm.Allowed(i1.Start, i0.Start) {
		t.Fatal("UP: cross-item attention must be masked")
	}
	if !upm.Allowed(ins.Start, i0.Start) || !upm.Allowed(ins.Start, u.Start) {
		t.Fatal("UP: instr must attend everything")
	}
	if !upm.Allowed(i0.Start+1, i0.Start) {
		t.Fatal("UP: within-item attention must be allowed")
	}

	// IP: items fully isolated; user attends items.
	ipm := ip.Mask()
	u = find(ip, SegUser, -1)
	i0 = find(ip, SegItem, 0)
	i1 = find(ip, SegItem, 1)
	ins = find(ip, SegInstr, -1)
	if ipm.Allowed(i1.Start, i0.Start) {
		t.Fatal("IP: cross-item attention must be masked")
	}
	if ipm.Allowed(i1.Start, u.Start) {
		t.Fatal("IP: item->user attention must be masked (independence)")
	}
	if !ipm.Allowed(u.Start, i0.Start) || !ipm.Allowed(u.Start, i1.Start) {
		t.Fatal("IP: user must attend the item set")
	}
	if !ipm.Allowed(ins.Start, u.Start) || !ipm.Allowed(ins.Start, i1.Start) {
		t.Fatal("IP: instr must attend everything")
	}
}

// TestItemPermutationInvariance is the paper's central claim (§4.1): because
// items are mask-isolated and share a starting position, permuting the
// candidate order must not change any candidate's score or the discriminant
// state — in either layout.
func TestItemPermutationInvariance(t *testing.T) {
	w := testWeights()
	rng := rand.New(rand.NewSource(6))
	p := testPrompt(rng, 6, 5, 3, 2)

	perm := []int{3, 0, 4, 1, 2}
	permuted := Prompt{User: p.User, Instr: p.Instr}
	for _, idx := range perm {
		permuted.Items = append(permuted.Items, p.Items[idx])
	}

	for _, kind := range []PrefixKind{UserPrefix, ItemPrefix} {
		l1, err := Build(kind, p)
		if err != nil {
			t.Fatal(err)
		}
		l2, err := Build(kind, permuted)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := Execute(w, l1, CacheSet{})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Execute(w, l2, CacheSet{})
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(r1.Hidden.Data, r2.Hidden.Data); d > 1e-5 {
			t.Errorf("%v: discriminant changed by %v under item permutation", kind, d)
		}
	}
}

// TestUserPrefixCacheReuseExactness: serving from a user cache must
// reproduce recomputation exactly.
func TestUserPrefixCacheReuseExactness(t *testing.T) {
	w := testWeights()
	rng := rand.New(rand.NewSource(7))
	p := testPrompt(rng, 8, 3, 2, 2)
	l, _ := Build(UserPrefix, p)

	cold, err := Execute(w, l, CacheSet{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.ReusedTokens != 0 || cold.ComputedTokens != l.Len() {
		t.Fatalf("cold run accounting: reused %d computed %d", cold.ReusedTokens, cold.ComputedTokens)
	}
	if cold.NewUserCache == nil || cold.NewUserCache.Len() != 8 {
		t.Fatal("cold UP run must yield a user cache for admission")
	}

	warm, err := Execute(w, l, CacheSet{User: cold.NewUserCache})
	if err != nil {
		t.Fatal(err)
	}
	if warm.ReusedTokens != 8 || warm.ComputedTokens != l.Len()-8 {
		t.Fatalf("warm run accounting: reused %d computed %d", warm.ReusedTokens, warm.ComputedTokens)
	}
	if d := tensor.MaxAbsDiff(cold.Hidden.Data, warm.Hidden.Data); d != 0 {
		t.Fatalf("cached UP run deviates by %v", d)
	}
	// The stored cache must not have been mutated by serving.
	if cold.NewUserCache.Len() != 8 {
		t.Fatal("Execute mutated the caller's user cache")
	}
}

// TestItemPrefixCacheReuseExactness: serving from precomputed item caches —
// including a mix of hits and misses — must reproduce recomputation exactly.
func TestItemPrefixCacheReuseExactness(t *testing.T) {
	w := testWeights()
	rng := rand.New(rand.NewSource(8))
	p := testPrompt(rng, 6, 4, 3, 2)
	l, _ := Build(ItemPrefix, p)

	cold, err := Execute(w, l, CacheSet{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.NewItemCaches) != 4 {
		t.Fatalf("cold IP run yielded %d item caches, want 4", len(cold.NewItemCaches))
	}

	// Full hit.
	warm, err := Execute(w, l, CacheSet{Items: cold.NewItemCaches})
	if err != nil {
		t.Fatal(err)
	}
	if warm.ReusedTokens != 12 {
		t.Fatalf("full-hit reused %d, want 12", warm.ReusedTokens)
	}
	if d := tensor.MaxAbsDiff(cold.Hidden.Data, warm.Hidden.Data); d != 0 {
		t.Fatalf("full-hit IP run deviates by %v", d)
	}

	// Partial hit: only items 1 and 3 cached.
	partialCaches := map[int]*model.KVCache{1: cold.NewItemCaches[1], 3: cold.NewItemCaches[3]}
	part, err := Execute(w, l, CacheSet{Items: partialCaches})
	if err != nil {
		t.Fatal(err)
	}
	if part.ReusedTokens != 6 {
		t.Fatalf("partial-hit reused %d, want 6", part.ReusedTokens)
	}
	if len(part.NewItemCaches) != 2 {
		t.Fatalf("partial-hit produced %d new caches, want 2", len(part.NewItemCaches))
	}
	if d := tensor.MaxAbsDiff(cold.Hidden.Data, part.Hidden.Data); d != 0 {
		t.Fatalf("partial-hit IP run deviates by %v", d)
	}
}

// TestItemCacheSharedAcrossRequests: an item cache computed for one request
// must serve a different user's request containing the same item tokens —
// advantage (1) of Item-as-prefix (§4.3).
func TestItemCacheSharedAcrossRequests(t *testing.T) {
	w := testWeights()
	rng := rand.New(rand.NewSource(9))
	shared := []int{10, 20, 30}
	p1 := testPrompt(rng, 5, 2, 3, 2)
	p1.Items[0] = shared
	p2 := testPrompt(rng, 7, 2, 3, 2) // different user, different other item
	p2.Items[1] = shared

	c := ComputeItemCache(w, shared)

	l1, _ := Build(ItemPrefix, p1)
	r1, err := Execute(w, l1, CacheSet{Items: map[int]*model.KVCache{0: c}})
	if err != nil {
		t.Fatal(err)
	}
	ref1, _ := Execute(w, l1, CacheSet{})
	if d := tensor.MaxAbsDiff(r1.Hidden.Data, ref1.Hidden.Data); d != 0 {
		t.Fatalf("request 1 deviates by %v", d)
	}

	l2, _ := Build(ItemPrefix, p2)
	r2, err := Execute(w, l2, CacheSet{Items: map[int]*model.KVCache{1: c}})
	if err != nil {
		t.Fatal(err)
	}
	ref2, _ := Execute(w, l2, CacheSet{})
	if d := tensor.MaxAbsDiff(r2.Hidden.Data, ref2.Hidden.Data); d != 0 {
		t.Fatalf("request 2 deviates by %v", d)
	}
	if r1.ReusedTokens != 3 || r2.ReusedTokens != 3 {
		t.Fatalf("shared item cache not reused: %d / %d", r1.ReusedTokens, r2.ReusedTokens)
	}
}

func TestExecuteRejectsWrongCacheLength(t *testing.T) {
	w := testWeights()
	rng := rand.New(rand.NewSource(10))
	p := testPrompt(rng, 5, 2, 3, 2)

	up, _ := Build(UserPrefix, p)
	badUser := ComputeUserCache(w, []int{1, 2, 3}) // 3 tokens, layout wants 5
	if _, err := Execute(w, up, CacheSet{User: badUser}); err == nil {
		t.Fatal("expected error for mismatched user cache")
	}

	ip, _ := Build(ItemPrefix, p)
	badItem := ComputeItemCache(w, []int{1}) // 1 token, segment has 3
	if _, err := Execute(w, ip, CacheSet{Items: map[int]*model.KVCache{0: badItem}}); err == nil {
		t.Fatal("expected error for mismatched item cache")
	}
}

func TestEmptyUserProfile(t *testing.T) {
	w := testWeights()
	p := Prompt{User: nil, Items: [][]int{{1, 2}, {3, 4}}, Instr: []int{5}}
	for _, kind := range []PrefixKind{UserPrefix, ItemPrefix} {
		l, err := Build(kind, p)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if _, err := Execute(w, l, CacheSet{}); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

func TestVariableItemLengths(t *testing.T) {
	w := testWeights()
	p := Prompt{
		User:  []int{1, 2, 3},
		Items: [][]int{{4}, {5, 6, 7, 8}, {9, 10}},
		Instr: []int{11},
	}
	ip, err := Build(ItemPrefix, p)
	if err != nil {
		t.Fatal(err)
	}
	// User starts after the longest item (4 tokens).
	for _, s := range ip.Segments {
		if s.Kind == SegUser && s.PosStart != 4 {
			t.Fatalf("user PosStart = %d, want 4", s.PosStart)
		}
	}
	r, err := Execute(w, ip, CacheSet{})
	if err != nil {
		t.Fatal(err)
	}
	if r.ReusedTokens != 0 || r.ComputedTokens != ip.Len() {
		t.Fatalf("accounting %d/%d", r.ReusedTokens, r.ComputedTokens)
	}
}

func TestPrefixKindString(t *testing.T) {
	if UserPrefix.String() != "user-as-prefix" || ItemPrefix.String() != "item-as-prefix" {
		t.Fatal("PrefixKind.String mismatch")
	}
	if SegUser.String() != "user" || SegItem.String() != "item" || SegInstr.String() != "instr" {
		t.Fatal("SegmentKind.String mismatch")
	}
}

func TestSegmentOf(t *testing.T) {
	p := Prompt{User: []int{1, 2}, Items: [][]int{{3}, {4}}, Instr: []int{5}}
	l, _ := Build(UserPrefix, p)
	if s := l.SegmentOf(0); s.Kind != SegUser {
		t.Fatalf("token 0 in %v", s.Kind)
	}
	if s := l.SegmentOf(2); s.Kind != SegItem || s.Item != 0 {
		t.Fatalf("token 2 in %v/%d", s.Kind, s.Item)
	}
	if s := l.SegmentOf(4); s.Kind != SegInstr {
		t.Fatalf("token 4 in %v", s.Kind)
	}
}

// TestLayoutMaskExactRangesMatchAllowed pins the exact-range fast path to the
// Allowed predicate: for every layout shape (both prefix kinds, single- and
// multi-discriminant, PIC-adjusted, empty user) and every query, the union of
// ExactKeyRanges clamped to the causal horizon must equal exactly the set of
// keys Allowed admits. Any divergence would silently change attention
// results, so this is the contract the engine's no-mask-calls path rests on.
func TestLayoutMaskExactRangesMatchAllowed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type tc struct {
		name  string
		build func(Prompt) (*Layout, error)
		p     Prompt
	}
	var cases []tc
	for _, kind := range []PrefixKind{UserPrefix, ItemPrefix} {
		kind := kind
		for _, userLen := range []int{0, 1, 5} {
			p := testPrompt(rng, userLen, 3, 2, 2)
			cases = append(cases, tc{
				name:  kind.String() + "/single",
				build: func(p Prompt) (*Layout, error) { return Build(kind, p) },
				p:     p,
			})
			md := testPrompt(rng, userLen, 3, 2, 1)
			cases = append(cases, tc{
				name:  kind.String() + "/multidisc",
				build: func(p Prompt) (*Layout, error) { return BuildMultiDisc(kind, p) },
				p:     md,
			})
		}
	}
	pic := testPrompt(rng, 4, 2, 3, 2)
	cases = append(cases, tc{
		name: "ItemPrefix/pic",
		build: func(p Prompt) (*Layout, error) {
			l, err := Build(ItemPrefix, p)
			if err == nil {
				l.PICAdjust()
			}
			return l, err
		},
		p: pic,
	})
	for _, c := range cases {
		l, err := c.build(c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		m := l.Mask().(model.ExactKeyRanger)
		am := l.Mask()
		for q := 0; q < l.Len(); q++ {
			inRange := make([]bool, l.Len())
			var last int = -1
			for _, r := range m.ExactKeyRanges(q, nil) {
				if r[0] < last {
					t.Fatalf("%s q=%d: ranges not ascending/disjoint", c.name, q)
				}
				last = r[1]
				for k := r[0]; k < min(r[1], q+1); k++ {
					inRange[k] = true
				}
			}
			if !inRange[q] {
				t.Fatalf("%s q=%d: ranges must include q", c.name, q)
			}
			for k := 0; k <= q; k++ {
				allowed := k == q || am.Allowed(q, k)
				if inRange[k] != allowed {
					t.Fatalf("%s q=%d k=%d: exact range says %v, Allowed says %v",
						c.name, q, k, inRange[k], allowed)
				}
			}
		}
	}
}
