package bipartite

import (
	"math/rand"
	"testing"

	"bat/internal/model"
	"bat/internal/tensor"
)

func multiDiscPrompt(rng *rand.Rand, userLen, nItems, itemLen int) Prompt {
	p := testPrompt(rng, userLen, nItems, itemLen, 1)
	return p
}

func TestBuildMultiDiscShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := multiDiscPrompt(rng, 5, 3, 2)
	for _, kind := range []PrefixKind{UserPrefix, ItemPrefix} {
		l, err := BuildMultiDisc(kind, p)
		if err != nil {
			t.Fatal(err)
		}
		// user + 3 items * 2 + 3 discriminants.
		if l.Len() != 5+6+3 {
			t.Fatalf("%v: layout length %d", kind, l.Len())
		}
		discs := l.DiscriminantIndices()
		if len(discs) != 3 {
			t.Fatalf("%v: %d discriminants", kind, len(discs))
		}
		// All discriminants share a position (unordered set).
		pos := l.Pos[discs[0]]
		for _, d := range discs {
			if l.Pos[d] != pos {
				t.Fatalf("%v: discriminant positions differ", kind)
			}
		}
	}
}

func TestBuildMultiDiscRequiresSingleInstr(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := testPrompt(rng, 4, 2, 2, 3)
	if _, err := BuildMultiDisc(UserPrefix, p); err == nil {
		t.Fatal("multi-token instr accepted")
	}
}

func TestMultiDiscMaskRules(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := multiDiscPrompt(rng, 4, 3, 2)
	l, err := BuildMultiDisc(UserPrefix, p)
	if err != nil {
		t.Fatal(err)
	}
	m := l.Mask()
	discs := l.DiscriminantIndices()
	var userIdx, item0Idx, item1Idx int
	for i := 0; i < l.Len(); i++ {
		seg := l.SegmentOf(i)
		switch {
		case seg.Kind == SegUser:
			userIdx = i
		case seg.Kind == SegItem && seg.Item == 0:
			item0Idx = i
		case seg.Kind == SegItem && seg.Item == 1:
			item1Idx = i
		}
	}
	d0, d1 := discs[0], discs[1]
	if !m.Allowed(d0, userIdx) {
		t.Fatal("disc must attend the user")
	}
	if !m.Allowed(d0, item0Idx) {
		t.Fatal("disc 0 must attend item 0")
	}
	if m.Allowed(d0, item1Idx) {
		t.Fatal("disc 0 must not attend item 1")
	}
	if m.Allowed(d0, d1) || m.Allowed(d1, d0) {
		t.Fatal("discriminants must not attend each other")
	}
}

// TestMultiDiscPairwiseIsolation: candidate i's score must depend only on
// the user and candidate i — changing candidate j leaves score i untouched.
func TestMultiDiscPairwiseIsolation(t *testing.T) {
	w := testWeights()
	rng := rand.New(rand.NewSource(4))
	p := multiDiscPrompt(rng, 5, 4, 3)
	cands := []int{10, 20, 30, 40}

	score := func(p Prompt, kind PrefixKind) []float32 {
		return multiDiscScores(t, w, kind, p, cands)
	}
	// Under UserPrefix isolation is exact: the user never reads items, so
	// disc i depends on the user and candidate i only.
	base := score(p, UserPrefix)
	mutated := Prompt{User: p.User, Instr: p.Instr}
	mutated.Items = append([][]int{}, p.Items...)
	mutated.Items[2] = []int{99, 98, 97}
	got := score(mutated, UserPrefix)
	for i := range base {
		if i == 2 {
			if got[i] == base[i] {
				t.Fatal("mutated candidate's own score unchanged")
			}
			continue
		}
		if got[i] != base[i] {
			t.Fatalf("candidate %d score changed by mutating candidate 2", i)
		}
	}

	// Under ItemPrefix the user reads the item set, so other candidates'
	// scores shift weakly through the user pathway — the coupling must stay
	// far below the mutated candidate's own change.
	baseIP := score(p, ItemPrefix)
	gotIP := score(mutated, ItemPrefix)
	own := abs32(gotIP[2] - baseIP[2])
	for i := range baseIP {
		if i == 2 {
			continue
		}
		if leak := abs32(gotIP[i] - baseIP[i]); leak > own/2 {
			t.Fatalf("IP: candidate %d leaked %v of the mutated candidate's %v change", i, leak, own)
		}
	}
}

// multiDiscScores executes p's multi-disc layout cold and scores it.
func multiDiscScores(t *testing.T, w *model.Weights, kind PrefixKind, p Prompt, cands []int) []float32 {
	t.Helper()
	l, err := BuildMultiDisc(kind, p)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Execute(w, l, CacheSet{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Scores(w, run, cands)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func abs32(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

// TestMultiDiscPermutationEquivariance: permuting candidates permutes the
// scores exactly.
func TestMultiDiscPermutationEquivariance(t *testing.T) {
	w := testWeights()
	rng := rand.New(rand.NewSource(5))
	p := multiDiscPrompt(rng, 6, 5, 2)
	cands := []int{11, 22, 33, 44, 55}

	base := multiDiscScores(t, w, ItemPrefix, p, cands)

	perm := []int{4, 2, 0, 3, 1}
	permuted := Prompt{User: p.User, Instr: p.Instr}
	permCands := make([]int, len(perm))
	for i, j := range perm {
		permuted.Items = append(permuted.Items, p.Items[j])
		permCands[i] = cands[j]
	}
	got := multiDiscScores(t, w, ItemPrefix, permuted, permCands)
	for i, j := range perm {
		diff := got[i] - base[j]
		if diff < -1e-5 || diff > 1e-5 {
			t.Fatalf("score for candidate %d changed under permutation: %v vs %v", j, got[i], base[j])
		}
	}
}

// TestMultiDiscItemCacheReuse: per-item caches serve multi-discriminant
// layouts exactly like single-discriminant ones.
func TestMultiDiscItemCacheReuse(t *testing.T) {
	w := testWeights()
	rng := rand.New(rand.NewSource(6))
	p := multiDiscPrompt(rng, 5, 3, 3)
	l, err := BuildMultiDisc(ItemPrefix, p)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Execute(w, l, CacheSet{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.NewItemCaches) != 3 {
		t.Fatalf("%d caches minted", len(cold.NewItemCaches))
	}
	warm, err := Execute(w, l, CacheSet{Items: cold.NewItemCaches})
	if err != nil {
		t.Fatal(err)
	}
	if warm.ReusedTokens != 9 {
		t.Fatalf("warm reused %d tokens", warm.ReusedTokens)
	}
	for i := 0; i < cold.Hidden.Rows; i++ {
		if d := tensor.MaxAbsDiff(cold.Hidden.Row(i), warm.Hidden.Row(i)); d != 0 {
			t.Fatalf("disc %d state deviates by %v under cache reuse", i, d)
		}
	}
}

// TestScoresReadsEitherReadout: one scorer serves both readouts. A
// single-disc run scores every candidate from its one discriminant; a
// multi-disc run scores candidate i from row i alone; and a run whose rows
// match neither one discriminant nor the candidate count is rejected.
func TestScoresReadsEitherReadout(t *testing.T) {
	w := testWeights()
	rng := rand.New(rand.NewSource(7))
	p := testPrompt(rng, 4, 3, 2, 1)
	cands := []int{1, 2, 3}
	single, err := Build(UserPrefix, p)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Execute(w, single, CacheSet{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Scores(w, run, cands)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, w.LogitsFor(run.Hidden.Row(0), cands)) {
		t.Fatal("single-disc scores are not the discriminant's candidate logits")
	}

	multi, err := BuildMultiDisc(UserPrefix, p)
	if err != nil {
		t.Fatal(err)
	}
	if run, err = Execute(w, multi, CacheSet{}); err != nil {
		t.Fatal(err)
	}
	if got, err = Scores(w, run, cands); err != nil {
		t.Fatal(err)
	}
	for i, c := range cands {
		if want := w.LogitsFor(run.Hidden.Row(i), []int{c})[0]; got[i] != want {
			t.Fatalf("candidate %d scored %v, want its own discriminant's %v", i, got[i], want)
		}
	}
	if _, err := Scores(w, run, cands[:2]); err == nil {
		t.Fatal("3 readout rows scored against 2 candidates")
	}
}

func TestSegDiscString(t *testing.T) {
	if SegDisc.String() != "disc" {
		t.Fatalf("SegDisc.String() = %q", SegDisc.String())
	}
}
