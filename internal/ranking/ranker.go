package ranking

import (
	"context"
	"fmt"

	"bat/internal/bipartite"
	"bat/internal/metrics"
	"bat/internal/model"
	"bat/internal/tensor"
)

// Hidden-dimension layout of the constructed model: the first LatentDim
// dimensions carry semantics; the top two carry role flags placed in the
// slowest rotary pair so RoPE barely perturbs them.
const (
	prefHidden  = 32
	userFlagDim = 30
	discFlagDim = 31
)

// ModelVariant selects a constructed GR model family member. The paper
// evaluates three base models; the reproduction mirrors that with three
// constructions: two RoPE-only (position-robust) variants of different
// attention sharpness, and one with a learned absolute-position bias that
// up-weights early positions — the "instruction-tuned model" whose quality
// drops when items are moved to the front (§4.2, Table 3).
type ModelVariant struct {
	Name string
	// Beta is the attention sharpness routing the discriminant token to the
	// user history.
	Beta float32
	// PosSensitive enables the absolute-position bias.
	PosSensitive bool
	// Gamma is the early-position boost magnitude (PosSensitive only).
	Gamma float32
	// PEarly is the boosted-position horizon (PosSensitive only).
	PEarly int
}

// The three Table 3 stand-ins.
var (
	VariantBase  = ModelVariant{Name: "PrefGR-Base", Beta: 2}
	VariantSharp = ModelVariant{Name: "PrefGR-Sharp", Beta: 3}
	// PEarly must lie between the longest item (so Item-as-prefix moves
	// items into the boosted region) and the shortest user history (so
	// User-as-prefix keeps only user tokens there); Gamma stays moderate
	// because RMSNorm compresses large flag magnitudes back together.
	VariantAbsPos = ModelVariant{Name: "PrefGR-AbsPos", Beta: 2, PosSensitive: true, Gamma: 2, PEarly: 8}
)

// Variants returns the three model stand-ins in Table 3 order.
func Variants() []ModelVariant { return []ModelVariant{VariantBase, VariantSharp, VariantAbsPos} }

// BuildModel constructs the preference transformer for a dataset:
//
//   - every item's latent vector is planted as its identifier-token
//     embedding; interaction tokens additionally carry the user-role flag;
//   - a single attention layer is wired so the discriminant token's query
//     selects user-flagged keys (softmax sharpness Beta) and values project
//     the latent dimensions — the discriminant's hidden state becomes
//     (approximately) the mean of the user's history latents;
//   - the output head is the tied embedding, so a candidate's logit is the
//     dot product between that preference estimate and the candidate latent.
func BuildModel(ds *Dataset, v ModelVariant) (*model.Weights, error) {
	if ds.LatentDim > userFlagDim {
		return nil, fmt.Errorf("ranking: latent dim %d collides with flag dims", ds.LatentDim)
	}
	cfg := model.Config{
		Name: v.Name, Layers: 1, Heads: 1, KVHeads: 1, HeadDim: prefHidden,
		Hidden: prefHidden, FFNDim: 4, Vocab: ds.VocabSize(),
	}
	if v.PosSensitive {
		cfg.AbsPos = true
		cfg.MaxPos = 8192
	}
	w := model.NewZeroWeights(cfg)

	// Embeddings.
	vec := make([]float32, prefHidden)
	reset := func() {
		for i := range vec {
			vec[i] = 0
		}
	}
	for i, latent := range ds.ItemLatent {
		reset()
		copy(vec, latent)
		w.SetEmbedding(ds.CandidateToken(i), vec)
		vec[userFlagDim] = 1
		w.SetEmbedding(ds.InteractionToken(i), vec)
	}
	for c, centroid := range ds.Clusters {
		reset()
		copy(vec, centroid)
		w.SetEmbedding(ds.attrTokenBase()+c, vec)
	}
	reset()
	w.SetEmbedding(ds.InstrPrefixToken(), vec)
	vec[discFlagDim] = 1
	w.SetEmbedding(ds.DiscriminantToken(), vec)

	// Attention wiring.
	wq := tensor.NewMatrix(prefHidden, prefHidden)
	wq.Set(discFlagDim, userFlagDim, v.Beta)
	wk := tensor.NewMatrix(prefHidden, prefHidden)
	wv := tensor.NewMatrix(prefHidden, prefHidden)
	wo := tensor.NewMatrix(prefHidden, prefHidden)
	for i := 0; i < prefHidden; i++ {
		wk.Set(i, i, 1)
		wo.Set(i, i, 1)
	}
	for i := 0; i < ds.LatentDim; i++ {
		wv.Set(i, i, 1)
	}
	w.SetAttention(0, wq, wk, wv, wo)

	// Position bias: the position-sensitive family up-weights the earliest
	// prompt positions as "freshest user history" — harmless under
	// User-as-prefix (the user is early), harmful under Item-as-prefix
	// (items move to the front and soak up the discriminant's attention).
	if v.PosSensitive {
		reset()
		vec[userFlagDim] = v.Gamma
		for p := 0; p < v.PEarly; p++ {
			w.SetPositionEmbedding(p, vec)
		}
	}
	return w, nil
}

// Ranker scores candidate sets with a constructed model.
type Ranker struct {
	DS *Dataset
	W  *model.Weights
}

// NewRanker builds a ranker for the dataset and model variant.
func NewRanker(ds *Dataset, v ModelVariant) (*Ranker, error) {
	w, err := BuildModel(ds, v)
	if err != nil {
		return nil, err
	}
	return &Ranker{DS: ds, W: w}, nil
}

// RankOpts tunes one ranking call.
type RankOpts struct {
	// PIC applies position-independent-caching correction to Item-as-prefix
	// layouts (no effect on User-as-prefix).
	PIC bool
	// Caches supplies prefix caches to reuse.
	Caches bipartite.CacheSet
	// Ctx, when non-nil, cancels execution cooperatively: it is polled at
	// model phase boundaries, so a disconnected client or an expired
	// deadline stops consuming compute instead of running to completion.
	Ctx context.Context
}

// cancelFn adapts a context into the execution layer's cancellation hook.
func (o RankOpts) cancelFn() func() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err
}

// Prompt assembles the GR prompt for a request.
func (r *Ranker) Prompt(req EvalRequest) bipartite.Prompt {
	ds := r.DS
	var user []int
	for _, it := range ds.UserHistory[req.User] {
		user = append(user, ds.InteractionToken(it))
	}
	items := make([][]int, len(req.Candidates))
	for i, it := range req.Candidates {
		items[i] = ds.ItemTokens[it]
	}
	return bipartite.Prompt{
		User:  user,
		Items: items,
		Instr: []int{ds.InstrPrefixToken(), ds.DiscriminantToken()},
	}
}

// BuildLayout resolves the prompt layout serving a request under the given
// prefix organization (with optional PIC correction). Exposed so the serving
// core can build layouts for a whole batch before one packed execution.
func (r *Ranker) BuildLayout(req EvalRequest, kind bipartite.PrefixKind, pic bool) (*bipartite.Layout, error) {
	layout, err := bipartite.Build(kind, r.Prompt(req))
	if err != nil {
		return nil, err
	}
	if pic {
		layout.PICAdjust()
	}
	return layout, nil
}

// BuildMultiLayout resolves the §4.2 multi-discriminant layout serving a
// request: one discriminant token per candidate, each reading only the user
// and its own item. PIC does not apply (there is no shared discriminant
// whose position encodes sequence order the same way).
func (r *Ranker) BuildMultiLayout(req EvalRequest, kind bipartite.PrefixKind) (*bipartite.Layout, error) {
	p := r.Prompt(req)
	p.Instr = []int{r.DS.DiscriminantToken()}
	return bipartite.BuildMultiDisc(kind, p)
}

// Score turns a run's readout rows — one discriminant, or one per candidate
// — into candidate-set indices in descending score order: the scoring half
// of Rank and RankMulti, reusable on runs produced by batched execution.
func (r *Ranker) Score(req EvalRequest, run *bipartite.Run) ([]int, error) {
	candTokens := make([]int, len(req.Candidates))
	for i, it := range req.Candidates {
		candTokens[i] = r.DS.CandidateToken(it)
	}
	scores, err := bipartite.Scores(r.W, run, candTokens)
	if err != nil {
		return nil, err
	}
	return tensor.TopK(scores, len(scores)), nil
}

// Rank scores a request under the given prefix organization and returns
// candidate-set indices in descending score order, plus the execution run
// for cache accounting.
func (r *Ranker) Rank(req EvalRequest, kind bipartite.PrefixKind, opts RankOpts) ([]int, *bipartite.Run, error) {
	layout, err := r.BuildLayout(req, kind, opts.PIC)
	if err != nil {
		return nil, nil, err
	}
	return r.execute(req, layout, opts)
}

// RankMulti scores a request with the §4.2 multi-discriminant extension (see
// BuildMultiLayout); opts.PIC is ignored.
func (r *Ranker) RankMulti(req EvalRequest, kind bipartite.PrefixKind, opts RankOpts) ([]int, *bipartite.Run, error) {
	layout, err := r.BuildMultiLayout(req, kind)
	if err != nil {
		return nil, nil, err
	}
	return r.execute(req, layout, opts)
}

// execute runs one layout and scores its readout.
func (r *Ranker) execute(req EvalRequest, layout *bipartite.Layout, opts RankOpts) ([]int, *bipartite.Run, error) {
	run, err := bipartite.ExecuteCancelable(r.W, layout, opts.Caches, opts.cancelFn())
	if err != nil {
		return nil, nil, err
	}
	ranked, err := r.Score(req, run)
	if err != nil {
		return nil, nil, err
	}
	return ranked, run, nil
}

// EvalResult is one Table 3 row.
type EvalResult struct {
	Dataset, Model, Strategy                      string
	Recall10, MRR10, NDCG10, Recall5, MRR5, NDCG5 float64
	Requests                                      int
}

// Evaluate runs n requests from the dataset's fixed evaluation set under
// one strategy and reports the §6.3 metric suite. Because the set is fixed,
// strategies are compared paired.
func (r *Ranker) Evaluate(n int, kind bipartite.PrefixKind, opts RankOpts, hardNegatives int) (EvalResult, error) {
	e10 := metrics.NewRankEval(10)
	e5 := metrics.NewRankEval(5)
	for _, req := range r.DS.EvalRequests(n, hardNegatives) {
		ranked, _, err := r.Rank(req, kind, opts)
		if err != nil {
			return EvalResult{}, err
		}
		e10.Observe(ranked, req.Truth)
		e5.Observe(ranked, req.Truth)
	}
	strategy := "UP"
	if kind == bipartite.ItemPrefix {
		strategy = "IP"
		if opts.PIC {
			strategy = "IP+PIC"
		}
	}
	return EvalResult{
		Dataset: r.DS.Name, Model: r.W.Config().Name, Strategy: strategy,
		Recall10: e10.Recall(), MRR10: e10.MRR(), NDCG10: e10.NDCG(),
		Recall5: e5.Recall(), MRR5: e5.MRR(), NDCG5: e5.NDCG(),
		Requests: n,
	}, nil
}
