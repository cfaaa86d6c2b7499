package bipartite

import (
	"fmt"

	"bat/internal/model"
	"bat/internal/tensor"
)

// ComputeItemCache precomputes one candidate item's KV cache. Because
// Item-as-prefix items attend only to themselves and start at position 0,
// this is a plain causal forward over the item's tokens in isolation — which
// is exactly why the result is reusable across every user and request (§4.3).
func ComputeItemCache(w *model.Weights, itemTokens []int) *model.KVCache {
	return ComputeItemCacheAt(w, itemTokens, 0)
}

// ComputeItemCacheAt precomputes an item cache anchored at an arbitrary
// start position — PIC serving anchors items at PICItemStart. The cache is
// valid for any layout that assigns the item the same PosStart. A prefix is
// wanted only for its K/V, so the forward reads no output rows.
func ComputeItemCacheAt(w *model.Weights, itemTokens []int, startPos int) *model.KVCache {
	pos := make([]int, len(itemTokens))
	for i := range pos {
		pos[i] = startPos + i
	}
	cache := model.NewKVCache(w.Config())
	w.ForwardRows(itemTokens, pos, nil, cache, nil)
	return cache
}

// ComputeUserCache precomputes a user's profile KV cache for User-as-prefix
// reuse across the user's own multi-turn requests.
func ComputeUserCache(w *model.Weights, userTokens []int) *model.KVCache {
	return ComputeItemCache(w, userTokens) // identical math: causal from position 0
}

// CacheSet carries the prefix caches available to Execute. Both fields are
// optional; anything missing is recomputed.
type CacheSet struct {
	// User is the user-profile cache, consulted for UserPrefix layouts. It
	// must cover exactly the layout's user segment.
	User *model.KVCache
	// Items maps candidate index (position in Prompt.Items) to that item's
	// precomputed cache, consulted for ItemPrefix layouts.
	Items map[int]*model.KVCache
}

// Run is the outcome of executing a layout.
type Run struct {
	Layout *Layout
	// Hidden holds the final hidden states a run reads out, in order: the
	// last token's — the discriminant — or each candidate's discriminant for
	// a multi-disc layout (Layout.DiscriminantIndices order). No other row is
	// computed.
	Hidden *tensor.Matrix
	// ReusedTokens counts prefix tokens served from cache; ComputedTokens
	// counts tokens that went through the transformer in this call
	// (including any item caches recomputed on a miss).
	ReusedTokens, ComputedTokens int
	// NewItemCaches holds per-candidate caches computed on a miss during an
	// ItemPrefix run, for the caller to admit into its cache pool.
	NewItemCaches map[int]*model.KVCache
	// NewUserCache holds the user cache computed during a UserPrefix run
	// that had no cache hit.
	NewUserCache *model.KVCache
	// DedupedTokens counts prefix tokens whose forward was shared from
	// another identical in-batch miss (ExecuteBatch's plan-time dedup): the
	// tokens are still accounted in ComputedTokens — so a response does not
	// depend on its batch — but their transformer pass ran once for the
	// whole batch and this run received a bit-identical clone.
	DedupedTokens int
}

// Execute runs GR inference for one layout, reusing whatever caches
// contains: a batch of one through ExecuteBatch. Caller-supplied caches are
// never mutated.
func Execute(w *model.Weights, l *Layout, caches CacheSet) (*Run, error) {
	return ExecuteCancelable(w, l, caches, nil)
}

// ExecuteCancelable is Execute with a cooperative cancellation hook: cancel
// (nil = never cancel) is polled at ExecuteBatchCancelable's phase
// boundaries, so a request whose client disconnected or whose deadline
// expired stops burning model compute at the next boundary.
func ExecuteCancelable(w *model.Weights, l *Layout, caches CacheSet, cancel func() error) (*Run, error) {
	runs, errs := ExecuteBatchCancelable(w, []BatchItem{{Layout: l, Caches: caches}}, []func() error{cancel})
	return runs[0], errs[0]
}

// Scores reads candidate scores off a run's readout rows, in candidate
// order. One discriminant row scores every candidate by its identifier
// token's logit; a multi-disc run has one row per candidate and scores each
// on its own identifier token, s_i = z_i[v_i] (§4.2's per-item readout).
func Scores(w *model.Weights, run *Run, candTokens []int) ([]float32, error) {
	h := run.Hidden
	switch h.Rows {
	case 1:
		return w.LogitsFor(h.Row(0), candTokens), nil
	case len(candTokens):
		scores := make([]float32, h.Rows)
		for i := range scores {
			scores[i] = w.LogitsFor(h.Row(i), candTokens[i:i+1])[0]
		}
		return scores, nil
	default:
		return nil, fmt.Errorf("bipartite: %d readout rows for %d candidates", h.Rows, len(candTokens))
	}
}

// appendReadoutRows appends to dst, each shifted by off, the layout indices
// whose hidden states a run reads: each candidate's discriminant for a
// multi-disc layout, else the last token.
func (l *Layout) appendReadoutRows(dst []int, off int) []int {
	if l.discs == nil {
		return append(dst, off+l.Len()-1)
	}
	for _, r := range l.discs {
		dst = append(dst, off+r)
	}
	return dst
}
