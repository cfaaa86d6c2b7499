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
	// last token's, or each candidate's discriminant for a multi-disc layout
	// (Layout.DiscriminantIndices order). No other row is computed.
	Hidden *tensor.Matrix
	// Discriminant is the final hidden state of the discriminant token.
	Discriminant []float32
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
	// tokens are still accounted in ComputedTokens — so responses match
	// per-request Execute exactly — but their transformer pass ran once for
	// the whole batch and this run received a bit-identical clone.
	DedupedTokens int
}

// Execute runs GR inference for a layout, reusing whatever caches contains.
// Caller-supplied caches are never mutated.
func Execute(w *model.Weights, l *Layout, caches CacheSet) (*Run, error) {
	return ExecuteCancelable(w, l, caches, nil)
}

// ExecuteCancelable is Execute with a cooperative cancellation hook: cancel
// (nil = never cancel) is polled at phase boundaries — before the prefix
// forward, before miss recomputes, and before the suffix forward — so a
// request whose client disconnected or whose deadline expired stops burning
// model compute at the next boundary instead of running to completion.
func ExecuteCancelable(w *model.Weights, l *Layout, caches CacheSet, cancel func() error) (*Run, error) {
	if err := checkCancel(cancel); err != nil {
		return nil, err
	}
	switch l.Kind {
	case UserPrefix:
		return executeUserPrefix(w, l, caches.User, cancel)
	case ItemPrefix:
		return executeItemPrefix(w, l, caches.Items, cancel)
	default:
		return nil, fmt.Errorf("bipartite: unknown layout kind %d", int(l.Kind))
	}
}

// readoutRows returns the suffix-relative rows whose hidden states a run
// reads: each candidate's discriminant for a multi-disc layout, else the
// last token.
func (l *Layout) readoutRows() []int {
	rows := l.DiscriminantIndices()
	if rows == nil {
		return []int{l.Len() - l.PrefixLen - 1}
	}
	for i := range rows {
		rows[i] -= l.PrefixLen
	}
	return rows
}

func checkCancel(cancel func() error) error {
	if cancel == nil {
		return nil
	}
	return cancel()
}

func executeUserPrefix(w *model.Weights, l *Layout, userCache *model.KVCache, cancel func() error) (*Run, error) {
	run := &Run{Layout: l}
	suffix := l.Tokens[l.PrefixLen:]
	pos := l.Pos[l.PrefixLen:]
	prefix := userCache
	if prefix != nil {
		if prefix.Len() != l.PrefixLen {
			return nil, fmt.Errorf("bipartite: user cache covers %d tokens, layout prefix is %d", prefix.Len(), l.PrefixLen)
		}
		run.ReusedTokens = l.PrefixLen
	} else {
		prefix = model.NewKVCache(w.Config())
		if l.PrefixLen > 0 {
			w.ForwardRows(l.Tokens[:l.PrefixLen], l.Pos[:l.PrefixLen], l.Mask(), prefix, nil)
			run.ComputedTokens += l.PrefixLen
			run.NewUserCache = prefix
		}
	}
	if err := checkCancel(cancel); err != nil {
		return nil, err
	}
	// The suffix extends a view of the prefix, so the prefix — cached or just
	// computed — is neither copied nor written.
	ctx := model.ConcatCachesReserve(len(suffix), prefix)
	run.Hidden = w.ForwardRows(suffix, pos, l.Mask(), ctx, l.readoutRows())
	ctx.Release() // return the tail to its pool
	run.ComputedTokens += len(suffix)
	run.Discriminant = run.Hidden.Row(run.Hidden.Rows - 1)
	return run, nil
}

func executeItemPrefix(w *model.Weights, l *Layout, itemCaches map[int]*model.KVCache, cancel func() error) (*Run, error) {
	run := &Run{Layout: l}
	segs := l.ItemSegments()
	parts := make([]*model.KVCache, len(segs))
	var missIdx []int
	for si, seg := range segs {
		if c, ok := itemCaches[seg.Item]; ok && c != nil {
			if c.Len() != seg.Len {
				return nil, fmt.Errorf("bipartite: item %d cache covers %d tokens, segment has %d", seg.Item, c.Len(), seg.Len)
			}
			parts[si] = c
			run.ReusedTokens += seg.Len
			continue
		}
		missIdx = append(missIdx, si)
	}
	if err := checkCancel(cancel); err != nil {
		return nil, err
	}
	// Recompute every miss with the layout's own anchor position so PIC
	// layouts produce PIC-valid caches. Items attend only to themselves, so
	// the misses are independent forwards and fan out across the worker
	// pool; each writes only its own parts slot, keeping results identical
	// to the serial loop. Bookkeeping stays on this goroutine.
	tensor.Parallel(len(missIdx), func(m int) {
		seg := segs[missIdx[m]]
		parts[missIdx[m]] = ComputeItemCacheAt(w, l.Tokens[seg.Start:seg.Start+seg.Len], seg.PosStart)
	})
	for _, si := range missIdx {
		seg := segs[si]
		run.ComputedTokens += seg.Len
		if run.NewItemCaches == nil {
			run.NewItemCaches = make(map[int]*model.KVCache)
		}
		run.NewItemCaches[seg.Item] = parts[si]
	}
	if err := checkCancel(cancel); err != nil {
		return nil, err
	}
	// Assemble the context once, with room for the suffix: a view of the
	// caches, which stay untouched.
	suffix := l.Tokens[l.PrefixLen:]
	pos := l.Pos[l.PrefixLen:]
	ctx := model.ConcatCachesReserve(len(suffix), parts...)
	run.Hidden = w.ForwardRows(suffix, pos, l.Mask(), ctx, l.readoutRows())
	ctx.Release() // return the tail to its pool
	run.ComputedTokens += len(suffix)
	run.Discriminant = run.Hidden.Row(run.Hidden.Rows - 1)
	return run, nil
}
