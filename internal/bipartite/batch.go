package bipartite

import (
	"encoding/binary"
	"fmt"
	"strings"

	"bat/internal/model"
	"bat/internal/tensor"
)

// BatchItem pairs one request's resolved layout with the prefix caches
// available to serve it. A batch of items is executed as ONE packed forward.
type BatchItem struct {
	Layout *Layout
	Caches CacheSet
}

// ExecuteBatch runs GR inference for several requests as a single batched
// forward: every request's prefix context (cached or recomputed) is
// concatenated into one KV store, every request's suffix tokens are packed
// into one token sequence, and a block-diagonal cross-request mask keeps
// request r's queries from seeing request s's keys. Because attention scores
// for masked keys are exactly NegInf -> exactly 0 weight, and every row-wise
// op (embeddings, RMSNorm, GEMM rows, RoPE) is independent per token with a
// fixed scalar summation order, each item's readout rows are bit-identical
// to ForwardReference over that item's whole layout — at any batch split.
// Execute is a batch of one.
//
// Caller-supplied caches are never mutated.
func ExecuteBatch(w *model.Weights, items []BatchItem) ([]*Run, error) {
	runs, errs := ExecuteBatchCancelable(w, items, nil)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// ExecuteBatchCancelable is ExecuteBatch with per-item cooperative
// cancellation: cancels[i] (nil = never cancel) is polled at phase
// boundaries — before item i's prefix resolution and again before the packed
// suffix forward. A canceled or failed item gets a per-item error and is
// excluded from the packed forward; the surviving items' results are
// unaffected (the cross-request mask already isolated them).
//
// Returned slices are index-aligned with items: exactly one of runs[i],
// errs[i] is non-nil.
func ExecuteBatchCancelable(w *model.Weights, items []BatchItem, cancels []func() error) ([]*Run, []error) {
	n := len(items)
	runs := make([]*Run, n)
	errs := make([]error, n)
	if n == 0 {
		return runs, errs
	}
	cancelAt := func(i int) error {
		if cancels == nil || cancels[i] == nil {
			return nil
		}
		return cancels[i]()
	}

	// Phase A: resolve every item's prefix context — reuse caches that cover
	// the layout prefix, recompute the rest. Recomputes are planned at the
	// batch level: misses across the whole batch are keyed by content
	// (prefix kind, anchor position, tokens), each unique computation runs
	// exactly once on the worker pool, and every further slot that wanted the
	// same prefix receives a bit-identical clone instead of a duplicate
	// forward. Each unique forward is the prefix's own causal forward under
	// its layout mask, so results stay bit-identical at any batch split —
	// dedup only removes repeated work, never changes it.
	parts := make([][]*model.KVCache, n)
	var plan missPlan
	for i := range items {
		if err := cancelAt(i); err != nil {
			errs[i] = err
			continue
		}
		runs[i] = &Run{Layout: items[i].Layout}
		p, err := plan.classifyPrefix(items[i].Layout, items[i].Caches, runs[i], i)
		if err != nil {
			errs[i], runs[i] = err, nil
			continue
		}
		parts[i] = p
	}
	// Compute every unique missing prefix in ONE packed forward: units are
	// mutually invisible segments (same block-diagonal argument as the suffix
	// pack below), so batching them is bit-identical to running each alone —
	// and turns the batch's N miss forwards into one.
	plan.computeAll(w)
	plan.distribute(runs, parts)
	// Boundary poll before committing to the packed forward.
	for i := range items {
		if runs[i] == nil {
			continue
		}
		if err := cancelAt(i); err != nil {
			errs[i], runs[i] = err, nil
		}
	}

	// Phase B: pack the survivors. Batched absolute index space is
	// [all prefixes, in item order][all suffixes, in item order]. Each item's
	// keys occupy two contiguous batched-index ranges (its prefix block and
	// its suffix block); the batch mask maps an index back to its item's own
	// layout index through them and delegates to that layout's mask, and the
	// attention loop skips foreign blocks wholesale. owner names the item of
	// each suffix token, so nothing here grows with the cached prefix.
	var alive []int
	totalPrefix, totalSuffix := 0, 0
	for i := range items {
		if runs[i] == nil {
			continue
		}
		alive = append(alive, i)
		totalPrefix += prefixLen(parts[i])
		totalSuffix += items[i].Layout.Len() - items[i].Layout.PrefixLen
	}
	if len(alive) == 0 {
		return runs, errs
	}
	owner := make([]int32, totalSuffix)
	prefRange := make([][2]int, n)
	sufRange := make([][2]int, n)
	off := 0
	for _, i := range alive {
		prefRange[i] = [2]int{off, off + prefixLen(parts[i])}
		off = prefRange[i][1]
	}
	sufTokens := make([]int, 0, totalSuffix)
	sufPos := make([]int, 0, totalSuffix)
	// readRows are the packed suffix rows whose hidden states the runs read;
	// item i's are readRows[readRange[i][0]:readRange[i][1]].
	readRows := make([]int, 0, len(alive))
	readRange := make([][2]int, n)
	for _, i := range alive {
		l := items[i].Layout
		readRange[i][0] = len(readRows)
		readRows = l.appendReadoutRows(readRows, len(sufTokens)-l.PrefixLen)
		readRange[i][1] = len(readRows)
		sufRange[i][0] = off
		for t := l.PrefixLen; t < l.Len(); t++ {
			owner[off-totalPrefix] = int32(i)
			off++
			sufTokens = append(sufTokens, l.Tokens[t])
			sufPos = append(sufPos, l.Pos[t])
		}
		sufRange[i][1] = off
	}

	var all []*model.KVCache
	for _, i := range alive {
		all = append(all, parts[i]...)
	}
	var combined *model.KVCache
	if len(all) > 0 {
		combined = model.ConcatCachesReserve(totalSuffix, all...)
	} else {
		combined = model.NewKVCache(w.Config())
	}
	masks := make([]layoutMask, n)
	for _, i := range alive {
		masks[i] = layoutMask{items[i].Layout}
	}
	mask := newBatchMask(totalPrefix, owner, masks, prefRange, sufRange)
	hidden := w.ForwardRows(sufTokens, sufPos, mask, combined, readRows)
	combined.Release() // return the tail to its pool

	// Split the read rows back into per-item views (zero copy).
	for _, i := range alive {
		l := items[i].Layout
		lo, hi := readRange[i][0], readRange[i][1]
		runs[i].Hidden = tensor.FromSlice(hi-lo, hidden.Cols, hidden.Data[lo*hidden.Cols:hi*hidden.Cols])
		runs[i].ComputedTokens += l.Len() - l.PrefixLen
	}
	return runs, errs
}

// prefixLen sums the cached-context length a part list contributes.
func prefixLen(parts []*model.KVCache) int {
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	return total
}

// missPlan is the batch-level shared-miss planner: prefix computations the
// supplied caches could not cover, keyed by content so identical recomputes
// anywhere in the batch collapse into one unit. Today's commit-side
// first-admission-wins only drops duplicate caches after every slot has
// already paid for its own forward; planning the dedup before execution is
// what turns N identical in-batch misses into one recompute.
type missPlan struct {
	index map[string]*missUnit
	units []*missUnit
}

// missUnit is one unique prefix computation plus every batch slot waiting on
// it. The first destination adopts the computed cache itself; later
// destinations receive bit-identical clones, so downstream commit paths
// (cache pools) still own one distinct object per admission and can evict
// them independently.
type missUnit struct {
	user     bool
	tokens   []int
	pos      []int // user-prefix position IDs (item units derive theirs from posStart)
	posStart int
	mask     model.Mask // user-prefix misses forward under their layout mask
	cache    *model.KVCache
	dests    []missDest
}

// missDest routes one computed unit into a batch slot's bookkeeping.
type missDest struct {
	item int // batch slot index
	part int // index into that slot's ordered prefix parts; -1 = user prefix
	slot int // layout candidate slot for NewItemCaches (item units only)
}

func (p *missPlan) add(key string, unit missUnit, d missDest) {
	if p.index == nil {
		p.index = make(map[string]*missUnit)
	}
	if u, ok := p.index[key]; ok {
		u.dests = append(u.dests, d)
		return
	}
	u := &unit
	u.dests = append(u.dests, d)
	p.index[key] = u
	p.units = append(p.units, u)
}

// classifyPrefix resolves one item's prefix against its caches without
// computing anything: cache hits fill the returned parts directly, misses are
// registered with the planner and left as nil holes for distribute to fill
// after the unique computations run. Validation happens before any unit is
// registered, so a failed item never leaves dangling destinations.
func (p *missPlan) classifyPrefix(l *Layout, caches CacheSet, run *Run, item int) ([]*model.KVCache, error) {
	switch l.Kind {
	case UserPrefix:
		if c := caches.User; c != nil {
			if c.Len() != l.PrefixLen {
				return nil, fmt.Errorf("bipartite: user cache covers %d tokens, layout prefix is %d", c.Len(), l.PrefixLen)
			}
			run.ReusedTokens = l.PrefixLen
			return []*model.KVCache{c}, nil
		}
		if l.PrefixLen == 0 {
			return nil, nil
		}
		// The layout mask restricted to the prefix region is a function of
		// the user segment alone (prefix queries and keys share one segment),
		// so content equality of (tokens, positions) implies an identical
		// forward.
		p.add(userMissKey(l), missUnit{
			user: true, tokens: l.Tokens[:l.PrefixLen], pos: l.Pos[:l.PrefixLen], mask: l.Mask(),
		}, missDest{item: item, part: -1})
		return make([]*model.KVCache, 1), nil
	case ItemPrefix:
		segs := l.ItemSegments()
		parts := make([]*model.KVCache, len(segs))
		var missIdx []int
		for si, seg := range segs {
			if c, ok := caches.Items[seg.Item]; ok && c != nil {
				if c.Len() != seg.Len {
					return nil, fmt.Errorf("bipartite: item %d cache covers %d tokens, segment has %d", seg.Item, c.Len(), seg.Len)
				}
				parts[si] = c
				run.ReusedTokens += seg.Len
				continue
			}
			missIdx = append(missIdx, si)
		}
		for _, si := range missIdx {
			seg := segs[si]
			toks := l.Tokens[seg.Start : seg.Start+seg.Len]
			p.add(itemMissKey(seg.PosStart, toks), missUnit{tokens: toks, posStart: seg.PosStart},
				missDest{item: item, part: si, slot: seg.Item})
		}
		return parts, nil
	default:
		return nil, fmt.Errorf("bipartite: unknown layout kind %d", int(l.Kind))
	}
}

// compute runs one unit's forward alone, K/V only.
func (u *missUnit) compute(w *model.Weights) *model.KVCache {
	if u.user {
		c := model.NewKVCache(w.Config())
		w.ForwardRows(u.tokens, u.pos, u.mask, c, nil)
		return c
	}
	return ComputeItemCacheAt(w, u.tokens, u.posStart)
}

// computeAll fills every unit's cache. Two or more units run as one packed
// forward under a block-diagonal mask — each unit's queries see only its own
// keys, and within a unit exactly what that unit's solo forward would allow —
// then the combined K/V store is split back into the independent per-unit
// caches the solo forwards would have produced. Row-independent ops plus
// per-query attention confined to the unit's own ascending key order make the
// packed pass bit-identical to computing each unit alone (the ExecuteBatch
// suffix-packing argument, applied to the prefix side).
func (p *missPlan) computeAll(w *model.Weights) {
	if len(p.units) == 0 {
		return
	}
	if len(p.units) == 1 {
		p.units[0].cache = p.units[0].compute(w)
		return
	}
	tokens, pos, mask := p.pack()
	combined := model.NewKVCache(w.Config())
	w.ForwardRows(tokens, pos, mask, combined, nil) // K/V only
	for ui, r := range mask.ranges {
		p.units[ui].cache = combined.CopyRange(r[0], r[1])
	}
}

// pack lays the units out back to back and returns their tokens, positions
// and block-diagonal mask.
func (p *missPlan) pack() (tokens, pos []int, mask unitsMask) {
	total := 0
	for _, u := range p.units {
		total += len(u.tokens)
	}
	tokens = make([]int, 0, total)
	pos = make([]int, 0, total)
	mask = unitsMask{owner: make([]int32, 0, total), units: p.units, ranges: make([][2]int, len(p.units))}
	for ui, u := range p.units {
		start := len(tokens)
		tokens = append(tokens, u.tokens...)
		if u.user {
			pos = append(pos, u.pos...)
		} else {
			for i := range u.tokens {
				pos = append(pos, u.posStart+i)
			}
		}
		for range u.tokens {
			mask.owner = append(mask.owner, int32(ui))
		}
		mask.ranges[ui] = [2]int{start, len(tokens)}
	}
	return tokens, pos, mask
}

// unitsMask is the block-diagonal mask for the packed miss-unit forward. A
// query sees a key only within its own unit; user units additionally apply
// their layout mask over the unit's local (= layout prefix) indices, item
// units are plain causal (the engine's k <= q rule, which in batched index
// space restricted to one contiguous unit equals the unit's own causality).
type unitsMask struct {
	owner  []int32 // batched index -> unit index
	units  []*missUnit
	ranges [][2]int // per-unit contiguous batched-index blocks
}

func (m unitsMask) Allowed(q, k int) bool {
	o := m.owner[q]
	if m.owner[k] != o {
		return false
	}
	if u := m.units[o]; u.user {
		lo := m.ranges[o][0]
		return u.mask.Allowed(q-lo, k-lo)
	}
	return true
}

// ExactKeyRanges implements model.ExactKeyRanger: every causal pair inside a
// unit is allowed — an item unit is plain causal, and a user unit is its
// layout's one user segment, within which the layout mask allows every pair
// — so a query's visible keys are precisely its own unit's block.
func (m unitsMask) ExactKeyRanges(q int, dst [][2]int) [][2]int {
	return append(dst, m.ranges[m.owner[q]])
}

// distribute hands each computed unit to its destinations. Every destination
// accounts the tokens as computed — so a response's accounting does not
// depend on what else rode in its batch — while destinations beyond the first
// additionally count as deduped (the forward they did not have to run).
func (p *missPlan) distribute(runs []*Run, parts [][]*model.KVCache) {
	for _, u := range p.units {
		for di, d := range u.dests {
			run := runs[d.item]
			c := u.cache
			if di > 0 {
				c = u.cache.Clone()
				run.DedupedTokens += len(u.tokens)
			}
			run.ComputedTokens += len(u.tokens)
			if d.part < 0 {
				run.NewUserCache = c
				parts[d.item][0] = c
			} else {
				if run.NewItemCaches == nil {
					run.NewItemCaches = make(map[int]*model.KVCache)
				}
				run.NewItemCaches[d.slot] = c
				parts[d.item][d.part] = c
			}
		}
	}
}

// itemMissKey and userMissKey are the planner's content keys: equal keys
// guarantee equal forwards (same tokens, same anchor positions, same
// prefix-region mask behavior). A key is a kind byte followed by every value
// as 8 fixed-width bytes, so it spells out its content exactly: there is no
// hash, and two different misses never share a key.
func itemMissKey(posStart int, tokens []int) string {
	var b strings.Builder
	b.Grow(1 + 8*(1+len(tokens)))
	b.WriteByte('i')
	writeKeyInt(&b, posStart)
	for _, t := range tokens {
		writeKeyInt(&b, t)
	}
	return b.String()
}

func userMissKey(l *Layout) string {
	var b strings.Builder
	b.Grow(1 + 16*l.PrefixLen)
	b.WriteByte('u')
	for i := 0; i < l.PrefixLen; i++ {
		writeKeyInt(&b, l.Tokens[i])
		writeKeyInt(&b, l.Pos[i])
	}
	return b.String()
}

func writeKeyInt(b *strings.Builder, v int) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], uint64(v))
	b.Write(w[:])
}

// batchMask is the block-diagonal cross-request mask: a query sees a key only
// when both belong to the same item, and then exactly when that item's own
// layout mask allows the pair. Indices are batched absolute positions over
// (all packed prefixes, then all packed suffixes); queries are always packed
// suffix tokens, the only tokens the batched forward computes.
type batchMask struct {
	base  int     // batched index of the first suffix token (= total prefix)
	owner []int32 // suffix token (batched index - base) -> items index
	masks []layoutMask
	// prefRange/sufRange are each item's contiguous batched-index key
	// blocks.
	prefRange [][2]int
	sufRange  [][2]int
	// Every packed suffix query's exact visible keys, pretranslated into
	// batched index space: query qi's are flat[off[qi]:off[qi+1]].
	off  []int32
	flat [][2]int
}

// newBatchMask precomputes each packed suffix query's exact ranges by
// translating its item's own exact ranges into batched index space: the
// layout-local range is split at the item's prefix length, the prefix piece
// lands in the item's packed prefix block, the suffix piece in its packed
// suffix block. Both blocks are contiguous and items are packed in order, so
// translated ranges stay disjoint and ascending.
func newBatchMask(base int, owner []int32, masks []layoutMask, prefRange, sufRange [][2]int) batchMask {
	m := batchMask{base: base, owner: owner, masks: masks, prefRange: prefRange, sufRange: sufRange}
	m.off = make([]int32, len(owner)+1)
	m.flat = make([][2]int, 0, 3*len(owner))
	var lr [][2]int
	for qi, o := range owner {
		pre, suf := prefRange[o], sufRange[o]
		p := pre[1] - pre[0] // the item's layout prefix length
		lr = masks[o].ExactKeyRanges(p+base+qi-suf[0], lr[:0])
		for _, r := range lr {
			if lo, hi := r[0], min(r[1], p); lo < hi {
				m.flat = append(m.flat, [2]int{pre[0] + lo, pre[0] + hi})
			}
			if lo, hi := max(r[0], p), r[1]; lo < hi {
				m.flat = append(m.flat, [2]int{suf[0] + lo - p, suf[0] + hi - p})
			}
		}
		m.off[qi+1] = int32(len(m.flat))
	}
	return m
}

// local maps batched index k to item o's own layout index, and reports
// whether k belongs to item o at all.
func (m batchMask) local(o int32, k int) (int, bool) {
	p := m.prefRange[o]
	if p[0] <= k && k < p[1] {
		return k - p[0], true
	}
	if s := m.sufRange[o]; s[0] <= k && k < s[1] {
		return p[1] - p[0] + k - s[0], true
	}
	return 0, false
}

func (m batchMask) Allowed(q, k int) bool {
	o := m.owner[q-m.base]
	lk, ok := m.local(o, k)
	if !ok {
		return false
	}
	lq, _ := m.local(o, q)
	return m.masks[o].Allowed(lq, lk)
}

// ExactKeyRanges implements model.ExactKeyRanger.
func (m batchMask) ExactKeyRanges(q int, dst [][2]int) [][2]int {
	qi := q - m.base
	return append(dst, m.flat[m.off[qi]:m.off[qi+1]]...)
}
