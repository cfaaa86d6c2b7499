package model

import "fmt"

// BlockArena is a PagedAttention-style block pool: KV storage carved into
// fixed-size pages of blockTokens tokens (across all layers), allocated from
// a free list and shared between caches by reference counting. Block-aligned
// prefix content concatenates and clones without copying — the mechanism
// that lets one physical item or user prefix serve many in-flight contexts,
// exactly the role GPU page tables play under vLLM (§5.1: "fixed-size pages
// compatible with PagedAttention").
//
// The arena is not safe for concurrent use; each inference worker owns one.
type BlockArena struct {
	cfg         Config
	blockTokens int
	stride      int
	slabFloats  int

	slabs [][]float32
	refs  []int
	free  []int

	shareEvents int64
}

// NewBlockArena builds an arena for the given architecture and page size.
func NewBlockArena(cfg Config, blockTokens int) (*BlockArena, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if blockTokens <= 0 {
		return nil, fmt.Errorf("model: block size must be positive, got %d", blockTokens)
	}
	stride := cfg.KVHeads * cfg.HeadDim
	return &BlockArena{
		cfg:         cfg,
		blockTokens: blockTokens,
		stride:      stride,
		slabFloats:  cfg.Layers * 2 * blockTokens * stride,
	}, nil
}

// BlockTokens returns the page size in tokens.
func (a *BlockArena) BlockTokens() int { return a.blockTokens }

// NewKVCache returns an empty cache whose storage pages live in the arena.
func (a *BlockArena) NewKVCache() *KVCache {
	return &KVCache{cfg: a.cfg, store: &pagedStore{arena: a, cursor: make([]int, a.cfg.Layers)}}
}

// Adopt copies a cache into arena-backed storage — how a freshly computed
// prefix is admitted into the shared page pool. The source is untouched.
func (a *BlockArena) Adopt(c *KVCache) *KVCache {
	if c.cfg.Name != a.cfg.Name || c.stride() != a.stride || c.cfg.Layers != a.cfg.Layers {
		panic(fmt.Sprintf("model: Adopt architecture mismatch: %s vs %s", c.cfg.Name, a.cfg.Name))
	}
	out := a.NewKVCache()
	out.store.appendFrom(c.store, c.n, 0)
	out.n = c.n
	return out
}

// ArenaStats snapshots the pool.
type ArenaStats struct {
	BlocksAllocated int   // total slabs ever created
	BlocksInUse     int   // slabs with a live reference
	BlocksFree      int   // slabs on the free list
	ShareEvents     int64 // block shares performed by clone/concat
}

// Stats reports pool usage.
func (a *BlockArena) Stats() ArenaStats {
	return ArenaStats{
		BlocksAllocated: len(a.slabs),
		BlocksInUse:     len(a.slabs) - len(a.free),
		BlocksFree:      len(a.free),
		ShareEvents:     a.shareEvents,
	}
}

func (a *BlockArena) alloc() int {
	if n := len(a.free); n > 0 {
		id := a.free[n-1]
		a.free = a.free[:n-1]
		a.refs[id] = 1
		return id
	}
	a.slabs = append(a.slabs, make([]float32, a.slabFloats))
	a.refs = append(a.refs, 1)
	return len(a.slabs) - 1
}

func (a *BlockArena) incref(id int) { a.refs[id]++; a.shareEvents++ }

func (a *BlockArena) decref(id int) {
	a.refs[id]--
	if a.refs[id] == 0 {
		a.free = append(a.free, id)
	}
}

// kOff and vOff locate a token's row inside a slab.
func (a *BlockArena) kOff(layer, slot int) int {
	return (layer*2)*a.blockTokens*a.stride + slot*a.stride
}

func (a *BlockArena) vOff(layer, slot int) int {
	return (layer*2+1)*a.blockTokens*a.stride + slot*a.stride
}

// pagedStore is the arena-backed kvStore.
type pagedStore struct {
	arena  *BlockArena
	blocks []int
	// cursor tracks the per-layer append position: layers advance
	// independently within one forward pass and are level between passes.
	cursor []int
}

func (s *pagedStore) appendToken(layer int, k, v []float32) {
	t := s.cursor[layer]
	s.writeToken(layer, t, k, v)
	s.cursor[layer] = t + 1
}

// writeToken places one row, allocating or copy-on-writing its block.
func (s *pagedStore) writeToken(layer, t int, k, v []float32) {
	a := s.arena
	bi := t / a.blockTokens
	for bi >= len(s.blocks) {
		s.blocks = append(s.blocks, a.alloc())
	}
	id := s.blocks[bi]
	if a.refs[id] > 1 {
		// Copy-on-write: the block is shared with another cache.
		fresh := a.alloc()
		copy(a.slabs[fresh], a.slabs[id])
		a.decref(id)
		s.blocks[bi] = fresh
		id = fresh
	}
	slot := t % a.blockTokens
	copy(a.slabs[id][a.kOff(layer, slot):], k)
	copy(a.slabs[id][a.vOff(layer, slot):], v)
}

func (s *pagedStore) rows(layer, t int) (k, v []float32) {
	a := s.arena
	slab := a.slabs[s.blocks[t/a.blockTokens]]
	slot := t % a.blockTokens
	return slab[a.kOff(layer, slot):a.kOff(layer, a.blockTokens)],
		slab[a.vOff(layer, slot):a.vOff(layer, a.blockTokens)]
}

func (s *pagedStore) truncate(n int) {
	a := s.arena
	keep := (n + a.blockTokens - 1) / a.blockTokens
	for _, id := range s.blocks[keep:] {
		a.decref(id)
	}
	s.blocks = s.blocks[:keep]
	for l := range s.cursor {
		s.cursor[l] = n
	}
}

func (s *pagedStore) clone() kvStore {
	out := &pagedStore{arena: s.arena, blocks: append([]int(nil), s.blocks...), cursor: append([]int(nil), s.cursor...)}
	for _, id := range out.blocks {
		s.arena.incref(id)
	}
	return out
}

// aligned reports whether every layer cursor sits on the same block-aligned
// boundary, the precondition for sharing whole source blocks.
func (s *pagedStore) aligned() bool {
	n := s.cursor[0]
	for _, c := range s.cursor {
		if c != n {
			return false
		}
	}
	return n%s.arena.blockTokens == 0
}

func (s *pagedStore) appendFrom(src kvStore, tokens, _ int) {
	a := s.arena
	if ps, ok := src.(*pagedStore); ok && ps.arena == a && s.aligned() {
		full := tokens / a.blockTokens
		for i := 0; i < full; i++ {
			a.incref(ps.blocks[i])
			s.blocks = append(s.blocks, ps.blocks[i])
		}
		for l := range s.cursor {
			s.cursor[l] += full * a.blockTokens
		}
		// Copy the unaligned tail row by row.
		for t := full * a.blockTokens; t < tokens; t++ {
			for l := 0; l < a.cfg.Layers; l++ {
				k, v := ps.rows(l, t)
				s.writeToken(l, s.cursor[l], k[:a.stride], v[:a.stride])
			}
			for l := range s.cursor {
				s.cursor[l]++
			}
		}
		return
	}
	// Generic path: materialize each source layer once, then copy rows.
	stride := a.stride
	ks := make([][]float32, a.cfg.Layers)
	vs := make([][]float32, a.cfg.Layers)
	for l := 0; l < a.cfg.Layers; l++ {
		ks[l], vs[l] = src.layerData(l, tokens)
	}
	for t := 0; t < tokens; t++ {
		for l := 0; l < a.cfg.Layers; l++ {
			s.writeToken(l, s.cursor[l], ks[l][t*stride:(t+1)*stride], vs[l][t*stride:(t+1)*stride])
		}
		for l := range s.cursor {
			s.cursor[l]++
		}
	}
}

func (s *pagedStore) layerData(l, n int) (k, v []float32) {
	stride := s.arena.stride
	k = make([]float32, n*stride)
	v = make([]float32, n*stride)
	for t := 0; t < n; t += s.arena.blockTokens {
		pk, pv := s.rows(l, t)
		copy(k[t*stride:], pk) // a whole page, or what is left of n tokens
		copy(v[t*stride:], pv)
	}
	return k, v
}

func (s *pagedStore) release() {
	for _, id := range s.blocks {
		s.arena.decref(id)
	}
	s.blocks = nil
	for l := range s.cursor {
		s.cursor[l] = 0
	}
}
