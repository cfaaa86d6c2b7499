package model

import "fmt"

// KVCache stores per-layer key/value vectors for a processed token prefix.
// Keys carry their rotary position embedding, so a cache entry is only valid
// for reuse when the reusing prompt assigns the same position IDs to the
// cached tokens — the invariant Bipartite Attention's shared-start position
// design exists to satisfy.
//
// Storage is contiguous per-layer slices (NewKVCache), or, for a context
// ConcatCaches assembles, a view that reads its inputs in place and keeps
// the tokens appended to it in a contiguous tail of its own.
type KVCache struct {
	cfg   Config
	store kvStore
	n     int // cached token count
}

// kvStore is the storage backend contract. Token indices are global; layers
// advance independently during a forward pass (layer-major appends) but are
// level again at every public-API boundary.
type kvStore interface {
	appendToken(layer int, k, v []float32)
	// rows returns the layer's key and value rows from token t to the end of
	// the contiguous run that holds it (the whole slab for flat storage, the
	// rest of t's input for a view): token t+j's row starts at j*stride.
	// Attention indexes the slabs directly, so storage dispatch costs one
	// call per run instead of two per key.
	rows(layer, t int) (k, v []float32)
	truncate(n int)
	clone() kvStore
	// layerData returns contiguous copies (or views) of layer l's keys and
	// values covering n tokens, for serialization.
	layerData(l, n int) (k, v []float32)
	release()
}

// NewKVCache returns an empty cache with contiguous storage.
func NewKVCache(cfg Config) *KVCache {
	return &KVCache{cfg: cfg, store: newFlatStore(cfg)}
}

// Len returns the number of cached tokens.
func (c *KVCache) Len() int { return c.n }

// Config returns the architecture the cache was built for.
func (c *KVCache) Config() Config { return c.cfg }

func (c *KVCache) stride() int { return c.cfg.KVHeads * c.cfg.HeadDim }

// layerK returns the key vector of token t, kv-head h at the given layer.
func (c *KVCache) layerK(layer, t, h int) []float32 {
	k, _ := c.store.rows(layer, t)
	return k[h*c.cfg.HeadDim : (h+1)*c.cfg.HeadDim]
}

func (c *KVCache) layerV(layer, t, h int) []float32 {
	_, v := c.store.rows(layer, t)
	return v[h*c.cfg.HeadDim : (h+1)*c.cfg.HeadDim]
}

// appendToken adds one token's K/V rows for a single layer. The forward pass
// calls this layer by layer; external callers use Forward which keeps layers
// in sync.
func (c *KVCache) appendToken(layer int, k, v []float32) {
	if len(k) != c.stride() || len(v) != c.stride() {
		panic(fmt.Sprintf("model: kv append stride mismatch: %d vs %d", len(k), c.stride()))
	}
	c.store.appendToken(layer, k, v)
	if layer == c.cfg.Layers-1 {
		c.n++
	}
}

// Clone returns a deep copy of the cache in contiguous storage.
func (c *KVCache) Clone() *KVCache {
	return &KVCache{cfg: c.cfg, store: c.store.clone(), n: c.n}
}

// Truncate discards cached tokens beyond the first n. It is how a serving
// engine drops suffix tokens that are "computed and discarded" (§4.2) after a
// request completes, keeping only the reusable prefix.
func (c *KVCache) Truncate(n int) {
	if n < 0 || n > c.n {
		panic(fmt.Sprintf("model: truncate %d out of range [0,%d]", n, c.n))
	}
	c.store.truncate(n)
	c.n = n
}

// Release returns a ConcatCaches view's tail to its pool. The cache must not
// be used afterwards. Contiguous caches are garbage-collected as usual;
// Release is a no-op for them.
func (c *KVCache) Release() {
	c.store.release()
	c.n = 0
}

// CopyRange returns a new contiguous cache holding copies of tokens
// [lo, hi). It is how a packed multi-segment forward is split back into the
// independent per-segment caches the segments would have produced on their
// own (the K/V bytes are identical either way; only the storage they landed
// in differs).
func (c *KVCache) CopyRange(lo, hi int) *KVCache {
	if lo < 0 || hi < lo || hi > c.n {
		panic(fmt.Sprintf("model: copy range [%d,%d) out of [0,%d]", lo, hi, c.n))
	}
	out := NewKVCache(c.cfg)
	fs := out.store.(*flatStore)
	st := c.stride()
	for l := 0; l < c.cfg.Layers; l++ {
		k, v := c.store.layerData(l, hi)
		fs.k[l] = append(fs.k[l], k[lo*st:hi*st]...)
		fs.v[l] = append(fs.v[l], v[lo*st:hi*st]...)
	}
	out.n = hi - lo
	return out
}

// ConcatCaches builds a new cache whose token axis is the concatenation of
// the inputs, in order. All inputs must share an architecture. This is the
// operation that assembles an Item-as-prefix context from independently
// precomputed per-item caches, and a User-as-prefix context from a user's
// cache. Nothing is copied: the result is a view that reads the inputs in
// place (a view input contributes its own inputs and its tail) and keeps the
// tokens appended to it in a tail of its own, drawn from a pool that Release
// returns it to. The inputs are never written, but the view reads them for
// as long as it lives: an input must not be appended to, truncated, decoded
// into or released until the result has been released (or dropped).
func ConcatCaches(caches ...*KVCache) *KVCache { return ConcatCachesReserve(0, caches...) }

// ConcatCachesReserve is ConcatCaches for a context about to be extended: the
// result has room for extra more tokens, so the forward pass that appends the
// suffix never regrows its storage.
func ConcatCachesReserve(extra int, caches ...*KVCache) *KVCache {
	if len(caches) == 0 {
		panic("model: ConcatCaches needs at least one cache")
	}
	cfg := caches[0].cfg
	total := 0
	for _, in := range caches {
		if in.cfg.Name != cfg.Name || in.stride() != caches[0].stride() || in.cfg.Layers != cfg.Layers {
			panic(fmt.Sprintf("model: ConcatCaches architecture mismatch: %s vs %s", in.cfg.Name, cfg.Name))
		}
		total += in.n
	}
	return &KVCache{cfg: cfg, store: newViewStore(cfg, caches, extra), n: total}
}

// flatStore is the contiguous backend: one slice per layer.
type flatStore struct {
	cfg  Config
	k, v [][]float32
}

func newFlatStore(cfg Config) *flatStore {
	return &flatStore{cfg: cfg, k: make([][]float32, cfg.Layers), v: make([][]float32, cfg.Layers)}
}

func (s *flatStore) stride() int { return s.cfg.KVHeads * s.cfg.HeadDim }

func (s *flatStore) appendToken(layer int, k, v []float32) {
	s.k[layer] = append(s.k[layer], k...)
	s.v[layer] = append(s.v[layer], v...)
}

// reserve guarantees capacity for tokens more tokens in every layer so the
// forward pass's per-token appends never reallocate mid-layer.
func (s *flatStore) reserve(tokens int) {
	extra := tokens * s.stride()
	for l := range s.k {
		s.k[l] = growFloats(s.k[l], extra)
		s.v[l] = growFloats(s.v[l], extra)
	}
}

// growFloats returns b with room for at least extra more elements, doubling
// capacity so repeated single-token reserves stay amortized O(1).
func growFloats(b []float32, extra int) []float32 {
	if cap(b)-len(b) >= extra {
		return b
	}
	newCap := 2 * cap(b)
	if newCap < len(b)+extra {
		newCap = len(b) + extra
	}
	nb := make([]float32, len(b), newCap)
	copy(nb, b)
	return nb
}

func (s *flatStore) rows(layer, t int) (k, v []float32) {
	off := t * s.stride()
	return s.k[layer][off:], s.v[layer][off:]
}

func (s *flatStore) truncate(n int) {
	for l := range s.k {
		s.k[l] = s.k[l][:n*s.stride()]
		s.v[l] = s.v[l][:n*s.stride()]
	}
}

func (s *flatStore) clone() kvStore {
	out := newFlatStore(s.cfg)
	for l := range s.k {
		out.k[l] = append([]float32(nil), s.k[l]...)
		out.v[l] = append([]float32(nil), s.v[l]...)
	}
	return out
}

func (s *flatStore) layerData(l, n int) (k, v []float32) {
	return s.k[l][:n*s.stride()], s.v[l][:n*s.stride()]
}

func (s *flatStore) release() {}
