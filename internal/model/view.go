package model

import "sync"

// viewStore is the context ConcatCaches assembles without copying its inputs:
// they are read in place, and the tokens a forward pass appends land in an
// owned tail. Attention reads a view as it reads a flatStore, one rows call
// per contiguous run, so what not copying costs is finding the input that
// holds a run's first token.
type viewStore struct {
	stride int
	parts  []viewPart // the non-empty contiguous inputs, in token order
	base   int        // tokens in parts; the tail holds tokens base, base+1, ...
	tail   *flatStore // nil once released
}

// viewPart is one input read in place: the view's tokens [start, start+n)
// are src's tokens [0, n).
type viewPart struct {
	src      *flatStore
	start, n int
}

// tailPool recycles view tails, and with them the storage of every suffix a
// cached context is extended by.
var tailPool = sync.Pool{New: func() any { return new(flatStore) }}

func newViewStore(cfg Config, caches []*KVCache, extra int) *viewStore {
	s := &viewStore{stride: cfg.KVHeads * cfg.HeadDim, parts: make([]viewPart, 0, len(caches))}
	for _, in := range caches {
		switch st := in.store.(type) {
		case *flatStore:
			s.add(st, in.n)
		case *viewStore:
			// A view input is spliced in as its own inputs plus its tail.
			for _, p := range st.parts {
				s.add(p.src, p.n)
			}
			s.add(st.tail, in.n-st.base)
		}
	}
	s.tail = tailPool.Get().(*flatStore)
	if len(s.tail.k) != cfg.Layers {
		s.tail.k, s.tail.v = make([][]float32, cfg.Layers), make([][]float32, cfg.Layers)
	}
	s.tail.cfg = cfg
	s.tail.reserve(extra)
	return s
}

// add appends src's first n tokens to the view as its next part.
func (s *viewStore) add(src *flatStore, n int) {
	if n > 0 {
		s.parts = append(s.parts, viewPart{src: src, start: s.base, n: n})
		s.base += n
	}
}

func (s *viewStore) appendToken(layer int, k, v []float32) { s.tail.appendToken(layer, k, v) }

// rows clamps a run to the end of the input that holds t: the next input's
// rows live in another slab.
func (s *viewStore) rows(layer, t int) (k, v []float32) {
	if t >= s.base {
		return s.tail.rows(layer, t-s.base)
	}
	lo, hi := 0, len(s.parts)-1 // find the last part starting at or before t
	for lo < hi {
		m := (lo + hi + 1) / 2
		if s.parts[m].start <= t {
			lo = m
		} else {
			hi = m - 1
		}
	}
	p := &s.parts[lo]
	off, end := (t-p.start)*s.stride, p.n*s.stride
	return p.src.k[layer][off:end], p.src.v[layer][off:end]
}

// truncate below the inputs' end drops the runs past n and shortens the one
// holding token n-1; the inputs themselves are untouched.
func (s *viewStore) truncate(n int) {
	if n >= s.base {
		s.tail.truncate(n - s.base)
		return
	}
	s.tail.truncate(0)
	for len(s.parts) > 0 && s.parts[len(s.parts)-1].start >= n {
		s.parts = s.parts[:len(s.parts)-1]
	}
	if last := len(s.parts) - 1; last >= 0 {
		s.parts[last].n = n - s.parts[last].start
	}
	s.base = n
}

// clone copies the view into contiguous storage of its own.
func (s *viewStore) clone() kvStore {
	out := newFlatStore(s.tail.cfg)
	for l := range out.k {
		out.k[l], out.v[l] = s.layerData(l, s.base+len(s.tail.k[l])/s.stride)
	}
	return out
}

// layerData copies layer l's first n tokens into fresh contiguous slices.
func (s *viewStore) layerData(l, n int) (k, v []float32) {
	k, v = make([]float32, 0, n*s.stride), make([]float32, 0, n*s.stride)
	for _, p := range s.parts {
		m := min(p.n, n-p.start) * s.stride
		if m <= 0 {
			break
		}
		k = append(k, p.src.k[l][:m]...)
		v = append(v, p.src.v[l][:m]...)
	}
	if m := (n - s.base) * s.stride; m > 0 {
		k = append(k, s.tail.k[l][:m]...)
		v = append(v, s.tail.v[l][:m]...)
	}
	return k, v
}

// release hands the tail back to tailPool and lets go of the inputs.
func (s *viewStore) release() {
	if s.tail == nil {
		return
	}
	s.tail.truncate(0)
	tailPool.Put(s.tail)
	s.tail, s.parts, s.base = nil, nil, 0
}
