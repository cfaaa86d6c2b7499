package model

import "sync"

// Mask decides which attention edges are allowed. Indices are absolute
// positions in the full context (prefix cache tokens first, then the tokens
// being computed), so a mask describes the whole prompt layout regardless of
// how much of it came from cache.
type Mask interface {
	// Allowed reports whether the query token at absolute index q may attend
	// to the key token at absolute index k. Forward never asks about k > q;
	// attention is always causal in the token axis on top of the mask.
	Allowed(q, k int) bool
}

// CausalMask allows every causal edge — plain left-to-right attention.
type CausalMask struct{}

// Allowed implements Mask.
func (CausalMask) Allowed(q, k int) bool { return true }

// MaskFunc adapts a function to the Mask interface.
type MaskFunc func(q, k int) bool

// Allowed implements Mask.
func (f MaskFunc) Allowed(q, k int) bool { return f(q, k) }

// KeyRanger is an optional Mask extension for sparse masks whose allowed
// keys cluster into a few contiguous index ranges (e.g. the block-diagonal
// cross-request mask of a packed multi-request execution). The attention
// loop scores only the advertised ranges and treats everything outside as
// masked without consulting Allowed, turning an O(total context) scan per
// query into O(own context).
type KeyRanger interface {
	// KeyRanges appends to dst the half-open [lo, hi) key-index ranges that
	// may contain allowed keys for query q, and returns the extended slice.
	// Ranges must be disjoint, ascending, and include q itself; every key
	// outside them must be disallowed for q (Allowed still filters inside).
	KeyRanges(q int, dst [][2]int) [][2]int
}

// ExactKeyRanger strengthens KeyRanger: the advertised ranges hold exactly
// the allowed keys (after the engine's causal clamp to k <= q), not merely a
// superset. The attention loop then scores the ranges with no per-key
// Allowed calls and no NegInf sentinels at all — every visited key is
// visible by contract. Because a dense pass's masked entries contribute
// exactly zero weight (exp(-Inf) == 0) in the same ascending accumulation
// order, skipping them is bit-identical, so an exact mask changes only the
// work done, never the result.
type ExactKeyRanger interface {
	// ExactKeyRanges appends to dst the half-open [lo, hi) ranges holding
	// exactly query q's allowed keys, and returns the extended slice. Ranges
	// must be disjoint and ascending, include q itself, and may extend past q
	// (the engine clamps to the causal horizon).
	ExactKeyRanges(q int, dst [][2]int) [][2]int
}

// ExactKeyRanges implements ExactKeyRanger: every causal key is allowed.
func (CausalMask) ExactKeyRanges(q int, dst [][2]int) [][2]int {
	return append(dst, [2]int{0, q + 1})
}

// visibility is a mask lowered for one forward pass: for each new query, the
// ascending, disjoint ranges holding exactly the keys it attends to, already
// clamped to its causal horizon. Attention walks these ranges and nothing
// else — no per-key mask calls, no NegInf sentinels — whatever the mask's
// own form. A masked key contributes exactly zero weight (exp(-Inf) == 0) to
// a dense pass that visits it in the same ascending order, so skipping it
// changes only the work done, never the result.
type visibility struct {
	off  []int // query i's ranges are flat[off[i]:off[i+1]]
	flat [][2]int
}

// visPool recycles lowered masks across Forward calls.
var visPool = sync.Pool{New: func() any { return &visibility{} }}

func (v *visibility) of(i int) [][2]int { return v.flat[v.off[i]:v.off[i+1]] }

// lower fills v for the queries at absolute indices base+rows[0],
// base+rows[1], ... (nil rows: every one of the n new tokens, in order). An
// ExactKeyRanger's ranges are only clamped; any other mask is run-length
// encoded by asking Allowed about every key of its KeyRanges (or of the whole
// causal context) once — a query always sees itself.
func (v *visibility) lower(mask Mask, base, n int, rows []int) {
	v.off, v.flat = append(v.off[:0], 0), v.flat[:0]
	ekr, exact := mask.(ExactKeyRanger)
	kr, _ := mask.(KeyRanger)
	if rows != nil {
		n = len(rows)
	}
	for j := 0; j < n; j++ {
		q := base + j
		if rows != nil {
			q = base + rows[j]
		}
		start := len(v.flat)
		switch {
		case exact:
			v.flat = ekr.ExactKeyRanges(q, v.flat)
		case kr != nil:
			v.flat = kr.KeyRanges(q, v.flat)
		default:
			v.flat = append(v.flat, [2]int{0, q + 1})
		}
		// v.flat[start:end] are candidate ranges; the visible ranges are
		// appended behind them, then moved down over them.
		end := len(v.flat)
		for c := start; c < end; c++ {
			lo, hi := v.flat[c][0], min(v.flat[c][1], q+1)
			for t := lo; !exact && t < hi; t++ {
				if t == q || mask.Allowed(q, t) {
					continue
				}
				if lo < t {
					v.flat = append(v.flat, [2]int{lo, t})
				}
				lo = t + 1
			}
			if lo < hi {
				v.flat = append(v.flat, [2]int{lo, hi})
			}
		}
		v.flat = append(v.flat[:start], v.flat[end:]...)
		v.off = append(v.off, len(v.flat))
	}
}
