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

// ExactKeyRanger is an optional Mask extension for masks that can name a
// query's allowed keys as a few contiguous index ranges (e.g. the
// block-diagonal cross-request mask of a packed multi-request execution):
// the advertised ranges hold exactly the allowed keys, after the engine's
// causal clamp to k <= q. Lowering such a mask only clamps its ranges — no
// per-key Allowed calls — instead of asking Allowed about every causal key.
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
// encoded by asking Allowed about every causal key once — a query always
// sees itself.
func (v *visibility) lower(mask Mask, base, n int, rows []int) {
	v.off, v.flat = append(v.off[:0], 0), v.flat[:0]
	ekr, exact := mask.(ExactKeyRanger)
	if rows != nil {
		n = len(rows)
	}
	for j := 0; j < n; j++ {
		q := base + j
		if rows != nil {
			q = base + rows[j]
		}
		if !exact {
			lo := 0
			for t := 0; t < q; t++ {
				if !mask.Allowed(q, t) {
					if lo < t {
						v.flat = append(v.flat, [2]int{lo, t})
					}
					lo = t + 1
				}
			}
			v.flat = append(v.flat, [2]int{lo, q + 1})
			v.off = append(v.off, len(v.flat))
			continue
		}
		start := len(v.flat)
		v.flat = ekr.ExactKeyRanges(q, v.flat)
		// Clamp to the causal horizon in place, dropping ranges past q.
		end := start
		for _, r := range v.flat[start:] {
			if hi := min(r[1], q+1); r[0] < hi {
				v.flat[end] = [2]int{r[0], hi}
				end++
			}
		}
		v.flat = v.flat[:end]
		v.off = append(v.off, len(v.flat))
	}
}
