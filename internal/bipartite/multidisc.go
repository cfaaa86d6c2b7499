package bipartite

import (
	"fmt"
	"slices"
)

// Multi-discriminant layouts implement §4.2's extension: "our mechanism can
// be extended to multiple tokens by applying attention to them, e.g., one
// discriminant token per item, as in other works [29, 84]". Instead of one
// last token scoring every candidate, the prompt ends in a block of N
// discriminant tokens; discriminant i attends the user segment and candidate
// i only, so its hidden state captures that one user-item interaction —
// HSTU's per-item readout, expressed in the bipartite framework.
//
// The layout keeps both Bipartite Attention properties: items stay
// mask-isolated and position-shared (their caches remain reusable), and the
// discriminant block is permutation-equivariant — permuting candidates
// permutes the scores. Under User-as-prefix each score is an exact pairwise
// user-item function; under Item-as-prefix the user segment reads the whole
// candidate set (as in the single-discriminant layout), so candidates couple
// weakly through the user's hidden states.

// SegDisc labels a per-item discriminant token's segment. It extends the
// SegmentKind enum declared in bipartite.go.
const SegDisc SegmentKind = 3

// BuildMultiDisc constructs a per-item-discriminant layout. The prompt's
// Instr must hold exactly one token: the discriminant token to replicate
// once per candidate.
func BuildMultiDisc(kind PrefixKind, p Prompt) (*Layout, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(p.Instr) != 1 {
		return nil, fmt.Errorf("bipartite: multi-discriminant layouts need exactly one instruction token, got %d", len(p.Instr))
	}
	// One discriminant token per candidate replaces the instruction.
	l := newLayout(kind, p.promptLen()-1+len(p.Items), 2*len(p.Items)+1)
	var discStart int
	switch kind {
	case UserPrefix:
		itemStart := len(p.User)
		l.addSegment(SegUser, -1, p.User, 0)
		for i, it := range p.Items {
			l.addSegment(SegItem, i, it, itemStart)
		}
		l.PrefixLen = len(p.User)
		discStart = itemStart + maxItemLen(p.Items)
	case ItemPrefix:
		for i, it := range p.Items {
			l.addSegment(SegItem, i, it, 0)
		}
		l.addSegment(SegUser, -1, p.User, maxItemLen(p.Items))
		l.PrefixLen = 0
		for _, it := range p.Items {
			l.PrefixLen += len(it)
		}
		discStart = maxItemLen(p.Items) + len(p.User)
	default:
		return nil, fmt.Errorf("bipartite: unknown prefix kind %d", int(kind))
	}
	// One discriminant per candidate, all sharing a position: like the
	// items themselves, the discriminant block is an unordered set.
	for i := range p.Items {
		l.addSegment(SegDisc, i, p.Instr, discStart)
	}
	return l, nil
}

// DiscriminantIndices returns the absolute token index of each candidate's
// discriminant, in candidate order. It returns nil for single-discriminant
// layouts.
func (l *Layout) DiscriminantIndices() []int { return slices.Clone(l.discs) }

// multiDiscMask extends the layout mask: discriminant i sees the user, item
// i, and itself — never other items or other discriminants, so candidate
// scores are pairwise user-item functions.
func (m layoutMask) allowedDisc(qs, ks Segment) bool {
	switch ks.Kind {
	case SegUser:
		return true
	case SegItem, SegDisc:
		return qs.Item == ks.Item
	default:
		return false
	}
}
