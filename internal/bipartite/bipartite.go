// Package bipartite implements Bipartite Attention (§4 of the paper): the
// two alternative prompt organizations for generative-recommender inference —
// User-as-prefix and Item-as-prefix — together with the attention masks and
// position-ID assignments that make candidate items order-independent and
// their KV caches context-independent.
//
// The key ideas encoded here:
//
//   - Candidate items never attend to each other (block-diagonal item mask,
//     following HSTU), so items behave as an unordered set.
//   - All items share the same starting position ID — the user-prefix length
//     under User-as-prefix, zero under Item-as-prefix — so an item's keys are
//     identical no matter which request it appears in.
//   - Under Item-as-prefix, items attend only to themselves, which makes each
//     item's KV cache computable offline, in isolation, and shareable across
//     every user (§4.3).
package bipartite

import (
	"fmt"

	"bat/internal/model"
)

// PrefixKind selects which side of the bipartite prompt is the cached prefix.
type PrefixKind int

const (
	// UserPrefix organizes the prompt as [User, Items..., Instr] — the
	// conventional layout (UP in the paper's evaluation).
	UserPrefix PrefixKind = iota
	// ItemPrefix organizes the prompt as [Items..., User, Instr] (IP).
	ItemPrefix
)

// String implements fmt.Stringer.
func (k PrefixKind) String() string {
	switch k {
	case UserPrefix:
		return "user-as-prefix"
	case ItemPrefix:
		return "item-as-prefix"
	default:
		return fmt.Sprintf("PrefixKind(%d)", int(k))
	}
}

// SegmentKind labels a token span's role in the prompt.
type SegmentKind int

const (
	SegUser SegmentKind = iota
	SegItem
	SegInstr
)

// String implements fmt.Stringer.
func (k SegmentKind) String() string {
	switch k {
	case SegUser:
		return "user"
	case SegItem:
		return "item"
	case SegInstr:
		return "instr"
	case SegDisc:
		return "disc"
	default:
		return fmt.Sprintf("SegmentKind(%d)", int(k))
	}
}

// Segment is a contiguous token span within a layout.
type Segment struct {
	Kind SegmentKind
	// Item is the candidate index for SegItem segments, -1 otherwise.
	Item int
	// Start is the absolute index of the segment's first token; Len its size.
	Start, Len int
	// PosStart is the position ID assigned to the segment's first token;
	// positions increase by one within the segment.
	PosStart int
}

// Prompt is the raw material of a ranking request: user profile tokens, the
// retrieved candidate items' tokens, and instruction tokens. The final
// instruction token is the discriminant token whose logits score candidates.
type Prompt struct {
	User  []int
	Items [][]int
	Instr []int
}

// Validate checks the prompt is rankable.
func (p Prompt) Validate() error {
	if len(p.Items) == 0 {
		return fmt.Errorf("bipartite: prompt has no candidate items")
	}
	for i, it := range p.Items {
		if len(it) == 0 {
			return fmt.Errorf("bipartite: candidate item %d has no tokens", i)
		}
	}
	if len(p.Instr) == 0 {
		return fmt.Errorf("bipartite: prompt needs at least one instruction token (the discriminant token)")
	}
	return nil
}

// Layout is a fully resolved prompt: token IDs, position IDs, segment table,
// and the attention mask implied by the chosen prefix kind.
type Layout struct {
	Kind     PrefixKind
	Tokens   []int
	Pos      []int
	Segments []Segment

	// PrefixLen is the number of leading tokens eligible for KV caching:
	// the user segment under UserPrefix, all item segments under ItemPrefix.
	PrefixLen int

	// seg[i] is the index into Segments owning token i.
	seg []int
	// discs holds each per-item discriminant's absolute index, in candidate
	// order, as addSegment records them; nil for a single-discriminant
	// layout.
	discs []int
}

// Build constructs the layout for a prompt under the given prefix kind.
func Build(kind PrefixKind, p Prompt) (*Layout, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch kind {
	case UserPrefix:
		return buildUserPrefix(p), nil
	case ItemPrefix:
		return buildItemPrefix(p), nil
	default:
		return nil, fmt.Errorf("bipartite: unknown prefix kind %d", int(kind))
	}
}

// maxItemLen returns the longest candidate's token count.
func maxItemLen(items [][]int) int {
	m := 0
	for _, it := range items {
		if len(it) > m {
			m = len(it)
		}
	}
	return m
}

// newLayout returns an empty layout with room for tokens tokens in segments
// segments, so building it never regrows a slice.
func newLayout(kind PrefixKind, tokens, segments int) *Layout {
	return &Layout{
		Kind:     kind,
		Tokens:   make([]int, 0, tokens),
		Pos:      make([]int, 0, tokens),
		Segments: make([]Segment, 0, segments),
		seg:      make([]int, 0, tokens),
	}
}

// promptLen returns the prompt's total token count.
func (p Prompt) promptLen() int {
	n := len(p.User) + len(p.Instr)
	for _, it := range p.Items {
		n += len(it)
	}
	return n
}

func buildUserPrefix(p Prompt) *Layout {
	l := newLayout(UserPrefix, p.promptLen(), len(p.Items)+2)
	itemStart := len(p.User) // shared starting position for every item
	l.addSegment(SegUser, -1, p.User, 0)
	for i, it := range p.Items {
		l.addSegment(SegItem, i, it, itemStart)
	}
	l.addSegment(SegInstr, -1, p.Instr, itemStart+maxItemLen(p.Items))
	l.PrefixLen = len(p.User)
	return l
}

func buildItemPrefix(p Prompt) *Layout {
	l := newLayout(ItemPrefix, p.promptLen(), len(p.Items)+2)
	userStart := maxItemLen(p.Items) // items share starting position 0
	for i, it := range p.Items {
		l.addSegment(SegItem, i, it, 0)
	}
	l.addSegment(SegUser, -1, p.User, userStart)
	l.addSegment(SegInstr, -1, p.Instr, userStart+len(p.User))
	l.PrefixLen = 0
	for _, it := range p.Items {
		l.PrefixLen += len(it)
	}
	return l
}

func (l *Layout) addSegment(kind SegmentKind, item int, tokens []int, posStart int) {
	if len(tokens) == 0 && kind == SegUser {
		// An empty user profile is legal (brand-new user); record a
		// zero-length segment so segment indices stay aligned with roles.
		l.Segments = append(l.Segments, Segment{Kind: kind, Item: item, Start: len(l.Tokens), Len: 0, PosStart: posStart})
		return
	}
	segIdx := len(l.Segments)
	l.Segments = append(l.Segments, Segment{Kind: kind, Item: item, Start: len(l.Tokens), Len: len(tokens), PosStart: posStart})
	for off, tok := range tokens {
		l.Tokens = append(l.Tokens, tok)
		l.Pos = append(l.Pos, posStart+off)
		l.seg = append(l.seg, segIdx)
	}
	if kind == SegDisc {
		l.discs = append(l.discs, len(l.Tokens)-1)
	}
}

// Len returns the total token count.
func (l *Layout) Len() int { return len(l.Tokens) }

// SegmentOf returns the segment owning absolute token index i.
func (l *Layout) SegmentOf(i int) Segment { return l.Segments[l.seg[i]] }

// ItemSegments returns the item segments in candidate order.
func (l *Layout) ItemSegments() []Segment {
	out := make([]Segment, 0, len(l.Segments))
	for _, s := range l.Segments {
		if s.Kind == SegItem {
			out = append(out, s)
		}
	}
	return out
}

// PICItemStart is the constant position items are re-anchored to under PIC.
// Being request-independent, PIC item caches remain shareable across users;
// the offset stands in for the paper's "notation tokens such as 'Candidate
// items:'" (§4.2).
const PICItemStart = 64

// PICAdjust applies position-independent-caching (CacheBlend/EPIC-style)
// position correction to an Item-as-prefix layout for position-sensitive
// base models (§4.2 "Sensitivity to Base Models", §6.3):
//
//   - the recomputed user tokens regain their training-time positions
//     (starting at 0, as under User-as-prefix);
//   - item segments are re-anchored at the constant PICItemStart offset, so
//     a model biased toward early positions no longer mistakes the candidate
//     block for user history.
//
// Item caches for PIC serving must be precomputed at PICItemStart (see
// ComputeItemCacheAt); they stay context-independent and shareable.
func (l *Layout) PICAdjust() {
	if l.Kind != ItemPrefix {
		return // UP layouts already place the user at position 0
	}
	maxItem := 0
	userLen := 0
	for si := range l.Segments {
		seg := &l.Segments[si]
		switch seg.Kind {
		case SegUser:
			seg.PosStart = 0
			userLen = seg.Len
		case SegItem:
			seg.PosStart = PICItemStart
			if seg.Len > maxItem {
				maxItem = seg.Len
			}
		}
	}
	for si := range l.Segments {
		seg := &l.Segments[si]
		if seg.Kind == SegInstr {
			seg.PosStart = PICItemStart + maxItem + userLen
		}
		for off := 0; off < seg.Len; off++ {
			l.Pos[seg.Start+off] = seg.PosStart + off
		}
	}
}

// Mask returns the Bipartite Attention mask for this layout. Rules, applied
// on top of causality (enforced by the model):
//
//   - tokens within one segment attend causally to each other;
//   - item tokens never attend to other items' tokens (HSTU-style isolation);
//   - under UserPrefix, item tokens attend to the user segment; under
//     ItemPrefix they attend only to themselves (cache independence);
//   - user tokens attend to item tokens only under ItemPrefix (where items
//     precede them);
//   - instruction tokens attend to everything.
func (l *Layout) Mask() model.Mask {
	return layoutMask{l}
}

type layoutMask struct{ l *Layout }

// ExactKeyRanges implements model.ExactKeyRanger: a layout query's visible
// keys are the union of at most three contiguous segment spans, so the
// attention loop can walk exactly them — no per-key Allowed calls, and no
// scoring of the masked keys (other candidates' tokens) that sit between a
// query's visible spans. The spans mirror Allowed case by case; the
// TestLayoutMaskExactRangesMatchAllowed property pins the equivalence.
func (m layoutMask) ExactKeyRanges(q int, dst [][2]int) [][2]int {
	l := m.l
	si := l.seg[q]
	qs := l.Segments[si]
	span := func(s Segment) [2]int { return [2]int{s.Start, s.Start + s.Len} }
	switch qs.Kind {
	case SegInstr:
		// Instruction tokens read everything (causality clamps past q).
		return append(dst, [2]int{0, len(l.Tokens)})
	case SegDisc:
		// Discriminant i reads the user, candidate i, and itself. Segment
		// order is [user, items..., discs...] under UserPrefix and
		// [items..., user, discs...] under ItemPrefix; disc i sits at segment
		// index nItems+1+i either way.
		nItems := si - 1 - qs.Item
		if l.Kind == UserPrefix {
			if user := l.Segments[0]; user.Len > 0 {
				dst = append(dst, span(user))
			}
			return append(dst, span(l.Segments[1+qs.Item]), span(qs))
		}
		dst = append(dst, span(l.Segments[qs.Item]))
		if user := l.Segments[nItems]; user.Len > 0 {
			dst = append(dst, span(user))
		}
		return append(dst, span(qs))
	case SegUser:
		if l.Kind == ItemPrefix {
			// The item block [0, PrefixLen) and the user segment are
			// contiguous, and the user reads the whole item set.
			return append(dst, [2]int{0, qs.Start + qs.Len})
		}
		return append(dst, span(qs))
	case SegItem:
		if l.Kind == UserPrefix {
			if user := l.Segments[0]; user.Len > 0 {
				if user.Start+user.Len == qs.Start {
					// Item 0 follows the user directly; one merged span.
					return append(dst, [2]int{user.Start, qs.Start + qs.Len})
				}
				return append(dst, span(user), span(qs))
			}
		}
		return append(dst, span(qs))
	default:
		return append(dst, span(qs))
	}
}

// Allowed implements model.Mask.
func (m layoutMask) Allowed(q, k int) bool {
	qs := m.l.Segments[m.l.seg[q]]
	ks := m.l.Segments[m.l.seg[k]]
	if m.l.seg[q] == m.l.seg[k] {
		return true
	}
	switch qs.Kind {
	case SegInstr:
		return true
	case SegDisc:
		// Per-item discriminants read the user and their own candidate only
		// (§4.2's multi-discriminant extension).
		return m.allowedDisc(qs, ks)
	case SegUser:
		// Under ItemPrefix the user reads the item set; under UserPrefix
		// nothing precedes the user.
		return m.l.Kind == ItemPrefix && ks.Kind == SegItem
	case SegItem:
		// Items never see other items. Under UserPrefix they read the user
		// context; under ItemPrefix they are fully independent.
		return m.l.Kind == UserPrefix && ks.Kind == SegUser
	default:
		return false
	}
}
