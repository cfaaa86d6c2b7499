package main

import (
	"fmt"

	"bat/internal/bipartite"
	"bat/internal/ranking"
)

// oracle re-derives sampled responses with a fresh, cache-less ranker: the
// ranking must be identical whatever caches, batches or fetches served it,
// and the response's token accounting must cover the whole prompt.
type oracle struct {
	st     *stream
	ranker *ranking.Ranker
}

// servedTopK is the ranking length both serving planes return by default.
const servedTopK = 10

func newOracle(st *stream) (*oracle, error) {
	r, err := ranking.NewRanker(st.ds, ranking.VariantBase)
	if err != nil {
		return nil, err
	}
	return &oracle{st: st, ranker: r}, nil
}

// check returns how many of the phase's sampled responses were verified and
// the first mismatch found, if any.
func (o *oracle) check(ph *phase) (checked int, err error) {
	for _, s := range ph.samples {
		if s.resp == nil {
			continue
		}
		checked++
		if e := o.verify(s); e != nil && err == nil {
			err = fmt.Errorf("oracle: request %d: %w", s.idx, e)
		}
	}
	return checked, err
}

func (o *oracle) verify(s sample) error {
	req := o.st.reqs[s.idx%len(o.st.reqs)]
	var kind bipartite.PrefixKind
	switch s.resp.Prefix {
	case bipartite.UserPrefix.String():
		kind = bipartite.UserPrefix
	case bipartite.ItemPrefix.String():
		kind = bipartite.ItemPrefix
	default:
		return fmt.Errorf("unexpected prefix %q", s.resp.Prefix)
	}
	eval := ranking.EvalRequest{User: req.UserID, Candidates: req.CandidateIDs}
	ranked, run, err := o.ranker.Rank(eval, kind, ranking.RankOpts{})
	if err != nil {
		return err
	}
	if got, want := s.resp.ReusedTokens+s.resp.ComputedTokens, run.Layout.Len(); got != want {
		return fmt.Errorf("reused+computed = %d tokens, layout has %d", got, want)
	}
	k := servedTopK
	if k > len(ranked) {
		k = len(ranked)
	}
	if len(s.resp.Ranking) != k {
		return fmt.Errorf("ranking has %d entries, want %d", len(s.resp.Ranking), k)
	}
	for i := 0; i < k; i++ {
		if want := req.CandidateIDs[ranked[i]]; s.resp.Ranking[i] != want {
			return fmt.Errorf("ranking[%d] = item %d, cache-less ranker says %d", i, s.resp.Ranking[i], want)
		}
	}
	return nil
}
