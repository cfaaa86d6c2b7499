package partition

import (
	"math/rand"
	"testing"

	"bat/internal/kvcache"
	"bat/internal/workload"
)

// The shifting trace is the workload static splits handle worst: demand moves
// between the user-prefix and HRCS item cache classes across three phases,
// while two kvcache.Pools (one per class) share a fixed byte total:
//
//  1. item-heavy: a hot burst block dominates retrieval while users arrive
//     uniformly from the full population (no profile reuse);
//  2. user-heavy: a small active user set returns over and over while
//     candidates fall back to the Zipf corpus;
//  3. item-heavy again, with the hot block rotating mid-phase (ChurnSec) —
//     the hot-item churn stress case.
//
// Every static split is wrong for at least one phase.
const (
	shiftRequests      = 20000
	shiftSeed          = 11
	shiftBytesPerToken = 256
	shiftPageBytes     = 4096
	shiftTotalBytes    = int64(12) << 20
	shiftActiveUsers   = 30
)

// shiftPhase binds one third of the trace to a candidate generator and a
// user-arrival mode.
type shiftPhase struct {
	gen *workload.Generator
	// activeUsers > 0 draws users from a small recurring set (user-heavy);
	// 0 draws uniformly from the full population (user churn).
	activeUsers int
}

// shiftPhases builds the three phases. The generators share one seed, so
// token counts per user/item are identical across phases; only the candidate
// mix shifts.
func shiftPhases(t *testing.T) []shiftPhase {
	t.Helper()
	prof := workload.Games
	always := func(b workload.Burst) *workload.Burst { b.StartSec, b.EndSec = 0, 1e9; return &b }
	itemHot := prof
	itemHot.Burst = always(workload.Burst{FirstItem: 4000, Items: 2000, Share: 0.95})
	userHeavy := prof // no burst: Zipf + affinity candidates
	itemChurn := prof
	// Rotating hot block: three epochs within the 90-virtual-second phase.
	itemChurn.Burst = always(workload.Burst{FirstItem: 1000, Items: 1200, Share: 0.95, ChurnSec: 30})

	var phases []shiftPhase
	for _, spec := range []struct {
		prof   workload.Profile
		active int
	}{{itemHot, 0}, {userHeavy, shiftActiveUsers}, {itemChurn, 0}} {
		g, err := workload.NewGenerator(spec.prof, shiftSeed)
		if err != nil {
			t.Fatal(err)
		}
		phases = append(phases, shiftPhase{gen: g, activeUsers: spec.active})
	}
	return phases
}

// tokenCounter is one class's token-weighted traffic tally.
type tokenCounter struct{ hits, misses int64 }

// replayShift replays the shifting trace against a user/item pool pair booted
// at itemFrac and returns the combined token hit rate. With adaptive set, a
// Controller re-divides the split from the live counters and ghost lists;
// otherwise the split is frozen.
func replayShift(t *testing.T, itemFrac float64, adaptive bool) (hitRate float64, moves int64) {
	t.Helper()
	newPool := func(capacity int64) *kvcache.Pool {
		p, err := kvcache.NewPool(capacity, shiftPageBytes, shiftBytesPerToken, kvcache.EvictLRU)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	itemBytes := int64(itemFrac * float64(shiftTotalBytes))
	itemPool := newPool(itemBytes)
	userPool := newPool(shiftTotalBytes - itemBytes)

	var userC, itemC tokenCounter
	var ctrl *Controller
	if adaptive {
		poolClass := func(name string, p *kvcache.Pool, c *tokenCounter) Class {
			return Class{
				Name: name,
				Stats: func() ClassStats {
					return ClassStats{Hits: c.hits, Misses: c.misses, GhostHits: p.GhostHitTokens}
				},
				Capacity:    p.CapacityBytes,
				SetCapacity: p.SetCapacityBytes,
			}
		}
		ctrl = mustController(t, Config{
			StepFraction:    0.08,
			FloorFraction:   0.10,
			Hysteresis:      0.10,
			WindowTicks:     4,
			MinSampleTokens: 1000,
		}, poolClass("user", userPool, &userC), poolClass("item", itemPool, &itemC))
	}
	access := func(p *kvcache.Pool, c *tokenCounter, k kvcache.EntryKey, tokens int) {
		if _, ok := p.Lookup(k); ok {
			c.hits += int64(tokens)
			return
		}
		c.misses += int64(tokens)
		p.Put(k, tokens, 1)
	}

	phases := shiftPhases(t)
	rng := rand.New(rand.NewSource(shiftSeed ^ 0x70617274))
	perPhase := shiftRequests / len(phases)
	tickEvery := max(perPhase/33, 10)
	reqIdx := 0
	for pi, ph := range phases {
		n := perPhase
		if pi == len(phases)-1 {
			n = shiftRequests - perPhase*(len(phases)-1)
		}
		for i := 0; i < n; i++ {
			// Virtual time sweeps 0..90s across the phase so ChurnSec rotates
			// the hot block mid-phase.
			vt := 90 * float64(i) / float64(n)
			var u workload.UserID
			if ph.activeUsers > 0 {
				// The active set starts at user 100 so it does not collide
				// with the Zipf head the churn phases occasionally sample.
				u = workload.UserID(100 + rng.Intn(ph.activeUsers))
			} else {
				u = workload.UserID(rng.Intn(ph.gen.Profile().Users))
			}
			access(userPool, &userC, kvcache.EntryKey{Kind: kvcache.UserEntry, ID: u}, ph.gen.UserTokens(u))
			for _, it := range ph.gen.CandidatesAt(uint64(reqIdx), u, vt) {
				access(itemPool, &itemC, kvcache.EntryKey{Kind: kvcache.ItemEntry, ID: it}, ph.gen.ItemTokens(it))
			}
			reqIdx++
			if ctrl != nil && reqIdx%tickEvery == 0 {
				ctrl.Tick()
			}
		}
	}
	if ctrl != nil {
		moves = ctrl.Status().Moves
	}
	hits := userC.hits + itemC.hits
	return float64(hits) / float64(hits+userC.misses+itemC.misses), moves
}

// TestAdaptiveSplitBeatsEveryStaticSplit is the partition controller's claim:
// on the seeded shifting trace at full scale, the adaptive split (booted at
// 0.5) must land a strictly higher combined token hit rate than each static
// item fraction {0.5, 0.7, 0.85}. The replay is single-threaded and seeded,
// so the rates are identical run to run.
func TestAdaptiveSplitBeatsEveryStaticSplit(t *testing.T) {
	adaptive, moves := replayShift(t, 0.5, true)
	t.Logf("adaptive: %.4f (%d moves)", adaptive, moves)
	for _, frac := range []float64{0.5, 0.7, 0.85} {
		static, _ := replayShift(t, frac, false)
		t.Logf("static %.2f: %.4f", frac, static)
		if adaptive <= static {
			t.Errorf("adaptive %.4f does not beat static split %.2f (%.4f)", adaptive, frac, static)
		}
	}
}
