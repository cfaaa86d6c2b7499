package server

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bat/internal/bipartite"
	"bat/internal/model"
	"bat/internal/scheduler"
	"bat/internal/serving"
)

// scanMinUserHotness is the scan the cold heap replaced: every resident
// user's decayed hotness at now, minimum taken. Caller holds mu and metaMu.
func scanMinUserHotness(b *localBackend, now float64) float64 {
	min := 0.0
	first := true
	for u := range b.users {
		h := b.meta.Hotness(userEntry(u), now)
		if first || h < min {
			min, first = h, false
		}
	}
	return min
}

// checkColdHeap pins the heap's bookkeeping: it holds exactly the resident
// users, each at its recorded index, in heap order.
func checkColdHeap(t *testing.T, b *localBackend) {
	t.Helper()
	if len(b.cold) != len(b.users) {
		t.Fatalf("cold heap holds %d users, pool %d", len(b.cold), len(b.users))
	}
	for i, r := range b.cold {
		if b.users[r.id] != r || r.idx != i {
			t.Fatalf("heap slot %d: user %d idx %d is not the resident entry", i, r.id, r.idx)
		}
		if i > 0 && b.cold[(i-1)/2].key > r.key {
			t.Fatalf("heap order broken at slot %d", i)
		}
	}
}

// TestColdHeapMatchesScan drives a seeded stream of accesses, admissions,
// coldest-first evictions and budget changes on an injected clock that runs
// past 1,000 hotness windows, and checks at every plan that the heap's
// MinCachedHotness is bit-identical to a scan of the resident users, so the
// hotness-aware policy decides the same either way.
func TestColdHeapMatchesScan(t *testing.T) {
	var clock time.Duration
	cfg := Config{
		Dataset:          testDataset(t),
		MaxUserCaches:    8,
		HotnessWindowSec: 1,
		Policy:           scheduler.HotnessAware{},
		Now:              func() time.Time { return time.Unix(0, 0).Add(clock) },
	}
	b := newLocalBackend(&cfg)
	ds := cfg.Dataset
	rng := rand.New(rand.NewSource(44))
	users := len(ds.UserHistory)
	pickUser := func() int {
		if rng.Intn(2) == 0 {
			return rng.Intn(4) // a hot core
		}
		return rng.Intn(users)
	}

	plans, admitted, evicted := 0, 0, 0
	for clock < 1100*time.Second {
		if rng.Intn(40) == 0 {
			b.setBudget(&b.userBudget, int64(1+rng.Intn(12)))
		}
		var entries []serving.CommitEntry
		for n := 1 + rng.Intn(8); n > 0; n-- {
			// Mostly short gaps; now and then a long idle stretch that
			// decays every resident to zero.
			gap := rng.ExpFloat64() * 0.05
			if rng.Intn(5000) == 0 {
				gap = 20 + rng.Float64()*200
			}
			clock += time.Duration(gap * float64(time.Second))
			req := serving.RankRequest{UserID: pickUser(), CandidateIDs: []int{rng.Intn(len(ds.ItemTokens))}}

			b.mu.RLock()
			sc := b.schedContext(req)
			b.metaMu.Lock()
			scan := scanMinUserHotness(b, clock.Seconds())
			b.metaMu.Unlock()
			checkColdHeap(t, b)
			b.mu.RUnlock()
			plans++
			if sc.HaveMinCachedHotness != (len(b.users) > 0) {
				t.Fatalf("plan %d: HaveMinCachedHotness %v with %d residents", plans, sc.HaveMinCachedHotness, len(b.users))
			}
			if math.Float64bits(sc.MinCachedHotness) != math.Float64bits(scan) {
				t.Fatalf("plan %d at t=%.3f: heap min %v, scan min %v", plans, clock.Seconds(), sc.MinCachedHotness, scan)
			}
			dec := cfg.Policy.Decide(sc)
			want := sc
			want.MinCachedHotness = scan
			if dec != cfg.Policy.Decide(want) {
				t.Fatalf("plan %d: decision %+v differs from the scan's", plans, dec)
			}
			if dec.Kind == bipartite.UserPrefix && !sc.UserCached {
				entries = append(entries, serving.CommitEntry{
					Req:  req,
					Plan: &serving.Plan{Kind: dec.Kind, AdmitUser: dec.AdmitUser},
					Run:  &bipartite.Run{NewUserCache: &model.KVCache{}},
				})
			}
		}

		before := make(map[int]bool, len(b.users))
		for u := range b.users {
			before[u] = true
		}
		b.Commit(entries)
		checkColdHeap(t, b)
		if budget := b.userBudget.Load(); int64(len(b.users)) > budget {
			t.Fatalf("%d residents over the budget %d", len(b.users), budget)
		}
		// Every resident that left was no hotter than any resident that
		// stayed through the commit.
		now := clock.Seconds()
		for u := range before {
			if b.users[u] != nil {
				continue
			}
			evicted++
			for s := range b.users {
				if before[s] && b.meta.Hotness(userEntry(u), now) > b.meta.Hotness(userEntry(s), now) {
					t.Fatalf("t=%.3f: evicted user %d is hotter than surviving user %d", now, u, s)
				}
			}
		}
		for _, e := range entries {
			if !before[e.Req.UserID] && b.users[e.Req.UserID] != nil {
				admitted++
			}
		}
	}
	if admitted < 100 || evicted < 100 {
		t.Fatalf("stream too tame: %d plans, %d admissions, %d evictions", plans, admitted, evicted)
	}
	t.Logf("%d plans over %.0f windows: %d admissions, %d evictions", plans, clock.Seconds(), admitted, evicted)
}

// TestHotUserSurvivesColdScan: a user ranked on every other request, between
// a scan of more one-shot users than the pool holds, keeps its cache. The
// one-shot users are the coldest residents, so they are the ones evicted;
// eviction in admission order would drop the hot user k admissions after it
// entered, because a hit does not move it.
func TestHotUserSurvivesColdScan(t *testing.T) {
	const k = 4
	now := time.Unix(0, 0)
	s := newTestServer(t, func(c *Config) {
		c.Policy = scheduler.StaticUser{}
		c.MaxUserCaches = k
		c.Now = func() time.Time { return now }
	})
	defer s.Close()
	const hot = 0
	users := len(s.cfg.Dataset.UserHistory)
	for oneShot := 1; oneShot < users; oneShot++ {
		for _, u := range []int{hot, oneShot} {
			now = now.Add(time.Second)
			resp, err := s.Rank(RankRequest{UserID: u, CandidateIDs: []int{1, 2}})
			if err != nil {
				t.Fatal(err)
			}
			if u == hot && oneShot > 1 && resp.ReusedTokens == 0 {
				t.Fatalf("hot user missed after %d one-shot users (pool of %d)", oneShot-1, k)
			}
		}
	}
	if got := s.userCacheCount(); got != k {
		t.Fatalf("%d user caches resident, want the cap %d", got, k)
	}
}

// TestCommitAllocsFlatInPool guards the in-place commit: admitting a user
// and an item into full pools allocates the same at 200 and at 2,000
// resident items, so a commit does no work proportional to the pool.
func TestCommitAllocsFlatInPool(t *testing.T) {
	const residents, runs = 256, 100
	allocs := func(items int) float64 {
		cfg := Config{MaxUserCaches: residents, MaxItemCaches: items, HotnessWindowSec: 300, Now: time.Now}
		b := newLocalBackend(&cfg)
		for i := 0; i < items; i++ {
			b.items[i] = &model.KVCache{}
			b.itemLRU = append(b.itemLRU, i)
		}
		// Every user the runs admit has been accessed, as a plan would.
		for u := 0; u < residents+runs+1; u++ {
			b.meta.RecordAccess(userEntry(u), float64(u))
		}
		var entries []serving.CommitEntry
		for u := 0; u < residents; u++ {
			entries = append(entries, admitEntry(u, items+u))
		}
		b.Commit(entries)
		next := residents
		return testing.AllocsPerRun(runs, func() {
			b.Commit([]serving.CommitEntry{admitEntry(next, items+next)})
			next++
		})
	}
	small, large := allocs(200), allocs(2000)
	t.Logf("allocations per admitting commit: %.0f at 200 items, %.0f at 2000", small, large)
	if small != large {
		t.Fatalf("an admitting commit allocates %.0f at 200 items but %.0f at 2000", small, large)
	}
}

// admitEntry is a commit entry that admits user u's and item id's fresh
// caches (the caches' contents do not matter to the pool).
func admitEntry(u, id int) serving.CommitEntry {
	return serving.CommitEntry{
		Req:  serving.RankRequest{UserID: u, CandidateIDs: []int{id}},
		Plan: &serving.Plan{Kind: bipartite.UserPrefix, AdmitUser: true},
		Run: &bipartite.Run{
			NewUserCache:  &model.KVCache{},
			NewItemCaches: map[int]*model.KVCache{0: {}},
		},
	}
}

// TestConcurrentPlansKeepColdHeap runs each batch's plans from concurrent
// goroutines, as the serving core does, over users that are mostly resident,
// so heap fixes race against each other under metaMu; the heap must come
// out of every commit intact. Run it under -race.
func TestConcurrentPlansKeepColdHeap(t *testing.T) {
	cfg := Config{
		Dataset:          testDataset(t),
		MaxUserCaches:    8,
		HotnessWindowSec: 300,
		Policy:           scheduler.StaticUser{},
		Now:              time.Now,
	}
	b := newLocalBackend(&cfg)
	users := len(cfg.Dataset.UserHistory)
	for round := 0; round < 200; round++ {
		plans := make([]*serving.Plan, 8)
		reqs := make([]serving.RankRequest, len(plans))
		var wg sync.WaitGroup
		for i := range plans {
			reqs[i] = serving.RankRequest{UserID: (round + i*i) % users, CandidateIDs: []int{i}}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				plan, err := b.Plan(context.Background(), reqs[i])
				if err != nil {
					t.Error(err)
				}
				plans[i] = plan
			}(i)
		}
		wg.Wait()
		var entries []serving.CommitEntry
		for i, plan := range plans {
			if plan != nil && plan.Caches.User == nil {
				entries = append(entries, serving.CommitEntry{Req: reqs[i], Plan: plan, Run: &bipartite.Run{NewUserCache: &model.KVCache{}}})
			}
		}
		b.Commit(entries)
		checkColdHeap(t, b)
	}
}
