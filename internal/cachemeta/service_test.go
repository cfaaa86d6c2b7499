package cachemeta

import (
	"math"
	"testing"

	"bat/internal/kvcache"
)

func uk(id uint64) kvcache.EntryKey { return kvcache.EntryKey{Kind: kvcache.UserEntry, ID: id} }
func ik(id uint64) kvcache.EntryKey { return kvcache.EntryKey{Kind: kvcache.ItemEntry, ID: id} }

func TestNewDefaultsWindow(t *testing.T) {
	if New(0).Window() != 300 {
		t.Fatal("zero window should default to 300s")
	}
	if New(60).Window() != 60 {
		t.Fatal("window not stored")
	}
}

func TestHotnessAccumulatesWithinWindow(t *testing.T) {
	s := New(300)
	for i := 0; i < 5; i++ {
		s.RecordAccess(uk(1), float64(i))
	}
	h := s.Hotness(uk(1), 5)
	if h < 4 || h > 5 {
		t.Fatalf("hotness after 5 rapid accesses = %v, want ~5", h)
	}
}

func TestHotnessDecays(t *testing.T) {
	s := New(300)
	s.RecordAccess(uk(1), 0)
	h0 := s.Hotness(uk(1), 0)
	h1 := s.Hotness(uk(1), 300) // one window later: e^-1
	if math.Abs(h1-h0*math.Exp(-1)) > 1e-9 {
		t.Fatalf("decay after one window: %v, want %v", h1, h0*math.Exp(-1))
	}
	h2 := s.Hotness(uk(1), 3000) // ten windows later: essentially cold
	if h2 > 1e-3 {
		t.Fatalf("hotness after 10 windows = %v", h2)
	}
}

func TestHotnessUnknownKeyIsCold(t *testing.T) {
	s := New(300)
	if s.Hotness(uk(42), 100) != 0 {
		t.Fatal("unknown key should be cold")
	}
}

func TestHotnessDistinguishesActiveFromCasualUsers(t *testing.T) {
	s := New(300)
	// Active user: a request every 30s. Casual user: one request.
	for i := 0; i < 10; i++ {
		s.RecordAccess(uk(1), float64(i*30))
	}
	s.RecordAccess(uk(2), 0)
	if s.Hotness(uk(1), 300) <= s.Hotness(uk(2), 300) {
		t.Fatal("active user should be hotter than casual user")
	}
}

func TestHotnessMonotoneInTimeSinceAccess(t *testing.T) {
	s := New(60)
	s.RecordAccess(uk(1), 0)
	prev := math.Inf(1)
	for _, dt := range []float64{0, 10, 60, 120, 600} {
		h := s.Hotness(uk(1), dt)
		if h > prev {
			t.Fatalf("hotness increased with idle time at dt=%v", dt)
		}
		prev = h
	}
}

// TestOrderKeyOrdersLikeHotness: keys order entries as their decayed
// hotness does at any later time, including past the 600 windows where
// Normalize's clamp has made every fresh value the same scale.
func TestOrderKeyOrdersLikeHotness(t *testing.T) {
	s := New(1)
	if !math.IsInf(s.OrderKey(uk(9)), -1) {
		t.Fatal("unknown key should order coldest")
	}
	s.RecordAccess(uk(1), 650)
	s.RecordAccess(uk(1), 650)
	s.RecordAccess(uk(2), 700)
	s.RecordAccess(uk(3), 0)
	for i := 0; i < 20; i++ {
		s.RecordAccess(uk(3), 1500+float64(i))
	}
	keys := []kvcache.EntryKey{uk(1), uk(2), uk(3)}
	for _, now := range []float64{1520, 1600, 2500} {
		for _, a := range keys {
			for _, b := range keys {
				if s.OrderKey(a) < s.OrderKey(b) && s.Hotness(a, now) > s.Hotness(b, now) {
					t.Fatalf("t=%v: key orders %v below %v but it is hotter", now, a, b)
				}
			}
		}
	}
	// User 2 (one access at t=700) is hotter than user 1 (two at t=650) from
	// t=700 on; the clamped normalized values say the opposite.
	if s.OrderKey(uk(2)) <= s.OrderKey(uk(1)) {
		t.Fatal("OrderKey lost the order past 600 windows")
	}
	if s.Normalize(1, 700) >= s.Normalize(2, 650) {
		t.Fatal("Normalize's clamp no longer saturates at 600 windows; revisit its doc")
	}
}

func TestRecordAccessReturnsEstimate(t *testing.T) {
	s := New(300)
	if got := s.RecordAccess(uk(1), 0); got != 1 {
		t.Fatalf("first access estimate = %v, want 1", got)
	}
	if got := s.RecordAccess(uk(1), 0); got != 2 {
		t.Fatalf("second access estimate = %v, want 2", got)
	}
}

func TestIndexRegisterLookup(t *testing.T) {
	s := New(300)
	if s.HasEntry(ik(5)) {
		t.Fatal("empty index should have no entries")
	}
	s.RegisterEntry(ik(5), 2)
	s.RegisterEntry(ik(5), 0)
	s.RegisterEntry(ik(5), 2) // duplicate is idempotent
	if !s.HasEntry(ik(5)) {
		t.Fatal("entry not found after register")
	}
	locs := s.Locations(ik(5))
	if len(locs) != 2 || locs[0] != 0 || locs[1] != 2 {
		t.Fatalf("locations = %v", locs)
	}
	if s.EntryCount() != 1 {
		t.Fatalf("entry count = %d", s.EntryCount())
	}
}

func TestUnregisterEntry(t *testing.T) {
	s := New(300)
	s.RegisterEntry(uk(1), 0)
	s.RegisterEntry(uk(1), 1)
	s.UnregisterEntry(uk(1), 0)
	if locs := s.Locations(uk(1)); len(locs) != 1 || locs[0] != 1 {
		t.Fatalf("locations = %v", locs)
	}
	s.UnregisterEntry(uk(1), 1)
	if s.HasEntry(uk(1)) {
		t.Fatal("entry should be gone")
	}
	s.UnregisterEntry(uk(9), 0) // absent key is a no-op
}

func TestPickLocationPrefersLocal(t *testing.T) {
	s := New(300)
	s.RegisterEntry(ik(1), 0)
	s.RegisterEntry(ik(1), 3)
	if w, ok := s.PickLocation(ik(1), 3); !ok || w != 3 {
		t.Fatalf("PickLocation local = %v %v", w, ok)
	}
	if w, ok := s.PickLocation(ik(1), 2); !ok || w != 0 {
		t.Fatalf("PickLocation remote = %v %v, want lowest ID", w, ok)
	}
	if _, ok := s.PickLocation(ik(9), 0); ok {
		t.Fatal("absent key should not resolve")
	}
}

func TestLocationsEmptyIsNil(t *testing.T) {
	s := New(300)
	if s.Locations(uk(1)) != nil {
		t.Fatal("absent key should have nil locations")
	}
}

func TestPruneCold(t *testing.T) {
	s := New(60)
	s.RecordAccess(uk(1), 0)
	for i := 0; i < 20; i++ {
		s.RecordAccess(uk(2), 1000+float64(i))
	}
	pruned := s.PruneCold(1020, 0.01)
	if pruned != 1 {
		t.Fatalf("pruned %d, want 1 (only the stale user)", pruned)
	}
	if s.Hotness(uk(2), 1020) == 0 {
		t.Fatal("hot user pruned")
	}
	if s.Hotness(uk(1), 1020) != 0 {
		t.Fatal("cold user not pruned")
	}
}

func TestUnregisterWorkerBulk(t *testing.T) {
	s := New(300)
	s.RegisterEntry(ik(1), 0)
	s.RegisterEntry(ik(2), 0)
	s.RegisterEntry(ik(2), 1) // replicated: survives on worker 1
	s.RegisterEntry(uk(7), 0)
	s.RegisterEntry(ik(9), 1) // not on worker 0

	keys := s.UnregisterWorker(0)
	if len(keys) != 3 {
		t.Fatalf("purged %d keys, want 3: %v", len(keys), keys)
	}
	// Sorted: users before items (UserEntry < ItemEntry), then by ID.
	want := []kvcache.EntryKey{uk(7), ik(1), ik(2)}
	for i, k := range want {
		if keys[i] != k {
			t.Fatalf("keys[%d] = %v, want %v", i, keys[i], k)
		}
	}
	if s.HasEntry(ik(1)) || s.HasEntry(uk(7)) {
		t.Fatal("purged entries still indexed")
	}
	if locs := s.Locations(ik(2)); len(locs) != 1 || locs[0] != 1 {
		t.Fatalf("replicated entry locations %v, want [1]", locs)
	}
	if !s.HasEntry(ik(9)) {
		t.Fatal("unrelated entry purged")
	}
	if keys := s.UnregisterWorker(0); len(keys) != 0 {
		t.Fatalf("second purge removed %v", keys)
	}
}
