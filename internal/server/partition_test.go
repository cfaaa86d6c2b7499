package server

import (
	"strings"
	"testing"
	"time"

	"bat/internal/scheduler"
)

func TestPartitionConfigValidation(t *testing.T) {
	cfg := Config{Dataset: testDataset(t), Partition: "bogus"}
	if _, err := New(cfg); err == nil {
		t.Fatal("bogus partition mode accepted")
	}
}

// TestStaticModeUnchanged pins that the default (static) configuration keeps
// the historical behavior: unbounded items, fixed user cap, no controller.
func TestStaticModeUnchanged(t *testing.T) {
	s := newTestServer(t, nil)
	defer s.Close()
	if _, ok := s.PartitionStatus(); ok {
		t.Fatal("static server reports a partition controller")
	}
	if s.be.itemBudget.Load() != 0 {
		t.Fatalf("static item budget = %d, want 0 (unbounded)", s.be.itemBudget.Load())
	}
	if s.be.userBudget.Load() != 256 {
		t.Fatalf("static user budget = %d, want the 256 default", s.be.userBudget.Load())
	}
}

// TestItemCapEvictsInAdmissionOrder bounds the item class and checks eviction
// keeps the pool at the cap.
func TestItemCapEvictsInAdmissionOrder(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxItemCaches = 5 })
	defer s.Close()
	for u := 0; u < 12; u++ {
		if _, err := s.Rank(RankRequest{UserID: u % 30, CandidateIDs: []int{u % 80, (u + 7) % 80, (u + 19) % 80}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.itemCacheCount(); got > 5 {
		t.Fatalf("item cache entries %d exceed the cap 5", got)
	}
}

// TestAdaptivePartitionShiftsBudgets runs the controller at a tight interval
// under an item-heavy request stream and asserts entry budget flows away from
// the idle user class, with metrics and status exposed.
func TestAdaptivePartitionShiftsBudgets(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Partition = "adaptive"
		c.MaxUserCaches = 100
		c.MaxItemCaches = 100
		c.PartitionInterval = 5 * time.Millisecond
		// Force the item-prefix path for every request so the item class
		// shows all the demand.
		c.Policy = scheduler.StaticItem{}
	})
	defer s.Close()
	if _, ok := s.PartitionStatus(); !ok {
		t.Fatal("adaptive server has no controller")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for u := 0; u < 10; u++ {
			if _, err := s.Rank(RankRequest{UserID: u, CandidateIDs: []int{u * 7 % 80, (u*7 + 1) % 80, (u*7 + 2) % 80}}); err != nil {
				t.Fatal(err)
			}
		}
		if s.be.itemBudget.Load() > 100 {
			break
		}
	}
	if got := s.be.itemBudget.Load(); got <= 100 {
		t.Fatalf("item budget did not grow under item-only demand: %d", got)
	}
	if got := s.be.userBudget.Load(); got >= 100 {
		t.Fatalf("user budget did not shrink: %d", got)
	}
	if total := s.be.itemBudget.Load() + s.be.userBudget.Load(); total != 200 {
		t.Fatalf("combined budget drifted: %d", total)
	}
	st, _ := s.PartitionStatus()
	if st.Moves == 0 || len(st.Classes) != 2 {
		t.Fatalf("controller status: %+v", st)
	}
	// bat_partition_* metrics appear on /metrics.
	var sb strings.Builder
	s.Observer().Registry().WriteText(&sb)
	for _, want := range []string{"bat_partition_capacity_bytes", "bat_partition_moved_bytes_total"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}
