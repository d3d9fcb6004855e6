package resilience

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godosn/internal/resilience/load"
)

// The KV's breaker is the circuit view of its load.Health record; these
// tests pin that view as the resilience layer drives it.

func TestBreakerOpensAtThresholdAndProbes(t *testing.T) {
	b := load.NewHealth(load.TrackerConfig{})
	for i := 0; i < load.Threshold-1; i++ {
		b.Report("n", false)
		if b.Open("n") {
			t.Fatalf("circuit open after %d failures, threshold %d", i+1, load.Threshold)
		}
	}
	b.Report("n", false)
	if !b.Open("n") {
		t.Fatal("circuit not open at threshold")
	}
	// Cooldown refusals, then one half-open probe.
	for i := 0; i < load.Cooldown; i++ {
		if b.Allow("n") {
			t.Fatalf("open circuit allowed call %d of the cooldown", i+1)
		}
	}
	if !b.Allow("n") {
		t.Fatal("half-open probe refused after cooldown")
	}
	// Failed probe re-opens for another full cooldown.
	b.Report("n", false)
	for i := 0; i < load.Cooldown; i++ {
		if b.Allow("n") {
			t.Fatalf("cooldown after failed probe ended at call %d", i+1)
		}
	}
	if !b.Allow("n") {
		t.Fatal("second probe refused")
	}
	// Successful probe closes the circuit.
	b.Report("n", true)
	if b.Open("n") {
		t.Fatal("successful probe left the circuit open")
	}
	if !b.Allow("n") {
		t.Fatal("closed circuit refused a call")
	}
}

func TestBreakerIndependentPerNode(t *testing.T) {
	b := load.NewHealth(load.TrackerConfig{})
	for i := 0; i < load.Threshold; i++ {
		b.Report("down", false)
	}
	if !b.Open("down") {
		t.Fatal("node not open")
	}
	if !b.Allow("up") {
		t.Fatal("healthy node throttled by another node's circuit")
	}
}

// TestBreakerConcurrent hammers one health record from eight goroutines —
// observations of every outcome, replica picks, the placement filter's
// Quarantined, ticks and snapshots, with the quarantine hook installed —
// and is run under the race detector by make race. Afterwards every
// circuit must still close on a success.
func TestBreakerConcurrent(t *testing.T) {
	h := load.NewHealth(load.TrackerConfig{Alpha: 0.3, HalfLife: 8})
	var hooked atomic.Int64
	h.SetQuarantineHook(func(string) { hooked.Add(1) })
	names := []string{"n0", "n1", "n2", "n3", "n4"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				node := names[(g+i)%len(names)]
				h.Observe(node, time.Duration(i%7)*time.Millisecond, load.Outcome(i%4))
				if ranked, _ := h.Pick(names); len(ranked) == 0 {
					t.Error("Pick returned no replica")
					return
				}
				h.Quarantined(node)
				switch i % 50 {
				case 0:
					h.Tick()
				case 25:
					h.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	for _, node := range names {
		h.Observe(node, time.Millisecond, load.OutcomeOK)
		if h.Open(node) || h.Quarantined(node) {
			t.Fatalf("%s still open after a success", node)
		}
	}
	if got := len(h.Snapshot()); got != len(names) {
		t.Fatalf("snapshot lists %d nodes, want %d", got, len(names))
	}
	before := hooked.Load()
	for i := 0; i < load.Threshold; i++ {
		h.Observe("n0", time.Millisecond, load.OutcomeCorrupt)
	}
	if !h.Quarantined("n0") || hooked.Load() != before+1 {
		t.Fatalf("corruption streak: quarantined=%v, hook fired %d times, want once",
			h.Quarantined("n0"), hooked.Load()-before)
	}
}

func TestBreakerReset(t *testing.T) {
	b := load.NewHealth(load.TrackerConfig{})
	for i := 0; i < load.Threshold; i++ {
		b.Report("n", false)
	}
	if !b.Open("n") {
		t.Fatal("not open")
	}
	b.Reset()
	if b.Open("n") || !b.Allow("n") {
		t.Fatal("reset did not clear state")
	}
}
