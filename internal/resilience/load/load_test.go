package load

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"godosn/internal/telemetry"
)

func TestGateAdmitsQueuesThenSheds(t *testing.T) {
	g := NewGate(GateConfig{PerTick: 2, QueueDepth: 2, WaitPerSlot: 5 * time.Millisecond})
	// Tokens 1-2: free. 3-4: queued at positions 1, 2. 5+: shed.
	wantWaits := []time.Duration{0, 0, 5 * time.Millisecond, 10 * time.Millisecond}
	for i, want := range wantWaits {
		wait, err := g.Admit()
		if err != nil {
			t.Fatalf("admit %d: %v", i+1, err)
		}
		if wait != want {
			t.Fatalf("admit %d wait %v, want %v", i+1, wait, want)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := g.Admit(); !errors.Is(err, ErrShed) {
			t.Fatalf("over-budget admit: %v, want ErrShed", err)
		}
	}
	// Two queued borrowings drove the balance to -2; sheds borrow nothing.
	if g.Tokens() != -2 {
		t.Fatalf("tokens %d, want -2 (two borrowed, sheds borrow nothing)", g.Tokens())
	}
}

func TestGateTickRepaysBorrowedTokens(t *testing.T) {
	g := NewGate(GateConfig{PerTick: 1, QueueDepth: 1, WaitPerSlot: time.Millisecond})
	if _, err := g.Admit(); err != nil { // token
		t.Fatalf("admit 1: %v", err)
	}
	if _, err := g.Admit(); err != nil { // queued (borrows)
		t.Fatalf("admit 2: %v", err)
	}
	if _, err := g.Admit(); !errors.Is(err, ErrShed) {
		t.Fatalf("admit 3: %v, want ErrShed", err)
	}
	// One tick repays the borrowed token but leaves the bucket empty: the
	// next admit queues again rather than passing free.
	g.Tick()
	if wait, err := g.Admit(); err != nil || wait != time.Millisecond {
		t.Fatalf("post-tick admit: wait %v err %v, want queued at position 1", wait, err)
	}
	// Two more ticks repay the debt and refill: admission is free again.
	g.Tick()
	g.Tick()
	if wait, err := g.Admit(); err != nil || wait != 0 {
		t.Fatalf("refilled admit: wait %v err %v, want free", wait, err)
	}
}

func TestGateBurstCapsAccumulation(t *testing.T) {
	g := NewGate(GateConfig{PerTick: 1, Burst: 2, QueueDepth: 0})
	for i := 0; i < 10; i++ {
		g.Tick()
	}
	for i := 0; i < 2; i++ {
		if _, err := g.Admit(); err != nil {
			t.Fatalf("burst admit %d: %v", i+1, err)
		}
	}
	if _, err := g.Admit(); !errors.Is(err, ErrShed) {
		t.Fatalf("beyond burst: %v, want ErrShed", err)
	}
}

func TestGateNilAndDisabled(t *testing.T) {
	if g := NewGate(GateConfig{}); g != nil {
		t.Fatalf("PerTick 0 should disable the gate, got %+v", g)
	}
	var g *Gate
	g.Tick()
	g.SetTelemetry(nil)
	for i := 0; i < 100; i++ {
		if wait, err := g.Admit(); err != nil || wait != 0 {
			t.Fatalf("nil gate must admit free, got wait %v err %v", wait, err)
		}
	}
}

// counterValue looks a counter up in a snapshot (-1 when absent).
func counterValue(snap telemetry.Snapshot, name string) int64 {
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return -1
}

func TestGateTelemetry(t *testing.T) {
	g := NewGate(GateConfig{PerTick: 1, QueueDepth: 1, WaitPerSlot: 2 * time.Millisecond})
	reg := telemetry.NewRegistry()
	g.SetTelemetry(reg)
	g.Admit() // free
	g.Admit() // queued
	g.Admit() // shed
	snap := reg.Snapshot()
	if got := counterValue(snap, "load_gate_queued_total"); got != 1 {
		t.Fatalf("queued counter %d, want 1", got)
	}
	if got := counterValue(snap, "load_gate_sheds_total"); got != 1 {
		t.Fatalf("sheds counter %d, want 1", got)
	}
}

func TestTrackerScoresAndRanks(t *testing.T) {
	tr := NewHealth(DefaultTrackerConfig())
	// n-fast serves quickly, n-slow is sluggish, n-shedding refuses.
	for i := 0; i < 8; i++ {
		tr.Observe("n-fast", 5*time.Millisecond, OutcomeOK)
		tr.Observe("n-slow", 60*time.Millisecond, OutcomeOK)
		tr.Observe("n-shedding", 0, OutcomeShed)
	}
	got := tr.Rank([]string{"n-shedding", "n-slow", "n-fast", "n-unseen"})
	want := []string{"n-fast", "n-unseen", "n-slow", "n-shedding"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rank %v, want %v", got, want)
	}
	if s := scoreOf(tr, "n-shedding"); s <= scoreOf(tr, "n-slow") {
		t.Fatalf("shedding node score %.2f not worse than slow node %.2f", s, scoreOf(tr, "n-slow"))
	}
	// The unseen node competes at the 10ms prior (between fast and slow
	// above), but is not listed until observed.
	if s := scoreOf(tr, "n-unseen"); !math.IsNaN(s) {
		t.Fatalf("unseen node listed with score %.2f", s)
	}
}

func TestTrackerErrorsInflateScore(t *testing.T) {
	tr := NewHealth(DefaultTrackerConfig())
	for i := 0; i < 8; i++ {
		tr.Observe("ok", 10*time.Millisecond, OutcomeOK)
		tr.Observe("flaky", 10*time.Millisecond, OutcomeError)
	}
	if so, sf := scoreOf(tr, "ok"), scoreOf(tr, "flaky"); sf <= so {
		t.Fatalf("flaky score %.2f not worse than healthy %.2f at equal latency", sf, so)
	}
}

func TestTrackerRecovers(t *testing.T) {
	tr := NewHealth(DefaultTrackerConfig())
	for i := 0; i < 8; i++ {
		tr.Observe("n", 0, OutcomeShed)
	}
	overloaded := scoreOf(tr, "n")
	for i := 0; i < 30; i++ {
		tr.Observe("n", 5*time.Millisecond, OutcomeOK)
	}
	if rec := scoreOf(tr, "n"); rec >= overloaded/4 {
		t.Fatalf("score %.2f did not recover from %.2f after sustained health", rec, overloaded)
	}
}

func TestTrackerRankIsStableAndPure(t *testing.T) {
	tr := NewHealth(DefaultTrackerConfig())
	in := []string{"c", "a", "b"}
	got := tr.Rank(in)
	// All unseen: equal scores, so input order is preserved...
	if !reflect.DeepEqual(got, []string{"c", "a", "b"}) {
		t.Fatalf("tie rank %v, want input order", got)
	}
	// ...and the input slice is not mutated once scores diverge.
	tr.Observe("b", time.Millisecond, OutcomeOK)
	out := tr.Rank(in)
	if out[0] != "b" {
		t.Fatalf("rank %v, want b first", out)
	}
	if !reflect.DeepEqual(in, []string{"c", "a", "b"}) {
		t.Fatalf("Rank mutated its input: %v", in)
	}
}

func TestTrackerDeterministicAcrossRuns(t *testing.T) {
	run := func() []NodeScore {
		tr := NewHealth(DefaultTrackerConfig())
		for i := 0; i < 50; i++ {
			tr.Observe("a", time.Duration(i%7)*time.Millisecond, Outcome(i%3))
			tr.Observe("b", time.Duration(i%11)*time.Millisecond, OutcomeOK)
		}
		return tr.Snapshot()
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ across identical runs:\n%v\n%v", a, b)
	}
}

// The zero TrackerConfig turns ranking off: observations still drive the
// circuit view, but ranking is identity and the ranking view reports
// nothing.
func TestTrackerNil(t *testing.T) {
	tr := NewHealth(TrackerConfig{})
	reg := telemetry.NewRegistry()
	tr.SetTelemetry(reg)
	tr.Observe("a", time.Millisecond, OutcomeOK)
	tr.Observe("b", 90*time.Millisecond, OutcomeShed)
	in := []string{"b", "a"}
	if got := tr.Rank(in); !reflect.DeepEqual(got, in) {
		t.Fatalf("unranked rank %v, want identity", got)
	}
	if tr.Snapshot() != nil {
		t.Fatalf("ranking off must report zero state")
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 {
		t.Fatalf("ranking off registered instruments: %+v", snap)
	}
}

func TestTrackerTelemetry(t *testing.T) {
	tr := NewHealth(DefaultTrackerConfig())
	reg := telemetry.NewRegistry()
	tr.SetTelemetry(reg)
	tr.Observe("n1", 20*time.Millisecond, OutcomeOK)
	snap := reg.Snapshot()
	if got := counterValue(snap, "load_observations_total"); got != 1 {
		t.Fatalf("observations counter %d, want 1", got)
	}
	found := false
	for _, g := range snap.Gauges {
		if g.Name == "load_health_score_n1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing health-score gauge, gauges: %v", snap.Gauges)
	}
}

// scoreOf reads a node's score from the ranking snapshot (NaN when the node
// is not listed).
func scoreOf(h *Health, node string) float64 {
	for _, s := range h.Snapshot() {
		if s.Node == node {
			return s.Score
		}
	}
	return math.NaN()
}
