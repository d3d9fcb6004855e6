package resilience

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	cachepkg "godosn/internal/cache"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience/load"
)

func TestClassifyOverload(t *testing.T) {
	for _, err := range []error{
		simnet.ErrOverloaded,
		fmt.Errorf("wrapped: %w", simnet.ErrOverloaded),
		load.ErrShed,
		fmt.Errorf("wrapped: %w", load.ErrShed),
	} {
		if f := Classify(err); f != FaultOverload {
			t.Fatalf("Classify(%v) = %v, want FaultOverload", err, f)
		}
	}
	if FaultOverload.String() != "overload" {
		t.Fatalf("String() = %q", FaultOverload.String())
	}
	// A shed had no side effects: always retryable, idempotent or not, and
	// retryable elsewhere (a sibling has spare capacity).
	for _, idem := range []bool{true, false} {
		if !Retryable(FaultOverload, idem) {
			t.Fatalf("Retryable(FaultOverload, %v) = false", idem)
		}
		if !RetryableElsewhere(FaultOverload, idem) {
			t.Fatalf("RetryableElsewhere(FaultOverload, %v) = false", idem)
		}
	}
}

// TestBackoffScheduleByFaultClass pins which backoff schedule each fault
// class retries on: FaultOverload grows a full-jitter ceiling by
// OverloadMultiplier, every other class keeps the standard exponential
// schedule.
func TestBackoffScheduleByFaultClass(t *testing.T) {
	p := Policy{
		MaxAttempts:        5,
		BaseDelay:          10 * time.Millisecond,
		MaxDelay:           200 * time.Millisecond,
		Multiplier:         2,
		JitterFrac:         0, // standard schedule exact
		OverloadMultiplier: 4,
	}
	standard := []time.Duration{10, 20, 40, 80}   // base × 2^(retry-1), ms
	overload := []time.Duration{10, 40, 160, 200} // base × 4^(retry-1), capped, ms
	cases := []struct {
		fault Fault
		want  []time.Duration
	}{
		{FaultNone, standard},
		{FaultTransient, standard},
		{FaultAckLost, standard},
		{FaultPermanent, standard},
		{FaultCorruption, standard},
		{FaultOverload, overload},
	}
	for _, tc := range cases {
		for retry, want := range tc.want {
			// nil rng: the overload schedule returns its ceiling, the
			// standard schedule its jitterless value — both exact.
			got := p.BackoffFor(nil, retry+1, tc.fault)
			if got != want*time.Millisecond {
				t.Errorf("%v retry %d: backoff %v, want %v", tc.fault, retry+1, got, want*time.Millisecond)
			}
		}
	}
	// With an RNG the overload delay is full jitter: uniform in
	// [0, ceiling], so spread across the range rather than pinned near it.
	rng := rand.New(rand.NewSource(7))
	low, high := 0, 0
	for i := 0; i < 200; i++ {
		d := p.BackoffFor(rng, 2, FaultOverload)
		if d < 0 || d > 40*time.Millisecond {
			t.Fatalf("overload jitter %v outside [0, 40ms]", d)
		}
		if d < 20*time.Millisecond {
			low++
		} else {
			high++
		}
	}
	if low == 0 || high == 0 {
		t.Fatalf("overload jitter not spread over the ceiling: %d low / %d high", low, high)
	}
	// The standard schedule jitters ±JitterFrac around the midpoint — never
	// down to zero — so the two schedules are genuinely different shapes.
	pj := p
	pj.JitterFrac = 0.2
	for i := 0; i < 200; i++ {
		d := pj.BackoffFor(rng, 2, FaultTransient)
		if d < 16*time.Millisecond || d > 24*time.Millisecond {
			t.Fatalf("transient jitter %v outside ±20%% of 20ms", d)
		}
	}
}

// TestShedNodeIsNotQuarantined locks in shed ≠ Byzantine: a node refusing
// load is circuit-broken at most (reads route around it), never
// corruption-quarantined — it keeps receiving copies.
func TestShedNodeIsNotQuarantined(t *testing.T) {
	d, net, names := buildDHT(t, 12, 5, 0, 3)
	kv := Wrap(d, DefaultConfig(5))
	for i := 0; i < 10; i++ {
		if _, err := kv.Store(string(names[0]), fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("store: %v", err)
		}
	}
	// Every node sheds beyond one request per window, and the window never
	// advances: overload everywhere.
	for _, name := range names {
		if err := net.SetCapacity(name, simnet.CapacityConfig{PerTick: 1, QueueDepth: 0}); err != nil {
			t.Fatalf("SetCapacity: %v", err)
		}
	}
	for i := 0; i < 10; i++ {
		kv.Lookup(string(names[1]), fmt.Sprintf("k%d", i)) //nolint:errcheck // failures expected
	}
	if net.Overload().Sheds == 0 {
		t.Fatalf("workload shed nothing; the regression is not exercised")
	}
	if q := kv.Breaker().QuarantinedNodes(); len(q) != 0 {
		t.Fatalf("shedding nodes were quarantined as corrupt: %v", q)
	}
}

// TestShedDoesNotPoisonValueCache locks in that an overload failure mid-
// lookup is never cached: once capacity returns, the same key serves its
// true value.
func TestShedDoesNotPoisonValueCache(t *testing.T) {
	d, net, names := buildDHT(t, 12, 9, 0, 3)
	cfg := DefaultConfig(9)
	cfg.Cache = cachepkg.Config{Capacity: 32}
	kv := Wrap(d, cfg)
	if _, err := kv.Store(string(names[0]), "key", []byte("true-value")); err != nil {
		t.Fatalf("store: %v", err)
	}
	for _, name := range names {
		if err := net.SetCapacity(name, simnet.CapacityConfig{PerTick: 1, QueueDepth: 0}); err != nil {
			t.Fatalf("SetCapacity: %v", err)
		}
	}
	_, _, err := kv.Lookup(string(names[1]), "key")
	if err == nil {
		t.Skip("lookup survived total overload; cannot exercise the poisoning path at this seed")
	}
	if Classify(err) != FaultOverload {
		t.Fatalf("overloaded lookup failed as %v (%v), want overload", Classify(err), err)
	}
	// Capacity restored: the failed lookup must not have been cached.
	for _, name := range names {
		if err := net.SetCapacity(name, simnet.CapacityConfig{}); err != nil {
			t.Fatalf("clear capacity: %v", err)
		}
	}
	v, _, err := kv.Lookup(string(names[1]), "key")
	if err != nil {
		t.Fatalf("lookup after recovery: %v", err)
	}
	if string(v) != "true-value" {
		t.Fatalf("lookup after recovery = %q, want the stored value", v)
	}
}

// TestClientAdmissionGateSheds proves client-side backpressure: operations
// beyond the gate's budget are shed locally as FaultOverload before any
// message is sent, counted in ClientSheds, and a Tick re-admits.
func TestClientAdmissionGateSheds(t *testing.T) {
	d, net, names := buildDHT(t, 12, 11, 0, 3)
	cfg := DefaultConfig(11)
	cfg.Admission = load.GateConfig{PerTick: 2, QueueDepth: 0}
	kv := Wrap(d, cfg)
	if _, err := kv.Store(string(names[0]), "key", []byte("v")); err != nil {
		t.Fatalf("store: %v", err)
	}
	if _, _, err := kv.Lookup(string(names[1]), "key"); err != nil {
		t.Fatalf("budgeted lookup: %v", err)
	}
	before := net.Totals().Messages
	_, _, err := kv.Lookup(string(names[1]), "key")
	if Classify(err) != FaultOverload || !errors.Is(err, load.ErrShed) {
		t.Fatalf("over-budget lookup: %v, want a client shed", err)
	}
	if after := net.Totals().Messages; after != before {
		t.Fatalf("client shed sent %d messages, want none", after-before)
	}
	m := kv.Metrics()
	if m.ClientSheds != 1 || m.Failures != 1 {
		t.Fatalf("metrics %+v, want 1 client shed counted as 1 failure", m)
	}
	kv.Tick()
	if _, _, err := kv.Lookup(string(names[1]), "key"); err != nil {
		t.Fatalf("post-tick lookup: %v", err)
	}
}

// TestHealthRankingSteersAwayFromHotNode drives the full loop: a capacity-
// limited replica sheds, the tracker hears it, and subsequent hedged reads
// demote the hot node so lookups keep succeeding off its siblings.
func TestHealthRankingSteersAwayFromHotNode(t *testing.T) {
	d, net, names := buildDHT(t, 12, 13, 0, 3)
	cfg := DefaultConfig(13)
	cfg.Health = load.DefaultTrackerConfig()
	kv := Wrap(d, cfg)
	if _, err := kv.Store(string(names[0]), "key", []byte("v")); err != nil {
		t.Fatalf("store: %v", err)
	}
	replicas, _, err := d.ReplicasFor(string(names[0]), "key")
	if err != nil {
		t.Fatalf("ReplicasFor: %v", err)
	}
	hot := replicas[0] // canonical primary: every unranked read hits it first
	if err := net.SetCapacity(simnet.NodeID(hot), simnet.CapacityConfig{PerTick: 1, QueueDepth: 0}); err != nil {
		t.Fatalf("SetCapacity: %v", err)
	}
	for i := 0; i < 12; i++ {
		net.TickCapacity()
		if _, _, err := kv.Lookup(string(names[1]), "key"); err != nil {
			t.Fatalf("lookup %d under a single hot replica: %v", i, err)
		}
	}
	snap := kv.HealthSnapshot()
	var hotScore, bestSibling float64
	for _, ns := range snap {
		if ns.Node == hot {
			hotScore = ns.Score
		} else if bestSibling == 0 || ns.Score < bestSibling {
			bestSibling = ns.Score
		}
	}
	if hotScore == 0 {
		t.Fatalf("hot node %s has no health state; snapshot %+v", hot, snap)
	}
	if hotScore <= bestSibling {
		t.Fatalf("hot node score %.2f not worse than healthiest sibling %.2f", hotScore, bestSibling)
	}
}
