package resilience

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience/load"
)

func TestClassifyCorruption(t *testing.T) {
	wrapped := fmt.Errorf("kv: %w: key %q", ErrCorrupt, "k1")
	if f := Classify(wrapped); f != FaultCorruption {
		t.Fatalf("Classify(ErrCorrupt) = %v, want FaultCorruption", f)
	}
	if FaultCorruption.String() != "corruption" {
		t.Fatalf("String() = %q", FaultCorruption.String())
	}
	// Corruption is never retryable against the same endpoint: the node
	// answered, wrongly — asking again teaches nothing.
	if Retryable(FaultCorruption, true) {
		t.Fatal("corruption retryable against the same endpoint")
	}
	if Retryable(FaultCorruption, false) {
		t.Fatal("corruption retryable (non-idempotent) against the same endpoint")
	}
	// But it IS worth retrying somewhere else, idempotent or not: another
	// replica may hold an honest copy.
	if !RetryableElsewhere(FaultCorruption, false) {
		t.Fatal("corruption not retryable elsewhere")
	}
	// RetryableElsewhere is a superset of Retryable for everything else.
	for _, f := range []Fault{FaultNone, FaultTransient, FaultAckLost, FaultPermanent} {
		for _, idem := range []bool{true, false} {
			if RetryableElsewhere(f, idem) != Retryable(f, idem) {
				t.Fatalf("RetryableElsewhere(%v, %v) diverges from Retryable for a non-corruption fault", f, idem)
			}
		}
	}
}

func TestBreakerCorruptionTaint(t *testing.T) {
	b := load.NewHealth(load.TrackerConfig{})
	// Loss-driven failures open the circuit but never quarantine.
	for i := 0; i < load.Threshold; i++ {
		b.Report("lossy", false)
	}
	if !b.Open("lossy") {
		t.Fatal("circuit not open after threshold failures")
	}
	if b.Quarantined("lossy") {
		t.Fatal("loss-driven open circuit reported quarantined")
	}
	// Corruption verdicts taint: open + tainted = quarantined.
	for i := 0; i < load.Threshold; i++ {
		b.ReportCorrupt("liar")
	}
	if !b.Open("liar") || !b.Quarantined("liar") {
		t.Fatalf("corrupter open=%v quarantined=%v, want both", b.Open("liar"), b.Quarantined("liar"))
	}
	if got := b.QuarantinedNodes(); len(got) != 1 || got[0] != "liar" {
		t.Fatalf("QuarantinedNodes = %v", got)
	}
	if !b.Open("lossy") || !b.Open("liar") {
		t.Fatal("open circuits did not stay open side by side")
	}
	// A successful probe rehabilitates fully: circuit closed, taint cleared.
	b.Report("liar", true)
	if b.Open("liar") || b.Quarantined("liar") {
		t.Fatal("successful probe did not rehabilitate the corrupter")
	}
	// One corruption below the threshold taints but does not yet quarantine.
	b.ReportCorrupt("once")
	if b.Quarantined("once") {
		t.Fatal("single corruption quarantined below threshold")
	}
}

// byzDHT builds a DHT with one replica of key "k" corrupting every reply,
// and a KV wrapped with a verify hook that accepts only the stored value.
func byzDHT(t *testing.T, seed int64) (kv *KV, net *simnet.Network, d interface {
	overlay.ReplicaKV
	Holds(name, key string) bool
}, corrupter string, origin string) {
	t.Helper()
	dd, netw, names := buildDHT(t, 24, seed, 0, 3)
	cfg := DefaultConfig(seed)
	cfg.Verify = func(key string, value []byte) error {
		if !bytes.Equal(value, []byte("good-"+key)) {
			return errors.New("not the stored value")
		}
		return nil
	}
	k := Wrap(dd, cfg)
	if _, err := k.Store(string(names[0]), "k", []byte("good-k")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	replicas, _, err := dd.ReplicasFor(string(names[0]), "k")
	if err != nil {
		t.Fatalf("ReplicasFor: %v", err)
	}
	corrupter = replicas[0]
	if err := netw.SetByzantine(simnet.NodeID(corrupter), simnet.ByzantineConfig{Mode: simnet.ByzBitFlip, Rate: 1}); err != nil {
		t.Fatalf("SetByzantine: %v", err)
	}
	origin = string(names[0])
	if origin == corrupter {
		origin = string(names[1])
	}
	return k, netw, dd, corrupter, origin
}

func TestVerifiedLookupRejectsCorruptionAndServesHonestReplica(t *testing.T) {
	kv, _, _, corrupter, origin := byzDHT(t, 21)
	// Every lookup must return the honest bytes: the corrupter's replies
	// fail verification and the hedge/retry path lands on honest replicas.
	for i := 0; i < 8; i++ {
		v, _, err := kv.Lookup(origin, "k")
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if !bytes.Equal(v, []byte("good-k")) {
			t.Fatalf("lookup %d surfaced corrupted bytes %q", i, v)
		}
	}
	m := kv.Metrics()
	if m.CorruptReads == 0 {
		t.Fatal("rate-1 corrupter produced zero detected corrupt reads")
	}
	if m.Failures != 0 {
		t.Fatalf("%d lookups failed outright despite honest replicas", m.Failures)
	}
	if !kv.Breaker().Quarantined(corrupter) {
		t.Fatal("persistent corrupter never quarantined")
	}
}

func TestQuarantineExcludesCorrupterFromPlacement(t *testing.T) {
	kv, _, d, corrupter, origin := byzDHT(t, 33)
	// Establish that the corrupter is a live placement target before
	// quarantine: of many keys stored up front, it holds some.
	before := 0
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("pre%d", i)
		if _, err := kv.Store(origin, key, []byte("good-"+key)); err != nil {
			t.Fatalf("pre store: %v", err)
		}
		if d.Holds(corrupter, key) {
			before++
		}
	}
	if before == 0 {
		t.Fatal("corrupter held no keys before quarantine; placement test proves nothing")
	}
	// Drive reads until the corrupter's circuit opens with taint.
	for i := 0; i < 10 && !kv.Breaker().Quarantined(corrupter); i++ {
		if _, _, err := kv.Lookup(origin, "k"); err != nil {
			t.Fatalf("lookup: %v", err)
		}
	}
	if !kv.Breaker().Quarantined(corrupter) {
		t.Fatal("corrupter not quarantined within 10 reads")
	}
	// New stores must route around it: it receives none of the new copies.
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("post%d", i)
		if _, err := kv.Store(origin, key, []byte("good-"+key)); err != nil {
			t.Fatalf("post store: %v", err)
		}
		if d.Holds(corrupter, key) {
			t.Fatalf("quarantined corrupter received new copy of %s", key)
		}
	}
}

func TestLossOpenedCircuitDoesNotBlockPlacement(t *testing.T) {
	// The converse of quarantine: a node circuit-broken by plain loss (no
	// corruption verdicts) keeps receiving copies — availability recovery
	// must not be mistaken for an integrity sanction.
	d, net, names := buildDHT(t, 24, 44, 0, 3)
	kv := Wrap(d, DefaultConfig(44))
	if _, err := kv.Store(string(names[0]), "k", []byte("v")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	replicas, _, err := d.ReplicasFor(string(names[0]), "k")
	if err != nil {
		t.Fatalf("ReplicasFor: %v", err)
	}
	dead := replicas[0]
	if err := net.SetOnline(simnet.NodeID(dead), false); err != nil {
		t.Fatalf("SetOnline: %v", err)
	}
	origin := string(names[0])
	if origin == dead {
		origin = string(names[1])
	}
	for i := 0; i < 6 && !kv.Breaker().Open(dead); i++ {
		if _, _, err := kv.Lookup(origin, "k"); err != nil {
			t.Fatalf("lookup: %v", err)
		}
	}
	if !kv.Breaker().Open(dead) {
		t.Fatal("dead node's circuit never opened")
	}
	if kv.Breaker().Quarantined(dead) {
		t.Fatal("loss-driven failures quarantined an honest node")
	}
	// Back online: new stores may still place copies on it immediately,
	// open circuit notwithstanding.
	if err := net.SetOnline(simnet.NodeID(dead), true); err != nil {
		t.Fatalf("SetOnline: %v", err)
	}
	got := 0
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("n%d", i)
		if _, err := kv.Store(origin, key, []byte("v")); err != nil {
			t.Fatalf("store: %v", err)
		}
		if d.Holds(dead, key) {
			got++
		}
	}
	if got == 0 {
		t.Fatal("loss-opened circuit excluded an honest node from placement")
	}
}
