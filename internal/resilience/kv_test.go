package resilience

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"godosn/internal/overlay"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
)

// buildDHT constructs a DHT over a fresh simnet with the given loss rate.
func buildDHT(t *testing.T, n int, seed int64, loss float64, replicas int) (*dht.DHT, *simnet.Network, []simnet.NodeID) {
	t.Helper()
	net := simnet.New(simnet.Config{Seed: seed, LossRate: loss})
	names := make([]simnet.NodeID, n)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := dht.New(net, names, dht.Config{ReplicationFactor: replicas})
	if err != nil {
		t.Fatalf("dht.New: %v", err)
	}
	return d, net, names
}

func TestResilientKVSucceedsWhereBareOverlayFails(t *testing.T) {
	// The same seed, the same loss rate, the same workload: the bare DHT
	// must fail some operations; the wrapped one must fail none.
	for _, loss := range []float64{0.10, 0.20, 0.30} {
		loss := loss
		t.Run(fmt.Sprintf("loss=%.0f%%", loss*100), func(t *testing.T) {
			const seed, nodes, keys = 77, 48, 60
			run := func(wrap bool) (failures int) {
				d, net, names := buildDHT(t, nodes, seed, 0, 3)
				var kv overlay.KV = d
				if wrap {
					kv = Wrap(d, DefaultConfig(seed))
				}
				for i := 0; i < keys; i++ {
					if _, err := kv.Store(string(names[0]), fmt.Sprintf("k%d", i), []byte("v")); err != nil {
						t.Fatalf("healthy store failed: %v", err)
					}
				}
				net.SetLossRate(loss)
				for i := 0; i < keys; i++ {
					if _, _, err := kv.Lookup(string(names[1]), fmt.Sprintf("k%d", i)); err != nil {
						failures++
					}
				}
				return failures
			}
			bare := run(false)
			resilient := run(true)
			if bare == 0 {
				t.Fatalf("bare overlay lost nothing at %.0f%% loss; sweep proves nothing", loss*100)
			}
			if resilient != 0 {
				t.Fatalf("resilient KV failed %d/%d lookups at %.0f%% loss (bare failed %d)",
					resilient, keys, loss*100, bare)
			}
		})
	}
}

func TestResilientStoreRetriesAckLoss(t *testing.T) {
	// At heavy loss a bare store eventually returns an ack-lost or
	// unavailable error; the wrapped store keeps retrying (stores are
	// idempotent) and must succeed for every key.
	d, _, names := buildDHT(t, 24, 13, 0.35, 3)
	kv := Wrap(d, DefaultConfig(13))
	for i := 0; i < 40; i++ {
		if _, err := kv.Store(string(names[0]), fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("resilient store %d failed under 35%% loss: %v", i, err)
		}
	}
	m := kv.Metrics()
	if m.Retries == 0 {
		t.Fatal("35% loss produced zero store retries; decorator not engaged")
	}
	if m.Backoff == 0 {
		t.Fatal("retries charged no simulated backoff latency")
	}
}

func TestHedgedReadServesFromSurvivingReplica(t *testing.T) {
	d, net, names := buildDHT(t, 24, 5, 0, 3)
	kv := Wrap(d, Config{Policy: DefaultPolicy(), Hedge: 2, Seed: 5})
	if _, err := kv.Store(string(names[0]), "k", []byte("v")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	replicas, _, err := d.ReplicasFor(string(names[0]), "k")
	if err != nil {
		t.Fatalf("ReplicasFor: %v", err)
	}
	// Kill the primary: the hedge wave must serve from a surviving
	// replica within the same attempt.
	if err := net.SetOnline(simnet.NodeID(replicas[0]), false); err != nil {
		t.Fatalf("SetOnline: %v", err)
	}
	origin := string(names[0])
	if origin == replicas[0] {
		origin = string(names[1])
	}
	v, st, err := kv.Lookup(origin, "k")
	if err != nil || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("hedged lookup: %v %q", err, v)
	}
	if st.Messages == 0 {
		t.Fatal("lookup charged no messages")
	}
	if kv.Metrics().Hedges == 0 {
		t.Fatal("no hedged read issued despite a dead primary")
	}
}

func TestBreakerSkipsNodeObservedDown(t *testing.T) {
	d, net, names := buildDHT(t, 24, 9, 0, 3)
	kv := Wrap(d, Config{
		Policy: Policy{MaxAttempts: 2, BaseDelay: 0},
		Hedge:  2,
		Seed:   9,
	})
	if _, err := kv.Store(string(names[0]), "k", []byte("v")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	replicas, _, err := d.ReplicasFor(string(names[0]), "k")
	if err != nil {
		t.Fatalf("ReplicasFor: %v", err)
	}
	primary := replicas[0]
	if err := net.SetOnline(simnet.NodeID(primary), false); err != nil {
		t.Fatalf("SetOnline: %v", err)
	}
	origin := string(names[0])
	if origin == primary {
		origin = string(names[1])
	}
	// Repeated lookups observe the dead primary; once its circuit opens,
	// later lookups skip it instead of burning a message on it.
	for i := 0; i < 6; i++ {
		if _, _, err := kv.Lookup(origin, "k"); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	if !kv.Breaker().Open(primary) {
		t.Fatal("circuit never opened for the dead primary")
	}
	if kv.Metrics().BreakerSkips == 0 {
		t.Fatal("open circuit never skipped the dead primary")
	}
	// Node recovers; the next probe closes the circuit again.
	if err := net.SetOnline(simnet.NodeID(primary), true); err != nil {
		t.Fatalf("SetOnline: %v", err)
	}
	for i := 0; i < 60 && kv.Breaker().Open(primary); i++ {
		if _, _, err := kv.Lookup(origin, "k"); err != nil {
			t.Fatalf("lookup during recovery: %v", err)
		}
	}
	if kv.Breaker().Open(primary) {
		t.Fatal("circuit stayed open after the node recovered")
	}
}

func TestLookupNotFoundIsPermanent(t *testing.T) {
	d, _, names := buildDHT(t, 16, 3, 0, 3)
	kv := Wrap(d, DefaultConfig(3))
	_, _, err := kv.Lookup(string(names[0]), "never-stored")
	if !errors.Is(err, overlay.ErrNotFound) {
		t.Fatalf("missing key: got %v, want ErrNotFound", err)
	}
	if m := kv.Metrics(); m.Retries != 0 {
		t.Fatalf("not-found was retried %d times", m.Retries)
	}
}

func TestHealPassthrough(t *testing.T) {
	d, net, names := buildDHT(t, 24, 7, 0, 3)
	kv := Wrap(d, DefaultConfig(7))
	if !kv.CanHeal() {
		t.Fatal("DHT-backed KV reports no healing")
	}
	if _, err := kv.Store(string(names[0]), "k", []byte("v")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	replicas, _, err := d.ReplicasFor(string(names[0]), "k")
	if err != nil {
		t.Fatalf("ReplicasFor: %v", err)
	}
	if err := net.Crash(simnet.NodeID(replicas[0])); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if err := net.SetOnline(simnet.NodeID(replicas[0]), true); err != nil {
		t.Fatalf("restart: %v", err)
	}
	report, err := kv.Heal()
	if err != nil {
		t.Fatalf("Heal: %v", err)
	}
	if report.Repaired < 1 {
		t.Fatalf("heal repaired %d, want >= 1", report.Repaired)
	}
	if d.LiveCopies("k") != 3 {
		t.Fatalf("live copies %d after heal, want 3", d.LiveCopies("k"))
	}
}

// fakeKV is a minimal overlay.KV without replica addressing or healing.
type fakeKV struct{ fails int }

func (f *fakeKV) Name() string { return "fake" }
func (f *fakeKV) Store(origin, key string, value []byte) (overlay.OpStats, error) {
	return overlay.OpStats{}, nil
}
func (f *fakeKV) Lookup(origin, key string) ([]byte, overlay.OpStats, error) {
	if f.fails > 0 {
		f.fails--
		return nil, overlay.OpStats{Messages: 1}, fmt.Errorf("net: %w", simnet.ErrDropped)
	}
	return []byte("v"), overlay.OpStats{Messages: 1}, nil
}

func TestWrapPlainKVFallsBackToSimpleRetry(t *testing.T) {
	kv := Wrap(&fakeKV{fails: 2}, DefaultConfig(1))
	if kv.CanHeal() {
		t.Fatal("plain KV claims healing")
	}
	if _, err := kv.Heal(); !errors.Is(err, ErrNoHealer) {
		t.Fatalf("Heal on plain KV: %v", err)
	}
	v, st, err := kv.Lookup("o", "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("retried lookup: %v %q", err, v)
	}
	if st.Messages != 3 {
		t.Fatalf("messages %d, want 3 (two failures + success)", st.Messages)
	}
	if kv.Name() != "fake+resilient" {
		t.Fatalf("Name() = %q", kv.Name())
	}
}

func TestResilientKVConcurrent(t *testing.T) {
	// Exercised with -race: concurrent stores/lookups through the
	// decorator (shared breaker, metrics, jitter RNG) must be safe.
	d, net, names := buildDHT(t, 32, 15, 0, 3)
	kv := Wrap(d, DefaultConfig(15))
	for i := 0; i < 20; i++ {
		if _, err := kv.Store(string(names[0]), fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("Store: %v", err)
		}
	}
	net.SetLossRate(0.15)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			origin := string(names[(g+1)%len(names)])
			for i := 0; i < 30; i++ {
				key := fmt.Sprintf("k%d", i%20)
				if g%2 == 0 {
					_, _, _ = kv.Lookup(origin, key)
				} else {
					_, _ = kv.Store(origin, key, []byte("v"))
				}
			}
		}(g)
	}
	wg.Wait()
	m := kv.Metrics()
	if m.Ops != 8*30+20 {
		t.Fatalf("ops %d, want %d", m.Ops, 8*30+20)
	}
}
