package scrub

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience/load"
	"godosn/internal/telemetry"
)

// fixture builds a DHT over a lossless simnet with sealed records stored.
type fixture struct {
	net    *simnet.Network
	d      *dht.DHT
	names  []simnet.NodeID
	keys   []string
	client string
}

func newFixture(t *testing.T, seed int64, peers, keys int) *fixture {
	t.Helper()
	f := &fixture{net: simnet.New(simnet.Config{Seed: seed})}
	f.names = make([]simnet.NodeID, peers)
	for i := range f.names {
		f.names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	var err error
	f.d, err = dht.New(f.net, f.names, dht.Config{ReplicationFactor: 3})
	if err != nil {
		t.Fatalf("dht.New: %v", err)
	}
	f.client = string(f.names[0])
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%d", i)
		f.keys = append(f.keys, key)
		if _, err := f.d.Store(f.client, key, Seal(key, []byte(fmt.Sprintf("payload-%d", i)))); err != nil {
			t.Fatalf("Store: %v", err)
		}
	}
	return f
}

// replicasOf returns the canonical holders of a key.
func (f *fixture) replicasOf(t *testing.T, key string) []string {
	t.Helper()
	names, _, err := f.d.ReplicasFor(f.client, key)
	if err != nil {
		t.Fatalf("ReplicasFor: %v", err)
	}
	return names
}

func TestScrubCleanStateTakesDigestFastPath(t *testing.T) {
	f := newFixture(t, 101, 20, 24)
	s := New(f.d, DefaultConfig(f.client))
	rep, err := s.Scrub(f.keys)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep.KeysScanned != len(f.keys) {
		t.Fatalf("KeysScanned = %d, want %d", rep.KeysScanned, len(f.keys))
	}
	if rep.DigestClean != rep.Groups || rep.Groups == 0 {
		t.Fatalf("DigestClean = %d of %d groups; clean state must short-circuit every group", rep.DigestClean, rep.Groups)
	}
	if rep.KeysCompared != 0 || rep.Repaired != 0 || rep.CorruptCopies != 0 || rep.Failed != 0 {
		t.Fatalf("clean state did work: %+v", rep)
	}
	// The pass fingerprint is deterministic.
	rep2, err := s.Scrub(f.keys)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep.Digest != rep2.Digest {
		t.Fatal("identical passes produced different digests")
	}
}

func TestScrubDetectsAndRepairsStoredBitRot(t *testing.T) {
	f := newFixture(t, 102, 20, 24)
	victimKey := f.keys[5]
	victim := f.replicasOf(t, victimKey)[1]
	if !f.d.CorruptStored(victim, victimKey, func(b []byte) []byte {
		b[len(b)-1] ^= 0x40
		return b
	}) {
		t.Fatalf("victim %s does not hold %s", victim, victimKey)
	}
	var verdicts []string
	s := New(f.d, DefaultConfig(f.client))
	s.SetVerdict(func(node string, ok bool) {
		if !ok {
			verdicts = append(verdicts, node)
		}
	})
	rep, err := s.Scrub(f.keys)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep.CorruptCopies != 1 || rep.Repaired != 1 || rep.DivergentKeys != 1 {
		t.Fatalf("corrupt=%d repaired=%d divergent=%d, want 1/1/1", rep.CorruptCopies, rep.Repaired, rep.DivergentKeys)
	}
	if len(verdicts) != 1 || verdicts[0] != victim {
		t.Fatalf("verdicts = %v, want exactly [%s]", verdicts, victim)
	}
	// The victim's copy is healthy again: it serves a verifying record.
	v, _, err := f.d.LookupFrom(f.client, victimKey, victim)
	if err != nil || Check(victimKey, v) != nil {
		t.Fatalf("repaired copy still bad: %v / %v", err, Check(victimKey, v))
	}
	// The next pass is fully clean.
	rep2, err := s.Scrub(f.keys)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep2.DigestClean != rep2.Groups {
		t.Fatalf("post-repair pass not clean: %+v", rep2)
	}
}

func TestScrubOverwritesDivergentValidReplica(t *testing.T) {
	// The stale-replay shape: one replica holds a record that verifies —
	// it is just a different (older) value. The verified majority wins.
	f := newFixture(t, 103, 20, 24)
	key := f.keys[7]
	victim := f.replicasOf(t, key)[2]
	stale := Seal(key, []byte("an older but validly sealed value"))
	if _, err := f.d.StoreTo(f.client, key, stale, victim); err != nil {
		t.Fatalf("StoreTo: %v", err)
	}
	s := New(f.d, DefaultConfig(f.client))
	rep, err := s.Scrub(f.keys)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep.CorruptCopies != 1 || rep.Repaired != 1 {
		t.Fatalf("corrupt=%d repaired=%d, want 1/1", rep.CorruptCopies, rep.Repaired)
	}
	v, _, err := f.d.LookupFrom(f.client, key, victim)
	if err != nil || bytes.Equal(v, stale) {
		t.Fatalf("divergent replica not overwritten with the majority copy (err=%v)", err)
	}
}

func TestScrubRestoresCopiesLostToCrash(t *testing.T) {
	f := newFixture(t, 104, 20, 24)
	// Crash-restart wipes a node's volatile store: every key it held is
	// now a missing copy.
	victim := string(f.names[9])
	if err := f.net.Crash(simnet.NodeID(victim)); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if err := f.net.SetOnline(simnet.NodeID(victim), true); err != nil {
		t.Fatalf("restart: %v", err)
	}
	s := New(f.d, DefaultConfig(f.client))
	rep, err := s.Scrub(f.keys)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep.MissingCopies == 0 || rep.Repaired < rep.MissingCopies {
		t.Fatalf("missing=%d repaired=%d; crash losses not restored", rep.MissingCopies, rep.Repaired)
	}
	rep2, err := s.Scrub(f.keys)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep2.MissingCopies != 0 {
		t.Fatalf("second pass still missing %d copies", rep2.MissingCopies)
	}
}

func TestScrubVerdictsQuarantineByzantineReplica(t *testing.T) {
	f := newFixture(t, 105, 16, 30)
	liar := string(f.names[4])
	if err := f.net.SetByzantine(simnet.NodeID(liar), simnet.ByzantineConfig{Mode: simnet.ByzBitFlip, Rate: 1}); err != nil {
		t.Fatalf("SetByzantine: %v", err)
	}
	breaker := load.NewHealth(load.TrackerConfig{})
	s := New(f.d, DefaultConfig(f.client))
	s.SetVerdict(func(node string, ok bool) {
		if ok {
			breaker.Report(node, true)
		} else {
			breaker.ReportCorrupt(node)
		}
	})
	rep, err := s.Scrub(f.keys)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep.CorruptCopies == 0 {
		t.Fatal("rate-1 corrupter condemned nowhere")
	}
	if !breaker.Quarantined(liar) {
		t.Fatalf("liar not quarantined after one pass (%d condemnations total)", rep.CorruptCopies)
	}
	// Only the liar: honest replicas collect no corruption verdicts.
	if q := breaker.QuarantinedNodes(); len(q) != 1 || q[0] != liar {
		t.Fatalf("QuarantinedNodes = %v, want [%s]", q, liar)
	}
	// The lying node corrupts *replies*; its stored state is intact, so
	// nothing needed repair — detection must not manufacture divergence
	// where the disks agree. (Repairs pushed to it are allowed; its store
	// accepts them honestly.)
	if rep.Failed != 0 {
		t.Fatalf("%d keys failed outright; majority election should survive one liar", rep.Failed)
	}
}

func TestScrubWorkersProduceIdenticalReports(t *testing.T) {
	run := func(workers int) (Report, []string) {
		f := newFixture(t, 106, 20, 30)
		for _, i := range []int{3, 11, 19} {
			key := f.keys[i]
			victim := f.replicasOf(t, key)[0]
			f.d.CorruptStored(victim, key, func(b []byte) []byte {
				b[0] ^= 0x01
				return b
			})
		}
		cfg := DefaultConfig(f.client)
		cfg.Workers = workers
		var verdicts []string
		s := New(f.d, cfg)
		s.SetVerdict(func(node string, ok bool) {
			verdicts = append(verdicts, fmt.Sprintf("%s:%v", node, ok))
		})
		rep, err := s.Scrub(f.keys)
		if err != nil {
			t.Fatalf("Scrub(workers=%d): %v", workers, err)
		}
		return rep, verdicts
	}
	r1, v1 := run(1)
	r4, v4 := run(4)
	if r1.CorruptCopies != 3 || r1.Repaired != 3 {
		t.Fatalf("serial pass: corrupt=%d repaired=%d, want 3/3", r1.CorruptCopies, r1.Repaired)
	}
	if !reflect.DeepEqual(r1, r4) {
		t.Fatalf("reports diverge across worker counts:\n  1: %+v\n  4: %+v", r1, r4)
	}
	if !reflect.DeepEqual(v1, v4) {
		t.Fatalf("verdict order diverges across worker counts:\n  1: %v\n  4: %v", v1, v4)
	}
}

func TestScrubEmptyAndUnknownKeys(t *testing.T) {
	f := newFixture(t, 107, 8, 4)
	s := New(f.d, DefaultConfig(f.client))
	rep, err := s.Scrub(nil)
	if err != nil || rep.KeysScanned != 0 {
		t.Fatalf("empty scrub: %v %+v", err, rep)
	}
	// A key nobody stored: every replica reports not-found; nothing is
	// verified, nothing is repairable, and the key must be counted failed
	// rather than silently skipped or invented.
	rep, err = s.Scrub([]string{"never-stored"})
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep.KeysScanned != 1 {
		t.Fatalf("KeysScanned = %d", rep.KeysScanned)
	}
	if rep.Repaired != 0 {
		t.Fatalf("repaired %d copies of a key that never existed", rep.Repaired)
	}
}

func TestScrubNonceCatchesDigestReplayWithinOnePass(t *testing.T) {
	// A ByzReplay node serves a previously recorded digest reply. That
	// recording was made over clean data, so without the per-pass freshness
	// nonce the replayed root would still match the honest replicas' and
	// the node's later bit rot would digest-clean its way past the pass.
	// The nonce binds every digest to the pass that requested it: the
	// replayed reply answers for a stale nonce, diverges, and forces the
	// drill-down that condemns and repairs the corrupt copy immediately.
	f := newFixture(t, 108, 3, 1) // 3 nodes, RF 3: one group holding one key
	key := f.keys[0]
	replayer := f.replicasOf(t, key)[1]
	if err := f.net.SetByzantine(simnet.NodeID(replayer), simnet.ByzantineConfig{Mode: simnet.ByzReplay, Rate: 1}); err != nil {
		t.Fatalf("SetByzantine: %v", err)
	}

	s := New(f.d, DefaultConfig(f.client))
	// Pass 1 (nonce 1): everything is clean; the replayer answers honestly
	// (nothing recorded yet) and records its digest reply.
	rep1, err := s.Scrub(f.keys)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep1.DigestClean != 1 || rep1.CorruptCopies != 0 {
		t.Fatalf("pass 1 not clean: %+v", rep1)
	}

	// The replayer's stored copy rots between passes.
	if !f.d.CorruptStored(replayer, key, func(b []byte) []byte {
		b[0] ^= 0x80
		return b
	}) {
		t.Fatalf("replayer %s does not hold %s", replayer, key)
	}

	// Pass 2 (nonce 2): the replayer replays its pass-1 digest reply.
	var condemned []string
	s.SetVerdict(func(node string, ok bool) {
		if !ok {
			condemned = append(condemned, node)
		}
	})
	rep2, err := s.Scrub(f.keys)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep2.DigestClean != 0 {
		t.Fatal("replayed stale digest passed as fresh: nonce binding failed")
	}
	if rep2.KeysCompared != 1 || rep2.CorruptCopies != 1 {
		t.Fatalf("drill-down did not condemn the rotten copy: %+v", rep2)
	}
	if rep2.RepairedWrites != 1 || rep2.Repaired != 1 {
		t.Fatalf("rotten copy not repaired within the pass: %+v", rep2)
	}
	if len(condemned) != 1 || condemned[0] != replayer {
		t.Fatalf("condemned = %v, want exactly [%s]", condemned, replayer)
	}

	// With the Byzantine mode cleared, the repaired copy verifies.
	if err := f.net.SetByzantine(simnet.NodeID(replayer), simnet.ByzantineConfig{Mode: simnet.ByzNone}); err != nil {
		t.Fatalf("SetByzantine: %v", err)
	}
	v, _, err := f.d.LookupFrom(f.client, key, replayer)
	if err != nil || Check(key, v) != nil {
		t.Fatalf("repaired copy still bad: %v / %v", err, Check(key, v))
	}
}

func TestScrubReportSplitsRepairAccounting(t *testing.T) {
	// One rotten copy (repaired) and one unreachable replica: the split
	// counters attribute each without conflating write failures with
	// holders the pass could not reach.
	f := newFixture(t, 109, 20, 24)
	key := f.keys[2]
	reps := f.replicasOf(t, key)
	f.d.CorruptStored(reps[1], key, func(b []byte) []byte {
		b[0] ^= 0x04
		return b
	})
	if err := f.net.SetOnline(simnet.NodeID(reps[2]), false); err != nil {
		t.Fatalf("SetOnline: %v", err)
	}
	s := New(f.d, DefaultConfig(f.client))
	rep, err := s.Scrub([]string{key})
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	// The rotten copy is repaired; the extension replica that replaced the
	// offline holder may also receive the missing copy.
	if rep.CorruptCopies != 1 || rep.RepairedWrites < 1 {
		t.Fatalf("corrupt=%d repairedWrites=%d, want 1/>=1", rep.CorruptCopies, rep.RepairedWrites)
	}
	if rep.UnreachableHolders == 0 {
		t.Fatalf("offline replica not counted unreachable: %+v", rep)
	}
	if rep.Repaired != rep.RepairedWrites || rep.Unrepairable != rep.RepairWriteFailures {
		t.Fatalf("view fields diverge from split counters: %+v", rep)
	}
}

// TestScrubTelemetryDeterministicAcrossWorkers is the telemetry half of the
// Workers contract: with a fixed-delay (zero-jitter, lossless) net, a scrub
// pass over corrupted state must render byte-identical metric dumps and span
// trees whether groups are scanned serially or eight at a time. Worker-built
// group spans are detached and adopted in merge order, and every counter
// commutes, so parallelism cannot reorder what the probes report.
func TestScrubTelemetryDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) (metrics, trace string, rep Report) {
		t.Helper()
		net := simnet.New(simnet.Config{Seed: 110, BaseLatency: 10 * time.Millisecond})
		names := make([]simnet.NodeID, 20)
		for i := range names {
			names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
		}
		d, err := dht.New(net, names, dht.Config{ReplicationFactor: 3})
		if err != nil {
			t.Fatalf("dht.New: %v", err)
		}
		client := string(names[0])
		keys := make([]string, 24)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d", i)
			if _, err := d.Store(client, keys[i], Seal(keys[i], []byte(fmt.Sprintf("payload-%d", i)))); err != nil {
				t.Fatalf("Store: %v", err)
			}
		}
		for _, i := range []int{2, 9, 17} {
			reps, _, err := d.ReplicasFor(client, keys[i])
			if err != nil {
				t.Fatalf("ReplicasFor: %v", err)
			}
			if !d.CorruptStored(reps[1], keys[i], func(b []byte) []byte {
				b[0] ^= 0x20
				return b
			}) {
				t.Fatalf("replica %s does not hold %s", reps[1], keys[i])
			}
		}
		cfg := DefaultConfig(client)
		cfg.Workers = workers
		s := New(d, cfg)
		reg := telemetry.NewRegistry()
		s.SetTelemetry(reg)
		root := telemetry.NewSpan("scrub")
		rep, err = s.ScrubSpan(root, keys)
		if err != nil {
			t.Fatalf("ScrubSpan: %v", err)
		}
		var mbuf, tbuf bytes.Buffer
		reg.WriteText(&mbuf)
		root.Render(&tbuf)
		return mbuf.String(), tbuf.String(), rep
	}
	m1, tr1, r1 := run(1)
	m8, tr8, r8 := run(8)
	if r1.CorruptCopies != 3 || r1.RepairedWrites != 3 {
		t.Fatalf("serial pass: corrupt=%d repairedWrites=%d, want 3/3", r1.CorruptCopies, r1.RepairedWrites)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Errorf("reports differ between Workers 1 and 8:\nserial:   %+v\nparallel: %+v", r1, r8)
	}
	if m1 != m8 {
		t.Errorf("metric dumps differ between Workers 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", m1, m8)
	}
	if tr1 != tr8 {
		t.Errorf("span trees differ between Workers 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", tr1, tr8)
	}
	if !strings.Contains(tr1, "group") || !strings.Contains(tr1, "verify") || !strings.Contains(tr1, "repair") {
		t.Errorf("span tree missing expected phases:\n%s", tr1)
	}
}
