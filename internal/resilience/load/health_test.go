package load

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"godosn/internal/telemetry"
)

// TestHealthDecisionDigest pins every decision of the health record — circuit
// verdicts, skips, picks, ranks, quarantines, scores, decay, snapshots,
// events, hook calls and telemetry — to digests recorded against the
// separate circuit breaker and EWMA tracker this record replaced, fed in
// lockstep the way the resilient KV fed them. Any change to a decision
// changes the digest.
func TestHealthDecisionDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  TrackerConfig
		want uint64
	}{
		// As the scenario runtime and the benchmark configure ranking.
		{"ranking-on", TrackerConfig{Alpha: 0.3, HalfLife: 8}, 0x6c5e4085ee3a4764},
		// As E22 configures it: with error and shed penalties.
		{"ranking-on-penalties", DefaultTrackerConfig(), 0x9b735b29b02d2c1f},
		// DefaultConfig: circuit view only.
		{"ranking-off", TrackerConfig{}, 0x300b588af52fa5eb},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := healthDigest(NewHealth(tc.cfg)); got != tc.want {
				t.Errorf("digest %#x, want %#x", got, tc.want)
			}
		})
	}
}

// digest folds decisions into an FNV-1a hash.
type digest struct{ h hash.Hash64 }

func (d digest) str(s string) {
	d.h.Write([]byte(s))
	d.h.Write([]byte{0})
}

func (d digest) num(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d digest) flag(v bool) {
	if v {
		d.num(1)
	} else {
		d.num(0)
	}
}

func (d digest) float(v float64) { d.num(math.Float64bits(v)) }

func (d digest) strs(ss []string) {
	d.num(uint64(len(ss)))
	for _, s := range ss {
		d.str(s)
	}
}

// healthDigest drives a seeded mix of observations, verdicts, selections,
// ticks and snapshots over 16 nodes and folds every decision, score,
// event, hook call and telemetry value into one hash.
func healthDigest(h *Health) uint64 {
	const nodes, steps = 16, 20000
	d := digest{fnv.New64a()}
	reg := telemetry.NewRegistry()
	reg.Events().SetSink(func(e telemetry.Event) {
		d.str(e.Name)
		for _, a := range e.Attrs {
			d.str(a.Key)
			d.str(a.Value)
		}
	})
	h.SetTelemetry(reg)
	h.SetQuarantineHook(func(node string) { d.str("hook " + node) })

	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%02d", i)
	}
	rng := rand.New(rand.NewSource(20260401))
	subset := func() []string {
		perm := rng.Perm(nodes)
		out := make([]string, 3+rng.Intn(3))
		for i := range out {
			out[i] = names[perm[i]]
		}
		return out
	}
	for step := 0; step < steps; step++ {
		i := rng.Intn(nodes)
		node := names[i]
		switch op := rng.Intn(100); {
		case op < 40:
			// Node i fails with probability i/16, so circuits open, probe
			// and close across the whole range of health.
			o := OutcomeOK
			if rng.Intn(nodes) < i {
				o = Outcome(1 + rng.Intn(3))
			}
			h.Observe(node, time.Duration(rng.Intn(80))*time.Millisecond, o)
		case op < 50:
			if rng.Intn(3) == 0 {
				h.ReportCorrupt(node)
			} else {
				h.Report(node, rng.Intn(2) == 0)
			}
		case op < 75:
			ranked, skips := h.Pick(subset())
			d.strs(ranked)
			d.num(uint64(skips))
		case op < 80:
			d.flag(h.Allow(node))
		case op < 85:
			d.strs(h.Rank(subset()))
		case op < 90:
			d.flag(h.Quarantined(node))
			d.flag(h.Open(node))
		case op < 95:
			h.Tick()
		case op < 98:
			snap := h.Snapshot()
			d.num(uint64(len(snap)))
			for _, s := range snap {
				d.str(s.Node)
				for _, f := range []float64{s.Score, s.LatencyMS, s.FailRate, s.ShedRate} {
					d.float(f)
				}
			}
		default:
			d.strs(h.QuarantinedNodes())
		}
	}
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		d.str(c.Name)
		d.num(uint64(c.Value))
	}
	for _, g := range snap.Gauges {
		d.str(g.Name)
		d.float(g.Value)
	}
	return d.h.Sum64()
}

func TestPickSkipsOpenCircuitsThenRanks(t *testing.T) {
	h := NewHealth(DefaultTrackerConfig())
	for i := 0; i < Threshold; i++ {
		h.Observe("down", time.Millisecond, OutcomeError)
	}
	h.Observe("slow", 50*time.Millisecond, OutcomeOK)
	h.Observe("fast", time.Millisecond, OutcomeOK)
	in := []string{"down", "slow", "fast"}
	ranked, skips := h.Pick(in)
	if fmt.Sprint(ranked) != "[fast slow]" || skips != 1 {
		t.Fatalf("Pick = %v, %d skips; want [fast slow], 1 skip", ranked, skips)
	}
	// Every candidate refused: all are kept (each refusal still spends a
	// cooldown skip), ranked.
	ranked, skips = h.Pick([]string{"down"})
	if fmt.Sprint(ranked) != "[down]" || skips != 1 {
		t.Fatalf("all-open Pick = %v, %d skips; want [down], 1 skip", ranked, skips)
	}
	if fmt.Sprint(in) != "[down slow fast]" {
		t.Fatalf("Pick mutated its input: %v", in)
	}
	// Ranking off: survivors keep canonical order.
	off := NewHealth(TrackerConfig{})
	off.Observe("fast", time.Millisecond, OutcomeOK)
	if ranked, _ := off.Pick([]string{"slow", "fast"}); fmt.Sprint(ranked) != "[slow fast]" {
		t.Fatalf("unranked Pick reordered: %v", ranked)
	}
}

// TestHealthGaugesFollowRegistry: a node's score gauge is cached after its
// first observation, but re-attaching telemetry resolves it again in the
// new registry, so scores never keep flowing into a detached one.
func TestHealthGaugesFollowRegistry(t *testing.T) {
	h := NewHealth(DefaultTrackerConfig())
	first, second := telemetry.NewRegistry(), telemetry.NewRegistry()
	h.SetTelemetry(first)
	h.Observe("n1", 20*time.Millisecond, OutcomeOK)
	before := first.Gauge("load_health_score_n1").Value()
	h.SetTelemetry(second)
	h.Observe("n1", 20*time.Millisecond, OutcomeError)
	h.Tick()
	want := h.Snapshot()[0].Score
	if got := second.Gauge("load_health_score_n1").Value(); got != want {
		t.Errorf("new registry's gauge = %v, want the current score %v", got, want)
	}
	if got := first.Gauge("load_health_score_n1").Value(); got != before {
		t.Errorf("detached registry's gauge moved from %v to %v", before, got)
	}
}
