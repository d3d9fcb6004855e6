package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// bounds reads the end-to-end bounds from the repository's BENCHMARK.json,
// so the self-test holds the benchmark to the bounds it is judged by.
func bounds(t *testing.T) map[string]float64 {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	out := map[string]float64{}
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// simulated are the end-to-end metrics computed from simulated cost and
// outcomes only; a change of host speed must leave them untouched.
var simulated = []string{
	"msgs_per_op", "bytes_per_op", "ok_ratio",
	"sim_read_p50_ms", "sim_read_p99_ms", "sim_write_p50_ms", "sim_write_p99_ms",
}

func countedRun(t *testing.T, name string, o opts) (*result, map[string]metric) {
	t.Helper()
	o.countOnly, o.telemetry = true, true
	res, err := runWorkload(lookup(name), o)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, o.seed, err)
	}
	m, err := endToEndMetrics(res)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, o.seed, err)
	}
	return res, m
}

// TestPlantedDelayMovesThroughput proves the benchmark measures the
// program: a seam that spins a fixed time on every DHT call must cost more
// ops_per_s than the metric's bound, while every simulated metric stays
// exactly the same.
func TestPlantedDelayMovesThroughput(t *testing.T) {
	bound := bounds(t)["ops_per_s"]
	for _, tc := range []struct {
		name string
		spin time.Duration
	}{
		{"stream-batched", 200 * time.Microsecond}, // one DHT call per 64-key batch
		{"chaos-perkey", 20 * time.Microsecond},    // about one DHT call per key
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Warm the process so both compared runs start alike.
			countedRun(t, tc.name, opts{seed: 3})
			base, bm := countedRun(t, tc.name, opts{seed: 3})
			slow, sm := countedRun(t, tc.name, opts{seed: 3, pl: plant{spin: tc.spin}})
			if err := sameCounts(base.count, slow.count, false); err != nil {
				t.Fatalf("planted delay changed simulated outcomes: %v", err)
			}
			for _, n := range simulated {
				if bm[n] != sm[n] {
					t.Errorf("%s: %v without the delay, %v with it", n, bm[n].Value, sm[n].Value)
				}
			}
			if want := bm["ops_per_s"].Value * (1 - bound); sm["ops_per_s"].Value >= want {
				t.Errorf("ops_per_s %.0f with the delay, want below %.0f (%.0f without, bound %.2f)",
					sm["ops_per_s"].Value, want, bm["ops_per_s"].Value, bound)
			}
		})
	}
}

// TestPlantedLookupMovesMessages proves a program that spends one extra
// Lookup per read shows in msgs_per_op beyond the metric's bound.
func TestPlantedLookupMovesMessages(t *testing.T) {
	bound := bounds(t)["msgs_per_op"]
	for _, name := range []string{"stream-batched", "chaos-perkey"} {
		t.Run(name, func(t *testing.T) {
			_, bm := countedRun(t, name, opts{seed: 3})
			_, pm := countedRun(t, name, opts{seed: 3, pl: plant{extraLookup: true}})
			if want := bm["msgs_per_op"].Value * (1 + bound); pm["msgs_per_op"].Value <= want {
				t.Errorf("msgs_per_op %.3f with the extra Lookup, want above %.3f (%.3f without)",
					pm["msgs_per_op"].Value, want, bm["msgs_per_op"].Value)
			}
		})
	}
}

// TestDeterminism checks, for every workload, that two runs of one seed
// agree on every counted output and simulated metric (an untraced and a
// traced run, which also proves the seam forwards every capability), and
// that a second seed passes every output check with different inputs.
func TestDeterminism(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a, am := countedRun(t, sp.name, opts{seed: 5})
			b, bm := countedRun(t, sp.name, opts{seed: 5, tr: newTracer()})
			if err := sameCounts(a.count, b.count, sp.bytesVary); err != nil {
				t.Fatalf("same seed, different outcomes: %v", err)
			}
			for _, n := range simulated {
				if n == "bytes_per_op" && sp.bytesVary {
					continue
				}
				if am[n] != bm[n] {
					t.Errorf("%s: %v then %v", n, am[n].Value, bm[n].Value)
				}
			}
			for _, k := range []string{"rot.rotted", "rot.left", "rot.repair_ticks_p50", "scrub.msgs", "scrub.repaired"} {
				if a.count.layer[k] != b.count.layer[k] {
					t.Errorf("%s: %v then %v", k, a.count.layer[k], b.count.layer[k])
				}
			}
			c, _ := countedRun(t, sp.name, opts{seed: 6})
			if a.count.digest == c.count.digest {
				t.Errorf("seeds 5 and 6 produced the same read digest")
			}
		})
	}
}

func TestPercentileNeedsTenSamplesInTheTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.99, "p99"); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(xs[:999], 0.99, "p99"); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
}
