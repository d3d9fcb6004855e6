// The race detector instruments allocations and makes sync.Pool drop
// items at random, so allocation counts are only exact without it.

//go:build !race

package dht

import (
	"testing"

	"godosn/internal/cache"
)

// TestBatchAllocCeiling pins the host cost of a warm 64-key batch. The data
// plane writes results positionally and groups by one sorted index slice,
// so a batch costs a fixed handful of allocations plus a few per root group
// and replica RPC. The ceilings are the measured counts (117 and 145) plus
// one for a pool refill after a GC, so a map creeping back fails.
func TestBatchAllocCeiling(t *testing.T) {
	keys, vals := batchKeys(64)
	d, _, names := buildDHT(t, 48, Config{
		ReplicationFactor: 3,
		RouteCache:        cache.Config{Capacity: 4096, Shards: 1, Seed: 1},
	})
	client := string(names[0])
	put := func() {
		if _, _, err := d.PutBatch(client, keys, vals); err != nil {
			t.Fatal(err)
		}
	}
	get := func() {
		if _, _, err := d.GetBatch(client, keys); err != nil {
			t.Fatal(err)
		}
	}
	put()
	get()
	for _, c := range []struct {
		name    string
		run     func()
		ceiling float64
	}{
		{"PutBatch", put, 118},
		{"GetBatch", get, 146},
	} {
		if got := testing.AllocsPerRun(50, c.run); got > c.ceiling {
			t.Errorf("warm 64-key %s: %.1f allocs/op, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}
