// The race detector instruments allocations, so allocation counts are only
// exact without it.

//go:build !race

package scrub

import "testing"

// TestCheckAllocs pins record verification — the Verify hook of every
// verified read and every scrub election — at zero allocations for a valid
// record and one (the error) for a corrupt one. Before Check verified in
// place it cost 3 allocations for a valid record and 5 for a corrupt one.
func TestCheckAllocs(t *testing.T) {
	key := "timeline/a-user-name-longer-than-a-stack-conversion/00042"
	rec := Seal(key, []byte("a post body of a few dozen bytes, sealed"))
	if got := testing.AllocsPerRun(100, func() {
		if err := Check(key, rec); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Check(valid): %.1f allocs/op, want 0", got)
	}
	bad := flip(rec, len(rec)-1)
	if got := testing.AllocsPerRun(100, func() {
		if Check(key, bad) == nil {
			t.Fatal("corrupt record verified")
		}
	}); got > 1 {
		t.Errorf("Check(corrupt): %.1f allocs/op, want <= 1", got)
	}
}

// TestSweepTickAllocCeiling pins the host cost of a clean sweep tick over a
// preloaded keyspace: one 32-key chunk per tick (an unbudgeted tick scrubs
// exactly one), every group digest-clean.
// Digests hash without allocating and the digest phase, group formation
// and the pass fingerprint are positional, so a tick's allocations are per
// chunk, per group and per replica RPC, never per hashed copy. The ceiling
// is the measured count (233); before the digest plane was made
// allocation-free it measured 1562.
func TestSweepTickAllocCeiling(t *testing.T) {
	f := newFixture(t, 5, 48, 512)
	s := New(f.d, DefaultConfig(f.client))
	sw := NewSweeper(s, f.d, f.keys, SweepConfig{ChunkKeys: 32})
	tick := func() {
		rep, err := sw.Tick()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Chunks != 1 || rep.Divergent != 0 {
			t.Fatalf("tick scrubbed %d chunks, %d divergent keys; want 1 clean chunk", rep.Chunks, rep.Divergent)
		}
	}
	for i := 0; i < sw.Chunks(); i++ {
		tick()
	}
	if got := testing.AllocsPerRun(2*sw.Chunks(), tick); got > 233 {
		t.Errorf("clean 32-key sweep tick: %.1f allocs/op, ceiling 233", got)
	}
}
