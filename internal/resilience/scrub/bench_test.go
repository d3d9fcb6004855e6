package scrub

import "testing"

// BenchmarkCheck measures verifying one valid sealed record — the Verify
// hook every verified read and every scrub election runs.
func BenchmarkCheck(b *testing.B) {
	key := "rot/0000042"
	rec := Seal(key, []byte("body 42 of seed 1009: 5f1c2a0e3d4b6a79"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Check(key, rec); err != nil {
			b.Fatal(err)
		}
	}
}
