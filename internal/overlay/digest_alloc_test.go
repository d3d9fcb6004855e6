// The race detector instruments allocations, so allocation counts are only
// exact without it.

//go:build !race

package overlay_test

import (
	"bytes"
	"strings"
	"testing"

	"godosn/internal/crypto/merkle"
	"godosn/internal/overlay"
)

var hashSink [32]byte

// TestDigestHashAllocs pins the scrub digest plane's hashing at zero
// allocations per hash, for inputs of any size: a scrub pass rehashes every
// stored copy, so a per-hash allocation is paid once per key per pass. The
// key is longer than the compiler's 32-byte stack buffer for string
// conversions. Before the digest plane was made allocation-free, NodeHash
// and LeafHash cost 1 allocation per call and CopyLeaf 2.
func TestDigestHashAllocs(t *testing.T) {
	key := strings.Repeat("k", 100)
	val := bytes.Repeat([]byte("v"), 4096)
	l, r := merkle.LeafHash([]byte("l")), merkle.LeafHash([]byte("r"))
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"NodeHash", func() { hashSink = merkle.NodeHash(l, r) }},
		{"LeafHash", func() { hashSink = merkle.LeafHash(val) }},
		{"CopyLeaf", func() { hashSink = overlay.CopyLeaf(key, val, true) }},
		{"CopyLeaf/absent", func() { hashSink = overlay.CopyLeaf(key, nil, false) }},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, got)
		}
	}
}
