package merkle

import (
	"bytes"
	"testing"
)

var benchSink [32]byte

func BenchmarkLeafHash(b *testing.B) {
	data := bytes.Repeat([]byte("x"), 128) // about one sealed record
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = LeafHash(data)
	}
}

func BenchmarkNodeHash(b *testing.B) {
	l, r := LeafHash([]byte("l")), LeafHash([]byte("r"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = NodeHash(l, r)
	}
}

// BenchmarkRootOf folds a 33-leaf range: a nonce leaf plus one 32-key
// scrub chunk.
func BenchmarkRootOf(b *testing.B) {
	leaves := make([][32]byte, 33)
	for i := range leaves {
		leaves[i] = LeafHash([]byte{byte(i)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = RootOf(leaves)
	}
}
