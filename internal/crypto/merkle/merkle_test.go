package merkle

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func buildTree(n int) *Tree {
	t := New()
	for i := 0; i < n; i++ {
		t.Append([]byte(fmt.Sprintf("item-%d", i)))
	}
	return t
}

func TestEmptyTreeRoot(t *testing.T) {
	a, b := New(), New()
	if a.Root() != b.Root() {
		t.Fatal("empty roots differ")
	}
	if a.Len() != 0 {
		t.Fatal("empty tree has leaves")
	}
}

func TestRootChangesOnAppend(t *testing.T) {
	tr := New()
	prev := tr.Root()
	for i := 0; i < 10; i++ {
		tr.Append([]byte{byte(i)})
		cur := tr.Root()
		if cur == prev {
			t.Fatalf("root unchanged after append %d", i)
		}
		prev = cur
	}
}

func TestRootDeterministic(t *testing.T) {
	a := New([]byte("x"), []byte("y"), []byte("z"))
	b := New([]byte("x"), []byte("y"), []byte("z"))
	if a.Root() != b.Root() {
		t.Fatal("same leaves, different roots")
	}
	c := New([]byte("x"), []byte("z"), []byte("y"))
	if a.Root() == c.Root() {
		t.Fatal("order-insensitive root")
	}
}

func TestLeafInteriorDomainSeparation(t *testing.T) {
	// A leaf whose DATA is the interior-node encoding (child hashes) must
	// not hash to the interior digest (classic second-preimage pitfall).
	l, r := LeafHash([]byte("a")), LeafHash([]byte("b"))
	interiorEncoding := append(append([]byte{}, l[:]...), r[:]...)
	oneLeaf := New(interiorEncoding)
	twoLeaf := New([]byte("a"), []byte("b"))
	if oneLeaf.Root() == twoLeaf.Root() {
		t.Fatal("domain separation failure")
	}
}

func TestProveVerifyAllSizes(t *testing.T) {
	for n := 1; n <= 33; n++ {
		tr := buildTree(n)
		root := tr.Root()
		for i := 0; i < n; i++ {
			proof, err := tr.Prove(i)
			if err != nil {
				t.Fatalf("n=%d Prove(%d): %v", n, i, err)
			}
			leaf := LeafHash([]byte(fmt.Sprintf("item-%d", i)))
			if err := VerifyProof(root, leaf, proof); err != nil {
				t.Fatalf("n=%d VerifyProof(%d): %v", n, i, err)
			}
		}
	}
}

func TestVerifyRejectsWrongLeaf(t *testing.T) {
	tr := buildTree(8)
	proof, _ := tr.Prove(3)
	if err := VerifyProof(tr.Root(), LeafHash([]byte("intruder")), proof); err == nil {
		t.Fatal("verified wrong leaf")
	}
}

func TestVerifyRejectsWrongIndex(t *testing.T) {
	tr := buildTree(8)
	proof, _ := tr.Prove(3)
	proof.Index = 4
	leaf := LeafHash([]byte("item-3"))
	if err := VerifyProof(tr.Root(), leaf, proof); err == nil {
		t.Fatal("verified at wrong index")
	}
}

func TestVerifyRejectsMutatedPath(t *testing.T) {
	tr := buildTree(16)
	proof, _ := tr.Prove(5)
	proof.Path[1][0] ^= 1
	if err := VerifyProof(tr.Root(), LeafHash([]byte("item-5")), proof); err == nil {
		t.Fatal("verified mutated path")
	}
}

func TestProveBounds(t *testing.T) {
	tr := buildTree(4)
	if _, err := tr.Prove(-1); err == nil {
		t.Fatal("accepted negative index")
	}
	if _, err := tr.Prove(4); err == nil {
		t.Fatal("accepted out-of-range index")
	}
	if _, err := New().Prove(0); err == nil {
		t.Fatal("proved in empty tree")
	}
}

func TestConsistencyAllSizePairs(t *testing.T) {
	const maxN = 20
	full := buildTree(maxN)
	roots := make([][32]byte, maxN+1)
	partial := New()
	for i := 1; i <= maxN; i++ {
		partial.Append([]byte(fmt.Sprintf("item-%d", i-1)))
		roots[i] = partial.Root()
	}
	if roots[maxN] != full.Root() {
		t.Fatal("incremental root mismatch")
	}
	for old := 1; old <= maxN; old++ {
		// Prove from the full tree state against every historical size.
		sub := buildTree(maxN)
		proof, err := sub.ProveConsistency(old)
		if err != nil {
			t.Fatalf("ProveConsistency(%d): %v", old, err)
		}
		if err := VerifyConsistency(roots[old], roots[maxN], proof); err != nil {
			t.Fatalf("VerifyConsistency(%d->%d): %v", old, maxN, err)
		}
	}
}

func TestConsistencyRejectsFork(t *testing.T) {
	honest := buildTree(10)
	// Forked history: same length prefix then divergent entry.
	forked := New()
	for i := 0; i < 9; i++ {
		forked.Append([]byte(fmt.Sprintf("item-%d", i)))
	}
	forked.Append([]byte("EQUIVOCATED"))
	// Extend both and try to prove forked(10) extends honest's root at 10.
	proof, err := forked.ProveConsistency(10)
	if err != nil {
		t.Fatalf("ProveConsistency: %v", err)
	}
	if err := VerifyConsistency(honest.Root(), forked.Root(), proof); err == nil {
		t.Fatal("consistency proof bridged a fork")
	}
}

func TestConsistencySameSize(t *testing.T) {
	tr := buildTree(7)
	proof, err := tr.ProveConsistency(7)
	if err != nil {
		t.Fatalf("ProveConsistency: %v", err)
	}
	if err := VerifyConsistency(tr.Root(), tr.Root(), proof); err != nil {
		t.Fatalf("VerifyConsistency same size: %v", err)
	}
	other := buildTree(8)
	if err := VerifyConsistency(tr.Root(), other.Root(), proof); err == nil {
		t.Fatal("same-size proof accepted different root")
	}
}

func TestConsistencyBounds(t *testing.T) {
	tr := buildTree(5)
	if _, err := tr.ProveConsistency(0); err == nil {
		t.Fatal("accepted oldSize 0")
	}
	if _, err := tr.ProveConsistency(6); err == nil {
		t.Fatal("accepted oldSize beyond tree")
	}
}

func TestQuickConsistency(t *testing.T) {
	f := func(oldRaw, newRaw uint8) bool {
		old := int(oldRaw%40) + 1
		n := old + int(newRaw%40)
		grown := buildTree(n)
		oldTree := buildTree(old)
		proof, err := grown.ProveConsistency(old)
		if err != nil {
			return false
		}
		return VerifyConsistency(oldTree.Root(), grown.Root(), proof) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMembership(t *testing.T) {
	f := func(nRaw, idxRaw uint8) bool {
		n := int(nRaw%64) + 1
		idx := int(idxRaw) % n
		tr := buildTree(n)
		proof, err := tr.Prove(idx)
		if err != nil {
			return false
		}
		leaf := LeafHash([]byte(fmt.Sprintf("item-%d", idx)))
		return VerifyProof(tr.Root(), leaf, proof) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// LeafHashConcat must hash exactly LeafHash of the concatenation, whatever
// the split — including parts longer than its internal stack chunk.
func TestLeafHashConcatMatchesLeafHash(t *testing.T) {
	long := strings.Repeat("0123456789", 20)
	for _, c := range []struct {
		tail  []byte
		parts []string
	}{
		{nil, nil},
		{[]byte("tail"), nil},
		{nil, []string{"a"}},
		{[]byte("v"), []string{"domain\x00", "key", "\x00"}},
		{[]byte(long), []string{long, "", long[:64], long[:65]}},
	} {
		want := LeafHash([]byte(strings.Join(c.parts, "") + string(c.tail)))
		if got := LeafHashConcat(c.tail, c.parts...); got != want {
			t.Errorf("LeafHashConcat(%d-byte tail, %d parts) differs from LeafHash of the concatenation", len(c.tail), len(c.parts))
		}
	}
}
