package overlay_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"

	"godosn/internal/crypto/merkle"
	"godosn/internal/overlay"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
)

// TestDigestGolden pins the bytes of the scrub digest plane — the Merkle
// hash primitives, the copy-leaf encoding, the plain and nonce-bound roots,
// and one full digest_batch reply — to constants recorded before the plane
// was rewritten to hash from caller-owned scratch buffers. A scrubber and a
// replica must compute leaves identically, so a single changed byte in any
// encoding is a protocol break, not a refactor.
func TestDigestGolden(t *testing.T) {
	check := func(name string, got []byte, want string) {
		t.Helper()
		if h := hex.EncodeToString(got); h != want {
			t.Errorf("%s = %s, want %s", name, h, want)
		}
	}
	hash := func(h [32]byte) []byte { return h[:] }

	big := bytes.Repeat([]byte("0123456789abcdef"), 40) // 640 bytes: past any stack buffer
	check("LeafHash(nil)", hash(merkle.LeafHash(nil)), "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d")
	check("LeafHash(abc)", hash(merkle.LeafHash([]byte("abc"))), "609f6e36d2405585188d5cfd761f407c7cc46a7d3f314c88270469dde315fcd1")
	check("LeafHash(big)", hash(merkle.LeafHash(big)), "42ba47ad97dfc319b4c75aa4fd4a9286cd3e2edd1766a367e38cea1228ce4103")
	check("NodeHash", hash(merkle.NodeHash(merkle.LeafHash([]byte("l")), merkle.LeafHash([]byte("r")))), "1f0737036b8577099002f08beb1460dcffc229b312fd1107c37c86109fd6ffa8")

	for _, n := range []int{0, 1, 2, 3, 5, 33} {
		tr := &merkle.Tree{}
		for i := 0; i < n; i++ {
			tr.Append([]byte(fmt.Sprintf("item-%d", i)))
		}
		check(fmt.Sprintf("Tree.Root(%d)", n), hash(tr.Root()), goldenRoots[n])
	}

	check("CopyLeaf(present)", hash(overlay.CopyLeaf("rot/0000042", []byte("sealed body"), true)), "6160d4f6e19223c008f6556a819ee688cea3006c1ec13364c0f70f633873386d")
	check("CopyLeaf(big)", hash(overlay.CopyLeaf("rot/0000042", big, true)), "3b0febe6cc7eaac1056b4e8af6c15d4ad7784c64d615ddbff7e06985dbe3be39")
	check("CopyLeaf(empty)", hash(overlay.CopyLeaf("rot/0000042", []byte{}, true)), "fcec5102b29344c87a2b78978a574ccbf12e5a1dc7b34700ea976eb29d4e72ad")
	check("CopyLeaf(absent)", hash(overlay.CopyLeaf("rot/0000042", nil, false)), "cef12eb8d7078f99a9f51cdbec5a05da6c51c2bccbadc555f8dd0a144b9bdc67")

	leaves := make([][32]byte, 33)
	for i := range leaves {
		key := fmt.Sprintf("k/%02d", i)
		leaves[i] = overlay.CopyLeaf(key, []byte("value of "+key), i%7 != 0)
	}
	check("DigestOf(nil)", hash(overlay.DigestOf(nil)), "b9a5e386de8670d269101aac1e02c76afb283ddaccbdbe742fbc3bd0fb43a64a")
	check("DigestOf(1)", hash(overlay.DigestOf(leaves[:1])), "cef1e8c3874a63251ae033d8ebf0b5b596d7ca7dbb453ed13a3107cbbd33e7ef")
	check("DigestOf(33)", hash(overlay.DigestOf(leaves)), "e94f973282a29691ad3cabb6a5aef630dd0fc7547b11247e9a361d41c63318a1")
	check("NoncedDigestOf(0)", hash(overlay.NoncedDigestOf(7, nil)), "84c71612c2643259cfef86d9e479348ceca1ca538254fdceaa052d6f4837bb92")
	check("NoncedDigestOf(33)", hash(overlay.NoncedDigestOf(0x0123456789abcdef, leaves)), "26a047eeb5dd8c5e2aab2845203d18eb784a7cef8c06c7adf88fbcf222b471c7")

	// One full digest_batch reply from a live replica: three groups, one
	// holding keys the replica lacks, one empty.
	net := simnet.New(simnet.DefaultConfig(1))
	names := make([]simnet.NodeID, 8)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := dht.New(net, names, dht.Config{ReplicationFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 12)
	vals := make([][]byte, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("g/%02d", i)
		vals[i] = []byte(fmt.Sprintf("golden value %d", i))
	}
	if _, _, err := d.PutBatch(string(names[0]), keys, vals); err != nil {
		t.Fatal(err)
	}
	replica := d.PlanReplicas(keys[0])[0]
	groups := [][]string{keys[:5], append(keys[5:9:9], "g/absent"), nil}
	dgs, st, err := d.DigestBatchFrom(string(names[1]), groups, 99, replica)
	if err != nil {
		t.Fatal(err)
	}
	if len(dgs) != len(goldenReply) {
		t.Fatalf("DigestBatchFrom returned %d digests, want %d", len(dgs), len(goldenReply))
	}
	for i, dg := range dgs {
		check(fmt.Sprintf("reply[%d].Fresh", i), dg.Fresh[:], goldenReply[i][0])
		check(fmt.Sprintf("reply[%d].State", i), dg.State[:], goldenReply[i][1])
	}
	const wantCost = "node-2 msgs=2 bytes=272"
	if got := fmt.Sprintf("%s msgs=%d bytes=%d", replica, st.Messages, st.Bytes); got != wantCost {
		t.Errorf("DigestBatchFrom cost = %q, want %q", got, wantCost)
	}
}

// goldenRoots pins merkle.Tree.Root over "item-0" .. "item-(n-1)".
var goldenRoots = map[int]string{
	0:  "b9a5e386de8670d269101aac1e02c76afb283ddaccbdbe742fbc3bd0fb43a64a",
	1:  "149d9354e123f46c683947f46f8d8fdd7ee416fb17ea521acaf61d8e3c8c3a2d",
	2:  "7e276c34756b44b65ba40ff98b4a72a6a56af9e75d649cdad7dc98be9459cb75",
	3:  "29c5ddb153c57eaa07dc7795614ea660f6967ff71ab5d60f6e4cf2ed9ba6f70a",
	5:  "baa6733f765d115e14da4b45188ff409af71852ce8b76ffdb1ee6647b82813c6",
	33: "6ef9134c8e5fad19fbfe4bce0ee859fa00892fcb6e5f9cb8d448d6f9095c7cb8",
}

// goldenReply pins the (Fresh, State) roots of each group of the reply.
var goldenReply = [][2]string{
	{
		"378848c4bdab3ac96a65c6da65f498478caadbecd1c1bcd098e42c53144139ac",
		"36958f333636aa96ad04ef2c1e40c9b65df034288bd03bfea9b2bd22d4c036bf",
	},
	{
		"166fe5da7159851f3cf1871f1de057b8e63ac3c69b8b438c0a842ce95079d606",
		"232c790bf4252bb59fb87e620d074d1db38e694203672938717c42b9b4dff97c",
	},
	{
		"36c63ae72039a8d9563106619a6c337918df7758c40b8ad0c97c8e57f75d587b",
		"b9a5e386de8670d269101aac1e02c76afb283ddaccbdbe742fbc3bd0fb43a64a",
	},
}
