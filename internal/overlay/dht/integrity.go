package dht

import (
	"fmt"
	"sort"

	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
)

// This file implements the DHT's integrity-repair surface: direct
// per-replica writes (overlay.RepairKV) and Merkle digests of local copies
// (overlay.DigestKV) for the anti-entropy scrubber, placement filtering
// (overlay.PlacementFilterable) so quarantined nodes stop receiving new
// copies, and seeded chaos hooks for injecting stored-state bit rot.

var (
	_ overlay.RepairKV            = (*DHT)(nil)
	_ overlay.DigestKV            = (*DHT)(nil)
	_ overlay.PlacementFilterable = (*DHT)(nil)
)

// kindDigest asks a node for the Merkle root over its copies of a key set.
const kindDigest = "dht.digest"

// digestReq carries the key set and the scrubber's per-pass freshness
// nonce; the responder must bind the nonce into its root, so a replayed
// reply (recorded under an older nonce) cannot pass as fresh.
type digestReq struct {
	Keys  []string
	Nonce uint64
}

// digestResp carries the roots as byte slices (not arrays) deliberately: a
// Byzantine responder can then corrupt them like any other payload, which
// makes the scrubber drill down to full value comparison instead of
// trusting a lying summary. Fresh is the nonce-bound root, State the
// nonce-free one (overlay.Digest).
type digestResp struct {
	Fresh []byte
	State []byte
}

// StoreTo implements overlay.RepairKV: write key=value onto one named
// replica only, bypassing routing and placement.
func (d *DHT) StoreTo(origin, key string, value []byte, replica string) (overlay.OpStats, error) {
	tr := &simnet.Trace{}
	d.mu.RLock()
	rn := d.names[simnet.NodeID(replica)]
	d.mu.RUnlock()
	if rn == nil {
		return stats(tr), fmt.Errorf("dht: %w: replica %s", simnet.ErrUnknownNode, replica)
	}
	_, err := d.net.RPC(tr, simnet.NodeID(origin), rn.name, simnet.Message{
		Kind:    kindStore,
		Payload: storeReq{Key: key, Value: value},
		Size:    len(key) + len(value),
	})
	return stats(tr), err
}

// DigestFrom implements overlay.DigestKV: one RPC retrieving the Merkle
// roots (nonce-bound and plain) over the named replica's local copies of
// keys, in the given order.
func (d *DHT) DigestFrom(origin string, keys []string, nonce uint64, replica string) (overlay.Digest, overlay.OpStats, error) {
	tr := &simnet.Trace{}
	d.mu.RLock()
	rn := d.names[simnet.NodeID(replica)]
	d.mu.RUnlock()
	if rn == nil {
		return overlay.Digest{}, stats(tr), fmt.Errorf("dht: %w: replica %s", simnet.ErrUnknownNode, replica)
	}
	size := 8
	for _, k := range keys {
		size += len(k)
	}
	reply, err := d.net.RPC(tr, simnet.NodeID(origin), rn.name, simnet.Message{
		Kind:    kindDigest,
		Payload: digestReq{Keys: append([]string(nil), keys...), Nonce: nonce},
		Size:    size,
	})
	if err != nil {
		return overlay.Digest{}, stats(tr), err
	}
	resp, ok := reply.Payload.(digestResp)
	if !ok || len(resp.Fresh) != 32 || len(resp.State) != 32 {
		return overlay.Digest{}, stats(tr), fmt.Errorf("dht: bad digest reply")
	}
	var dg overlay.Digest
	copy(dg.Fresh[:], resp.Fresh)
	copy(dg.State[:], resp.State)
	return dg, stats(tr), nil
}

// localDigest computes a node's digests over its copies of keys —
// node-local handler logic, free of network cost. leaves is scratch the
// caller owns: its slot 0 carries the nonce leaf, the rest one copy leaf per
// key, and the grown slice comes back for the next call, so a request
// digesting many groups allocates its leaves once.
func localDigest(n *node, keys []string, nonce uint64, leaves [][32]byte) (overlay.Digest, [][32]byte) {
	leaves = append(leaves[:0], [32]byte{})
	n.mu.Lock()
	for _, key := range keys {
		v, ok := n.data[key]
		leaves = append(leaves, overlay.CopyLeaf(key, v, ok))
	}
	n.mu.Unlock()
	return overlay.DigestLeaves(nonce, leaves), leaves
}

// SetPlacementFilter implements overlay.PlacementFilterable: allow vetoes
// nodes from future Store placement (nil restores canonical successor
// placement). Reads and direct repairs are unaffected.
func (d *DHT) SetPlacementFilter(allow func(node string) bool) {
	d.mu.Lock()
	d.allowPlace = allow
	d.mu.Unlock()
	d.bumpRoutes() // placement changed under memoized routes
}

// placementAllowed consults the filter; call with d.mu held.
func (d *DHT) placementAllowed(name simnet.NodeID) bool {
	return d.allowPlace == nil || d.allowPlace(string(name))
}

// placementOf returns the replica placement for a key root: the first k
// successors passing the placement filter, walking past vetoed nodes. With
// no filter this is exactly successorsOf. A filter that vetoes every node
// falls back to the canonical set — an unusable filter must not brick
// writes. Call with d.mu held (as successorsOf).
func (d *DHT) placementOf(root uint64, k int) []uint64 {
	if d.allowPlace == nil {
		return d.successorsOf(root, k)
	}
	if k > len(d.ring) {
		k = len(d.ring)
	}
	out := make([]uint64, 0, k)
	i := sort.Search(len(d.ring), func(i int) bool { return d.ring[i] >= root })
	for walked := 0; walked < len(d.ring) && len(out) < k; walked++ {
		if i == len(d.ring) {
			i = 0
		}
		rid := d.ring[i]
		i++
		if d.placementAllowed(d.byID[rid].name) {
			out = append(out, rid)
		}
	}
	if len(out) == 0 {
		return d.successorsOf(root, k)
	}
	return out
}

// Holds reports whether the named node currently holds a local copy of key
// — test and experiment introspection, free of network cost.
func (d *DHT) Holds(name, key string) bool {
	d.mu.RLock()
	n := d.names[simnet.NodeID(name)]
	d.mu.RUnlock()
	if n == nil {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.data[key]
	return ok
}

// StoredCopy returns a copy of the named node's stored bytes for key —
// test and audit introspection (e.g. a scenario's final integrity audit),
// free of network cost. The second result reports whether the node holds
// the key at all.
func (d *DHT) StoredCopy(name, key string) ([]byte, bool) {
	d.mu.RLock()
	n := d.names[simnet.NodeID(name)]
	d.mu.RUnlock()
	if n == nil {
		return nil, false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.data[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// CorruptStored mutates the named node's local copy of key in place —
// seeded bit-rot injection for chaos experiments. It reports whether the
// node held the key. The mutation happens on the stored bytes themselves
// (that is the point: the scrubber must find and repair it).
func (d *DHT) CorruptStored(name, key string, mutate func([]byte) []byte) bool {
	d.mu.RLock()
	n := d.names[simnet.NodeID(name)]
	d.mu.RUnlock()
	if n == nil {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.data[key]
	if !ok {
		return false
	}
	n.data[key] = mutate(append([]byte(nil), v...))
	return true
}
