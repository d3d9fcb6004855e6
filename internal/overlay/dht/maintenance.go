package dht

import (
	"fmt"
	"sync"

	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
)

// This file implements the DHT's batched maintenance plane
// (overlay.BatchRepairKV / overlay.BatchDigestKV): direct per-replica
// multi-key fetch and store envelopes riding the same batch handlers as the
// data plane (batch.go), plus a multi-group digest RPC that verifies every
// scrub group a replica participates in with one message pair. It also
// exposes PlanReplicas, the network-free replica planning hook continuous
// schedulers (scrub.Sweeper) use to bound a pass's message cost before
// spending a single message.

var (
	_ overlay.BatchRepairKV = (*DHT)(nil)
	_ overlay.BatchDigestKV = (*DHT)(nil)
)

// kindDigestBatch asks a node for Merkle roots over several key groups at
// once. Like kindDigest it is exempt from data-plane admission gating:
// congestion must never masquerade as divergence.
const kindDigestBatch = "dht.digest_batch"

// digestBatchReq carries one key group per scrub group the replica
// participates in, all bound to the same pass nonce. It travels as a
// pointer inside a pooled digestCall (below).
type digestBatchReq struct {
	Groups [][]string
	Nonce  uint64
}

// digestBatchResp carries one root pair per group as [][]byte deliberately
// — the same reasoning as digestResp: byte-slice fields are corruptible by
// Byzantine reply mutation, and simnet mutates every element of a batch
// value list, so a lying batch summary corrupts every group's digest and
// causes drill-downs across the board instead of being trusted (a flat
// concatenation would let a single bit flip hide in one group while the
// rest short-circuit as clean). The elements are windows of one flat array
// (full slice expressions), so a reply's roots cost one allocation; a
// Byzantine mutation copies an element before flipping it, so a flip never
// bleeds into a neighbouring group.
type digestBatchResp struct {
	Fresh [][]byte
	State [][]byte
}

// digestCall is one DigestBatchFrom's trace and request envelope, drawn
// from a pool like the data plane's envelopes (batch.go): neither outlives
// the RPC, and release clears the borrowed key groups.
type digestCall struct {
	tr  simnet.Trace
	req digestBatchReq
}

var digestCallPool = sync.Pool{New: func() any { return new(digestCall) }}

func (c *digestCall) release() {
	*c = digestCall{}
	digestCallPool.Put(c)
}

// handleDigestBatch computes the replica-side multi-group digest —
// node-local, free of network cost beyond the one reply. One leaves scratch
// serves every group, and every group's roots share one flat array.
func handleDigestBatch(n *node, req *digestBatchReq) (simnet.Message, error) {
	g := len(req.Groups)
	var stack [32][32]byte // scrub groups are small; a larger one grows onto the heap
	leaves := stack[:0]
	flat := make([]byte, 64*g)
	roots := make([][]byte, 2*g)
	resp := digestBatchResp{Fresh: roots[:g:g], State: roots[g:]}
	var dg overlay.Digest
	for i, keys := range req.Groups {
		dg, leaves = localDigest(n, keys, req.Nonce, leaves)
		f, st := flat[64*i:64*i+32:64*i+32], flat[64*i+32:64*i+64:64*i+64]
		copy(f, dg.Fresh[:])
		copy(st, dg.State[:])
		resp.Fresh[i], resp.State[i] = f, st
	}
	return simnet.Message{Kind: kindDigestBatch, Payload: resp, Size: batchEnvelopeOverhead + 64*g}, nil
}

// FetchBatchFrom implements overlay.BatchRepairKV: one fetch_batch envelope
// to the named replica only, answered positionally. A key the replica does
// not hold carries overlay.ErrNotFound in its slot; an envelope-level
// failure (unreachable, corrupt reply) is the top-level error.
func (d *DHT) FetchBatchFrom(origin string, keys []string, replica string) ([]overlay.BatchResult, overlay.OpStats, error) {
	tr := &simnet.Trace{}
	d.mu.RLock()
	rn := d.names[simnet.NodeID(replica)]
	d.mu.RUnlock()
	if rn == nil {
		return nil, stats(tr), fmt.Errorf("dht: %w: replica %s", simnet.ErrUnknownNode, replica)
	}
	size := batchEnvelopeOverhead
	for _, k := range keys {
		size += len(k) + batchItemOverhead
	}
	reply, err := d.net.RPC(tr, simnet.NodeID(origin), rn.name, simnet.Message{
		Kind:    kindFetchBatch,
		Payload: &fetchBatchReq{Keys: keys},
		Size:    size,
	})
	if err != nil {
		return nil, stats(tr), err
	}
	resp, ok := reply.Payload.(fetchBatchResp)
	if !ok || len(resp.Found) != len(keys) || len(resp.Values) != len(keys) {
		return nil, stats(tr), fmt.Errorf("dht: bad fetch_batch reply")
	}
	results := make([]overlay.BatchResult, len(keys))
	for i := range keys {
		if resp.Found[i] {
			results[i].Value = resp.Values[i]
		} else {
			results[i].Err = overlay.ErrNotFound
		}
	}
	return results, stats(tr), nil
}

// StoreBatchTo implements overlay.BatchRepairKV: one store_batch envelope
// writing keys[i]=values[i] onto the named replica only, bypassing routing
// and placement — the coalesced form of StoreTo.
func (d *DHT) StoreBatchTo(origin string, keys []string, values [][]byte, replica string) ([]error, overlay.OpStats, error) {
	if len(keys) != len(values) {
		return nil, overlay.OpStats{}, fmt.Errorf("dht: StoreBatchTo: %d keys but %d values", len(keys), len(values))
	}
	tr := &simnet.Trace{}
	d.mu.RLock()
	rn := d.names[simnet.NodeID(replica)]
	d.mu.RUnlock()
	if rn == nil {
		return nil, stats(tr), fmt.Errorf("dht: %w: replica %s", simnet.ErrUnknownNode, replica)
	}
	size := batchEnvelopeOverhead
	for i := range keys {
		size += len(keys[i]) + len(values[i]) + batchItemOverhead
	}
	_, err := d.net.RPC(tr, simnet.NodeID(origin), rn.name, simnet.Message{
		Kind:    kindStoreBatch,
		Payload: &storeBatchReq{Keys: keys, Values: values},
		Size:    size,
	})
	if err != nil {
		return nil, stats(tr), err
	}
	return make([]error, len(keys)), stats(tr), nil
}

// DigestBatchFrom implements overlay.BatchDigestKV: one digest_batch
// envelope retrieving the Merkle roots of every key group from the named
// replica, all bound to nonce.
func (d *DHT) DigestBatchFrom(origin string, groups [][]string, nonce uint64, replica string) ([]overlay.Digest, overlay.OpStats, error) {
	c := digestCallPool.Get().(*digestCall)
	defer c.release()
	d.mu.RLock()
	rn := d.names[simnet.NodeID(replica)]
	d.mu.RUnlock()
	if rn == nil {
		return nil, stats(&c.tr), fmt.Errorf("dht: %w: replica %s", simnet.ErrUnknownNode, replica)
	}
	size := batchEnvelopeOverhead + 8
	for _, keys := range groups {
		size += batchItemOverhead
		for _, k := range keys {
			size += len(k)
		}
	}
	c.req = digestBatchReq{Groups: groups, Nonce: nonce}
	reply, err := d.net.RPC(&c.tr, simnet.NodeID(origin), rn.name, simnet.Message{
		Kind:    kindDigestBatch,
		Payload: &c.req,
		Size:    size,
	})
	if err != nil {
		return nil, stats(&c.tr), err
	}
	resp, ok := reply.Payload.(digestBatchResp)
	if !ok || len(resp.Fresh) != len(groups) || len(resp.State) != len(groups) {
		return nil, stats(&c.tr), fmt.Errorf("dht: bad digest_batch reply")
	}
	out := make([]overlay.Digest, len(groups))
	for i := range groups {
		if len(resp.Fresh[i]) != 32 || len(resp.State[i]) != 32 {
			return nil, stats(&c.tr), fmt.Errorf("dht: bad digest_batch reply")
		}
		copy(out[i].Fresh[:], resp.Fresh[i])
		copy(out[i].State[:], resp.State[i])
	}
	return out, stats(&c.tr), nil
}

// PlanReplicas returns the replica candidate set for key from the DHT's own
// global ring view — the same list ReplicasFor resolves, computed without a
// routing walk and free of network cost (like Holds and LiveCopies).
// Continuous maintenance schedulers (scrub.Sweeper) use it to form scrub
// groups and bound their per-tick message budget before spending a single
// message. The set can drift from a routed ReplicasFor only while routing
// state is stale, in which case the scrub pass degrades to extra
// drill-downs, never to a false clean.
func (d *DHT) PlanReplicas(key string) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.replicaPlanLocked(hashID(key))
}
