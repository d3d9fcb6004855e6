package dht

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
	"godosn/internal/parallel"
)

// This file implements overlay.BatchKV: multi-key Put/Get with route-grouped
// fan-out. Three amortizations make a batch cheaper than a key-by-key loop:
//
//  1. Routing passes are shared. Pending keys are sorted by ring position;
//     after one iterative lookup resolves kid → root R, every following kid
//     in (kid, R] is owned by the same successor (Chord ownership is the
//     half-open interval (pred(R), R]), so it is resolved locally without
//     another walk. The route cache is consulted first, so hot keys skip
//     even that, and intervals learned by earlier batches are kept in the
//     ownership cache (ownership.go) — once every live root has been walked
//     to, cold keys resolve without routing at all.
//  2. Request envelopes are shared. All keys resolving to the same root
//     travel to each replica in ONE message instead of one per key, so the
//     message cost of a batch scales with the number of replica groups
//     touched, not the number of keys.
//  3. Value copies are arena-allocated. A batch handler copies all incoming
//     (or outgoing) values into a single backing array instead of one
//     allocation per key, and request envelopes are drawn from a sync.Pool
//     that recycles them across replica probes (pool lifetime rules in
//     DESIGN.md §10: pooled buffers never outlive the RPC that borrowed
//     them — simnet RPCs are synchronous, so reuse after return is safe).
//
// Positional results: the per-key result slice is allocated once per batch
// and every root group writes its keys' outcomes straight into their slots.
// Groups own disjoint slots, so the writes need no lock at any
// FanoutWorkers and no per-group result map. Groups themselves are
// sub-slices of one position list sorted by root.
//
// Cost model (the batch determinism contract): a batch is one logical
// operation whose per-root groups proceed as independent concurrent
// pipelines. Messages, bytes, and hops always sum; simulated latency
// charges the slowest group (and, within a group, the serial chain of
// replica probes). The model is independent of Config.FanoutWorkers — the
// worker count changes wall-clock only — so batch stats and results are
// byte-identical at any parallelism level (unlike single-key fan-out, whose
// serial path sums latency).
//
// Per-key fault isolation: routing failures, unreachable replica groups,
// and misses are reported in the affected slots only; a batch never fails
// as a whole because one key's replica set is down.

var _ overlay.BatchKV = (*DHT)(nil)

// Batch RPC message kinds.
const (
	kindStoreBatch = "dht.store_batch"
	kindFetchBatch = "dht.fetch_batch"
)

// storeBatchReq carries every key the destination replica holds for this
// batch, in one envelope. Batch envelopes travel as pointers, so the data
// plane can recycle them from a pool instead of boxing one per RPC.
type storeBatchReq struct {
	Keys   []string
	Values [][]byte
}

type fetchBatchReq struct{ Keys []string }

// fetchBatchResp answers positionally: Found[i]/Values[i] correspond to
// req.Keys[i].
type fetchBatchResp struct {
	Found  []bool
	Values [][]byte
}

// batchEnvelopeOverhead models the fixed framing of a batch envelope, and
// batchItemOverhead the per-item length prefix, for wire-size accounting.
const (
	batchEnvelopeOverhead = 8
	batchItemOverhead     = 4
)

// The data plane draws its envelopes from pools that recycle them across
// replica probes and groups. A borrowed envelope is released as soon as the
// last RPC using it has completed; it never escapes into handler or reply
// state (handlers copy what they keep), and release clears it so the pool
// pins no caller bytes.
var (
	storeReqPool = sync.Pool{New: func() any { return new(storeBatchReq) }}
	fetchReqPool = sync.Pool{New: func() any { return new(fetchBatchReq) }}
)

func (r *storeBatchReq) release() {
	clear(r.Keys)
	clear(r.Values)
	r.Keys, r.Values = r.Keys[:0], r.Values[:0]
	storeReqPool.Put(r)
}

func (r *fetchBatchReq) release() {
	clear(r.Keys)
	r.Keys = r.Keys[:0]
	fetchReqPool.Put(r)
}

// handleStoreBatch executes the replica-side batch write: every value is
// copied into one arena allocation (one backing array for the whole
// envelope instead of one per key) and stored under the current map.
func handleStoreBatch(n *node, req *storeBatchReq) (simnet.Message, error) {
	if len(req.Keys) != len(req.Values) {
		return simnet.Message{}, fmt.Errorf("dht: store_batch: %d keys, %d values", len(req.Keys), len(req.Values))
	}
	total := 0
	for _, v := range req.Values {
		total += len(v)
	}
	arena := make([]byte, 0, total)
	n.mu.Lock()
	for i, key := range req.Keys {
		off := len(arena)
		arena = append(arena, req.Values[i]...)
		// Three-index slice: a later append through one key's view can
		// never clobber a neighbour's bytes.
		n.data[key] = arena[off:len(arena):len(arena)]
	}
	n.mu.Unlock()
	return simnet.Message{Kind: kindStoreBatch, Size: batchEnvelopeOverhead}, nil
}

// handleFetchBatch executes the replica-side batch read: found values are
// copied into one arena allocation and answered positionally.
func handleFetchBatch(n *node, req *fetchBatchReq) (simnet.Message, error) {
	resp := fetchBatchResp{
		Found:  make([]bool, len(req.Keys)),
		Values: make([][]byte, len(req.Keys)),
	}
	size := batchEnvelopeOverhead
	n.mu.Lock()
	total := 0
	for _, key := range req.Keys {
		total += len(n.data[key])
	}
	arena := make([]byte, 0, total)
	for i, key := range req.Keys {
		v, found := n.data[key]
		resp.Found[i] = found
		if found {
			off := len(arena)
			arena = append(arena, v...)
			resp.Values[i] = arena[off:len(arena):len(arena)]
			size += len(v) + 1
		} else {
			size++
		}
	}
	n.mu.Unlock()
	return simnet.Message{Kind: kindFetchBatch, Payload: resp, Size: size}, nil
}

// batchRoots resolves every key's successor root with one amortized pass:
// route-cache hits are free; misses are sorted by ring position and each
// iterative lookup's result covers every following key inside the resolved
// successor's ownership interval. Resolutions are modeled as concurrent
// pipelines (messages sum, latency charges the slowest walk). Per-key
// routing failures land in errs; the corresponding roots entry is invalid.
func (d *DHT) batchRoots(origin simnet.NodeID, keys []string) (roots []uint64, errs []error, tr simnet.Trace) {
	roots = make([]uint64, len(keys))
	errs = make([]error, len(keys))
	type pend struct {
		idx int
		kid uint64
	}
	pending := make([]pend, 0, len(keys))
	for i, key := range keys {
		if root, ok := d.routes.Get(key); ok {
			roots[i] = root
			continue
		}
		pending = append(pending, pend{idx: i, kid: hashID(key)})
	}
	sort.Slice(pending, func(a, b int) bool { return pending[a].kid < pending[b].kid })
	var (
		lastKid, lastRoot uint64
		haveLast          bool
		maxLat            time.Duration
	)
	for _, p := range pending {
		// Ownership shortcut: kid == lastKid is the same point; otherwise a
		// kid strictly inside (lastKid, lastRoot] shares lastRoot. The
		// lastKid == lastRoot corner (key hashing exactly onto the root)
		// would make the interval the whole ring, so only equality applies.
		if haveLast && (p.kid == lastKid || (lastKid != lastRoot && inInterval(p.kid, lastKid, lastRoot))) {
			roots[p.idx] = lastRoot
			d.routes.Put(keys[p.idx], lastRoot)
			continue
		}
		// Cross-batch shortcut: an interval learned by any earlier walk
		// (this batch or a previous one) resolves the key without routing.
		if root, ok := d.ownership.lookup(p.kid); ok {
			roots[p.idx] = root
			d.routes.Put(keys[p.idx], root)
			lastKid, lastRoot, haveLast = p.kid, root, true
			continue
		}
		rtr := &simnet.Trace{}
		root, err := d.findSuccessor(rtr, origin, p.kid)
		tr.Hops += rtr.Hops
		tr.Messages += rtr.Messages
		tr.Bytes += rtr.Bytes
		if rtr.Latency > maxLat {
			maxLat = rtr.Latency
		}
		if err != nil {
			errs[p.idx] = err
			continue
		}
		roots[p.idx] = root
		d.routes.Put(keys[p.idx], root)
		d.ownership.learn(p.kid, root)
		lastKid, lastRoot, haveLast = p.kid, root, true
	}
	tr.Latency = maxLat
	return roots, errs, tr
}

// batchGroup is one per-root work unit: the batch positions whose keys
// resolved to the same successor root, in input order, and the network cost
// the group's RPCs ran up. idxs is the group's own sub-slice of the batch's
// shared position list.
type batchGroup struct {
	root uint64
	idxs []int
	tr   simnet.Trace
}

// groupByRoot buckets successfully routed keys by root: one position list,
// stable-sorted by root and cut into per-root sub-slices, so groups come in
// ring order and keep input order within a group — a deterministic work
// list for the group fan-out.
func groupByRoot(roots []uint64, errs []error) []batchGroup {
	idxs := make([]int, 0, len(roots))
	for i, err := range errs {
		if err == nil {
			idxs = append(idxs, i)
		}
	}
	slices.SortStableFunc(idxs, func(a, b int) int { return cmp.Compare(roots[a], roots[b]) })
	n := 0
	for j := range idxs {
		if j == 0 || roots[idxs[j]] != roots[idxs[j-1]] {
			n++
		}
	}
	groups := make([]batchGroup, 0, n)
	for lo, j := 0, 1; j <= len(idxs); j++ {
		if j == len(idxs) || roots[idxs[j]] != roots[idxs[lo]] {
			groups = append(groups, batchGroup{root: roots[idxs[lo]], idxs: idxs[lo:j:j]})
			lo = j
		}
	}
	return groups
}

// runGroups runs fn over every group on the fan-out pool and folds the
// group traces into tr under the pipelined cost model: counts sum, latency
// charges the slowest group. Each group writes only its own positions of
// the caller's per-key result slice, so groups need no lock at any worker
// count.
func (d *DHT) runGroups(tr *simnet.Trace, groups []batchGroup, fn func(g *batchGroup)) {
	_ = parallel.ForEach(d.fanout, groups, func(i int, _ batchGroup) error {
		fn(&groups[i])
		return nil
	})
	var maxLat time.Duration
	for i := range groups {
		g := &groups[i].tr
		tr.Hops += g.Hops
		tr.Messages += g.Messages
		tr.Bytes += g.Bytes
		maxLat = max(maxLat, g.Latency)
	}
	tr.Latency += maxLat
}

// PutBatch implements overlay.BatchKV. Every key is written to its full
// replica set; keys sharing a root share one routing pass and one store
// envelope per replica. A key's slot reports nil when at least one replica
// acknowledged (matching Store's success rule), an ack-lost wrap when the
// write may have landed unacked, and the delivery fault otherwise.
func (d *DHT) PutBatch(origin string, keys []string, values [][]byte) ([]error, overlay.OpStats, error) {
	if len(keys) != len(values) {
		return nil, overlay.OpStats{}, fmt.Errorf("dht: PutBatch: %d keys but %d values", len(keys), len(values))
	}
	if len(keys) == 0 {
		return nil, overlay.OpStats{}, nil
	}
	d.mu.RLock()
	known := d.names[simnet.NodeID(origin)] != nil
	d.mu.RUnlock()
	if !known {
		return nil, overlay.OpStats{}, fmt.Errorf("dht: %w: %s", overlay.ErrUnknownOrigin, origin)
	}
	roots, errs, tr := d.batchRoots(simnet.NodeID(origin), keys)
	d.runGroups(&tr, groupByRoot(roots, errs), func(g *batchGroup) {
		d.putGroup(simnet.NodeID(origin), g, keys, values, errs)
	})
	return errs, stats(&tr), nil
}

// putGroup writes one root group's keys to the group's replica set: one
// shared envelope per replica, replicas contacted as concurrent branches
// (latency charges the slowest). Success and ack-lost semantics mirror
// Store: one acknowledged replica suffices; with none, a lost ack is
// surfaced as possibly-applied in every one of the group's slots of errs.
func (d *DHT) putGroup(origin simnet.NodeID, g *batchGroup, keys []string, values [][]byte, errs []error) {
	req := storeReqPool.Get().(*storeBatchReq)
	defer req.release()
	size := batchEnvelopeOverhead
	for _, idx := range g.idxs {
		req.Keys = append(req.Keys, keys[idx])
		req.Values = append(req.Values, values[idx])
		size += len(keys[idx]) + len(values[idx]) + batchItemOverhead
	}
	msg := simnet.Message{Kind: kindStoreBatch, Payload: req, Size: size}
	d.mu.RLock()
	replicas := d.placementOf(g.root, d.replica)
	d.mu.RUnlock()
	var (
		stored  int
		lastErr error
		ackLost error
		maxLat  time.Duration
	)
	for _, rid := range replicas {
		d.mu.RLock()
		rn := d.byID[rid]
		d.mu.RUnlock()
		// Counts accumulate straight into the group trace; each branch's
		// latency is taken back out so the group charges only the slowest.
		before := g.tr.Latency
		_, err := d.net.RPC(&g.tr, origin, rn.name, msg)
		maxLat = max(maxLat, g.tr.Latency-before)
		g.tr.Latency = before
		if err == nil {
			stored++
		} else {
			lastErr = err
			if ackLost == nil && errors.Is(err, simnet.ErrReplyLost) {
				ackLost = err
			}
		}
	}
	g.tr.Latency += maxLat
	if stored > 0 {
		return
	}
	var err error
	switch {
	case ackLost != nil:
		err = fmt.Errorf("dht: batch store unacked, may have been applied: %w", ackLost)
	case lastErr != nil:
		err = fmt.Errorf("%w: %w", overlay.ErrUnavailable, lastErr)
	default:
		err = overlay.ErrUnavailable
	}
	for _, idx := range g.idxs {
		errs[idx] = err
	}
}

// GetBatch implements overlay.BatchKV. Keys sharing a root share one fetch
// envelope; within a group, replicas are probed in ring order and only the
// keys still unresolved ride in the next probe (the pipelined fallback), so
// a replica failure or miss costs exactly one follow-up envelope for the
// affected keys — never a per-key walk and never the whole batch.
func (d *DHT) GetBatch(origin string, keys []string) ([]overlay.BatchResult, overlay.OpStats, error) {
	if len(keys) == 0 {
		return nil, overlay.OpStats{}, nil
	}
	d.mu.RLock()
	known := d.names[simnet.NodeID(origin)] != nil
	d.mu.RUnlock()
	if !known {
		return nil, overlay.OpStats{}, fmt.Errorf("dht: %w: %s", overlay.ErrUnknownOrigin, origin)
	}
	roots, errs, tr := d.batchRoots(simnet.NodeID(origin), keys)
	results := make([]overlay.BatchResult, len(keys))
	for i, err := range errs {
		results[i].Err = err
	}
	d.runGroups(&tr, groupByRoot(roots, errs), func(g *batchGroup) {
		d.getGroup(simnet.NodeID(origin), g, keys, results)
	})
	return results, stats(&tr), nil
}

// getGroup reads one root group's keys into their slots of results:
// replicas in ring order, one shared envelope per probe carrying only the
// still-unresolved keys. Within the group the probe chain is serial (each
// fallback needs the previous reply), so latency sums across probes;
// delivery failures and misses stay pinned to the keys that experienced
// them. The group's idxs are consumed as the pending list.
func (d *DHT) getGroup(origin simnet.NodeID, g *batchGroup, keys []string, results []overlay.BatchResult) {
	d.mu.RLock()
	replicas := d.successorsOf(g.root, d.replica)
	d.mu.RUnlock()
	pending := g.idxs
	for _, idx := range pending {
		results[idx].Err = overlay.ErrUnavailable
	}
	req := fetchReqPool.Get().(*fetchBatchReq)
	defer req.release()
	for _, rid := range replicas {
		if len(pending) == 0 {
			break
		}
		d.mu.RLock()
		rn := d.byID[rid]
		d.mu.RUnlock()
		req.Keys = req.Keys[:0]
		size := batchEnvelopeOverhead
		for _, idx := range pending {
			req.Keys = append(req.Keys, keys[idx])
			size += len(keys[idx]) + batchItemOverhead
		}
		reply, err := d.net.RPC(&g.tr, origin, rn.name, simnet.Message{
			Kind:    kindFetchBatch,
			Payload: req,
			Size:    size,
		})
		resp, ok := reply.Payload.(fetchBatchResp)
		if err == nil && (!ok || len(resp.Found) != len(pending) || len(resp.Values) != len(pending)) {
			err = errors.New("dht: bad fetch_batch reply")
		}
		if err != nil {
			// The whole envelope failed to this replica: every pending key
			// records the fault and rides to the next replica.
			for _, idx := range pending {
				results[idx].Err = err
			}
			continue
		}
		next := pending[:0]
		for j, idx := range pending {
			if resp.Found[j] {
				results[idx] = overlay.BatchResult{Value: resp.Values[j]}
			} else {
				results[idx].Err = overlay.ErrNotFound
				next = append(next, idx)
			}
		}
		pending = next
	}
}
