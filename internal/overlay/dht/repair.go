package dht

import (
	"fmt"
	"sort"

	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
	"godosn/internal/telemetry"
)

// This file implements the DHT's fault-tolerance surface: crash semantics
// (volatile storage lost on simnet.Crash), per-replica addressing for
// hedged reads (overlay.ReplicaKV), and anti-entropy self-healing
// (overlay.Healer) that re-replicates under-replicated keys after churn.

var (
	_ overlay.ReplicaKV       = (*DHT)(nil)
	_ overlay.Healer          = (*DHT)(nil)
	_ overlay.SpanKV          = (*DHT)(nil)
	_ overlay.SpanHealer      = (*DHT)(nil)
	_ overlay.ReplicaRankable = (*DHT)(nil)
)

// SetReplicaRanker implements overlay.ReplicaRankable: rank reorders the
// candidate list ReplicasFor returns (nil restores canonical ring order).
// The resilience layer wires its replica-health tracker in here so hedged
// reads prefer lightly-loaded replicas. Only selection order changes —
// membership of the candidate set is still ring position and liveness.
func (d *DHT) SetReplicaRanker(rank func(names []string) []string) {
	d.mu.Lock()
	d.rankRepl = rank
	d.mu.Unlock()
}

// registerCrashHook wires a node's volatile storage to simnet crash
// injection: a crash-restart loses every key the node held.
func registerCrashHook(net *simnet.Network, n *node) {
	_ = net.OnCrash(n.name, func() {
		n.mu.Lock()
		n.data = make(map[string][]byte)
		n.mu.Unlock()
	})
}

// ReplicasFor implements overlay.ReplicaKV: it routes to the key's root and
// returns the canonical replica set followed by additional currently-online
// successors, so hedged reads have live candidates even when canonical
// replicas are down. At most 2× the replication factor names are returned.
func (d *DHT) ReplicasFor(origin, key string) ([]string, overlay.OpStats, error) {
	tr := &simnet.Trace{}
	root, err := d.resolveRoot(tr, nil, simnet.NodeID(origin), key, hashID(key))
	if err != nil {
		return nil, stats(tr), err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.replicaPlanLocked(root), stats(tr), nil
}

// replicaPlanLocked computes the candidate list for a resolved root: the
// canonical replica set, the online extension walk, and the health ranking.
// Shared by ReplicasFor (routed root) and PlanReplicas (local hash root —
// successorsOf lands on the same successor either way). Call with d.mu held.
func (d *DHT) replicaPlanLocked(root uint64) []string {
	names := make([]string, 0, 2*d.replica)
	seen := make(map[uint64]bool, 2*d.replica)
	for _, rid := range d.successorsOf(root, d.replica) {
		seen[rid] = true
		names = append(names, string(d.byID[rid].name))
	}
	// Extend past the canonical set until d.replica online candidates are
	// found (or the ring is exhausted), mirroring where Heal re-replicates.
	// Placement-vetoed (quarantined) nodes stay in the returned list — they
	// may hold older copies — but do not count toward the online target, so
	// the extension reaches the nodes placement actually chose around them.
	online := 0
	for _, name := range names {
		if d.net.Online(simnet.NodeID(name)) && d.placementAllowed(simnet.NodeID(name)) {
			online++
		}
	}
	i := sort.Search(len(d.ring), func(i int) bool { return d.ring[i] >= root })
	for walked := 0; walked < len(d.ring) && online < d.replica && len(names) < 2*d.replica; walked++ {
		if i == len(d.ring) {
			i = 0
		}
		rid := d.ring[i]
		i++
		if seen[rid] {
			continue
		}
		seen[rid] = true
		n := d.byID[rid]
		if d.net.Online(n.name) {
			names = append(names, string(n.name))
			if d.placementAllowed(n.name) {
				online++
			}
		}
	}
	if d.rankRepl != nil {
		names = d.rankRepl(names)
	}
	return names
}

// LookupFrom implements overlay.ReplicaKV: a single direct fetch from one
// named replica, without walking the rest of the replica set.
func (d *DHT) LookupFrom(origin, key, replica string) ([]byte, overlay.OpStats, error) {
	tr := &simnet.Trace{}
	d.mu.RLock()
	rn := d.names[simnet.NodeID(replica)]
	d.mu.RUnlock()
	if rn == nil {
		return nil, stats(tr), fmt.Errorf("dht: %w: replica %s", simnet.ErrUnknownNode, replica)
	}
	reply, err := d.net.RPC(tr, simnet.NodeID(origin), rn.name, simnet.Message{
		Kind:    kindFetch,
		Payload: fetchReq{Key: key},
		Size:    len(key),
	})
	if err != nil {
		return nil, stats(tr), err
	}
	resp, ok := reply.Payload.(fetchResp)
	if !ok {
		return nil, stats(tr), fmt.Errorf("dht: bad fetch reply")
	}
	if !resp.Found {
		return nil, stats(tr), overlay.ErrNotFound
	}
	return resp.Value, stats(tr), nil
}

// liveTargets returns the first k online successors of the key's root,
// walking past offline canonical replicas — the set Heal replicates to and
// ReplicasFor extends into.
func (d *DHT) liveTargets(root uint64, k int) []*node {
	out := make([]*node, 0, k)
	i := sort.Search(len(d.ring), func(i int) bool { return d.ring[i] >= root })
	for walked := 0; walked < len(d.ring) && len(out) < k; walked++ {
		if i == len(d.ring) {
			i = 0
		}
		n := d.byID[d.ring[i]]
		i++
		if d.net.Online(n.name) {
			out = append(out, n)
		}
	}
	return out
}

// Heal implements overlay.Healer: one anti-entropy pass. Every online
// node's local store is scanned (a node-local operation, free of network
// cost); each key whose live replica set is incomplete is pushed, by an
// online holder, to the online successors missing it. Re-replication RPCs
// are charged to the report's stats.
func (d *DHT) Heal() (overlay.HealReport, error) {
	return d.HealSpan(nil)
}

// HealSpan implements overlay.SpanHealer: Heal with each re-replication
// push attributed to a "repair" child span of sp (nil sp: identical
// untraced pass).
func (d *DHT) HealSpan(sp *telemetry.Span) (overlay.HealReport, error) {
	d.mu.RLock()
	// Snapshot key -> online holders from node-local scans.
	holders := make(map[string][]*node)
	for _, rid := range d.ring {
		n := d.byID[rid]
		if !d.net.Online(n.name) {
			continue
		}
		n.mu.Lock()
		for key := range n.data {
			holders[key] = append(holders[key], n)
		}
		n.mu.Unlock()
	}
	d.mu.RUnlock()

	keys := make([]string, 0, len(holders))
	for key := range holders {
		keys = append(keys, key)
	}
	sort.Strings(keys) // deterministic pass order

	tr := &simnet.Trace{}
	report := overlay.HealReport{KeysScanned: len(keys)}

	// Plan every push first (node-local, free of network cost): for each
	// under-replicated key, the lowest-id online holder pushes to each
	// online successor missing a copy. The plan is then either executed
	// per key (PerKeyHeal: one store RPC per push, the measured baseline)
	// or coalesced per (holder, target) pair into store_batch envelopes —
	// one message pair moves every key that pair shares.
	type healPush struct {
		key   string
		value []byte
		src   simnet.NodeID
		dst   simnet.NodeID
	}
	type healPair struct{ src, dst simnet.NodeID }
	var flat []healPush // key-major plan order (the per-key baseline order)
	var pairOrder []healPair
	planned := make(map[healPair][]healPush)
	failed := make(map[string]bool)
	for _, key := range keys {
		hs := holders[key]
		hasCopy := make(map[simnet.NodeID]bool, len(hs))
		for _, h := range hs {
			hasCopy[h.name] = true
		}
		d.mu.RLock()
		targets := d.liveTargets(hashID(key), d.replica)
		d.mu.RUnlock()
		src := hs[0]
		var value []byte
		for _, target := range targets {
			if hasCopy[target.name] {
				continue
			}
			if value == nil {
				src.mu.Lock()
				value = append([]byte(nil), src.data[key]...)
				src.mu.Unlock()
			}
			p := healPush{key: key, value: value, src: src.name, dst: target.name}
			flat = append(flat, p)
			pk := healPair{src: src.name, dst: target.name}
			if _, ok := planned[pk]; !ok {
				pairOrder = append(pairOrder, pk)
			}
			planned[pk] = append(planned[pk], p)
		}
	}
	if d.perKeyHeal {
		// One store RPC per copy, in key-major order; a drop leaves the
		// key for the next pass rather than failing the whole heal.
		for _, p := range flat {
			ptr := &simnet.Trace{}
			psp := sp.Child("repair")
			psp.Tag("key", p.key)
			psp.Tag("to", string(p.dst))
			_, err := d.net.RPC(ptr, p.src, p.dst, simnet.Message{
				Kind:    kindStore,
				Payload: storeReq{Key: p.key, Value: p.value},
				Size:    len(p.key) + len(p.value),
			})
			tr.Add(ptr)
			psp.AddLatency(ptr.Latency)
			psp.End(spanOutcome(err))
			if err == nil {
				report.Repaired++
			} else {
				failed[p.key] = true
			}
		}
		pairOrder = nil
	}
	for _, pk := range pairOrder {
		pushes := planned[pk]
		req := storeBatchReq{
			Keys:   make([]string, len(pushes)),
			Values: make([][]byte, len(pushes)),
		}
		size := batchEnvelopeOverhead
		for i, p := range pushes {
			req.Keys[i] = p.key
			req.Values[i] = p.value
			size += len(p.key) + len(p.value) + batchItemOverhead
		}
		ptr := &simnet.Trace{}
		psp := sp.Child("repair")
		psp.Tag("to", string(pk.dst))
		psp.Tag("keys", fmt.Sprintf("%d", len(pushes)))
		_, err := d.net.RPC(ptr, pk.src, pk.dst, simnet.Message{
			Kind:    kindStoreBatch,
			Payload: &req,
			Size:    size,
		})
		tr.Add(ptr)
		psp.AddLatency(ptr.Latency)
		psp.End(spanOutcome(err))
		if err == nil {
			report.Repaired += len(pushes)
		} else {
			// A dropped envelope leaves its keys for the next pass.
			for _, p := range pushes {
				failed[p.key] = true
			}
		}
	}
	for _, key := range keys {
		if failed[key] {
			report.Unrepairable++
		}
	}
	report.Stats = stats(tr)
	if report.Repaired > 0 {
		// Copies moved: memoized routes may predate the repaired layout.
		d.bumpRoutes()
	}
	return report, nil
}

// LiveCopies reports how many online nodes currently hold key — test and
// experiment introspection, free of network cost.
func (d *DHT) LiveCopies(key string) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	count := 0
	for _, rid := range d.ring {
		n := d.byID[rid]
		if !d.net.Online(n.name) {
			continue
		}
		n.mu.Lock()
		_, ok := n.data[key]
		n.mu.Unlock()
		if ok {
			count++
		}
	}
	return count
}
