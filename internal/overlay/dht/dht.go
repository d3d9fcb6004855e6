// Package dht implements a Chord-style structured overlay with finger
// tables, successor-list replication, and iterative O(log n) lookups.
//
// The paper (Section II-B) notes that in structured DOSNs "queries will be
// resolved in a limited number of steps" and that "most of the recent DOSNs
// use structured organization and distributed hash tables (DHTs) for the
// lookup service" (PrPl, PeerSoN, Safebook, Cachet). This package is that
// lookup/storage substrate; experiment E6 measures its logarithmic hop
// growth against the other organizations.
package dht

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"godosn/internal/cache"
	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
	"godosn/internal/parallel"
	"godosn/internal/resilience/load"
	"godosn/internal/telemetry"
)

// ringBits is the identifier space size (2^64 ring).
const ringBits = 64

// hashID maps a string to a point on the ring.
func hashID(s string) uint64 {
	h := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(h[:8])
}

// node is one DHT participant.
type node struct {
	id     uint64
	name   simnet.NodeID
	finger []uint64 // finger[i] = id of successor(id + 2^i)

	mu   sync.Mutex
	data map[string][]byte
}

// DHT is a Chord ring over a simnet. It is safe for concurrent use after
// Build.
type DHT struct {
	net        *simnet.Network
	replica    int
	fanout     int
	perKeyHeal bool

	mu         sync.RWMutex
	byID       map[uint64]*node
	ring       []uint64 // sorted node ids
	names      map[simnet.NodeID]*node
	allowPlace func(node string) bool        // placement veto (integrity.go); nil = canonical
	rankRepl   func(names []string) []string // replica-selection order (repair.go); nil = ring order

	routes    *cache.Cache[uint64] // key → successor root (routecache.go); nil = uncached
	ownership ownershipCache       // learned successor intervals (ownership.go)
	gates     *nodeGates           // server-side admission (gate.go); nil = admit everything
}

var _ overlay.KV = (*DHT)(nil)

// Config parameterizes the DHT.
type Config struct {
	// ReplicationFactor is the number of successor replicas per key (>= 1).
	ReplicationFactor int
	// FanoutWorkers bounds concurrent replica contact in Store/Lookup.
	// 0 or 1 (the default) preserves the serial loop: replicas are
	// contacted one after another and a Lookup stops at the first hit.
	// With more workers all replicas are contacted concurrently: message,
	// byte, and hop accounting is unchanged (sums), while the operation's
	// simulated latency charges the slowest concurrent branch (max) instead
	// of the serial sum. On a lossy network the assignment of rng-driven
	// drops to individual messages becomes scheduling-dependent (the
	// aggregate loss rate is unchanged), so seeded fault experiments should
	// keep the serial default.
	FanoutWorkers int
	// RouteCache memoizes key → successor-root resolution (routecache.go).
	// The zero value (Capacity 0) disables it, preserving the exact RPC
	// and seeded-RNG sequence of an uncached DHT. A cache hit skips the
	// routing walk: fewer messages, and on a lossy network fewer RNG draws
	// — so seeded fault experiments comparing against uncached baselines
	// must assert invariants, not per-op equality.
	RouteCache cache.Config
	// NodeGate puts a server-side admission gate (gate.go) in front of
	// every node's data-plane RPCs (store/fetch and batch forms): requests
	// beyond the per-tick budget queue, then shed with load.ErrShed —
	// FaultOverload to the resilience layer, so callers retry elsewhere.
	// Routing and digest RPCs are exempt. Advance the gates with
	// TickGates. The zero value (PerTick 0) disables server-side gating.
	NodeGate load.GateConfig
	// PerKeyHeal forces Heal to push every re-replicated copy in its own
	// store RPC (the pre-batching behavior) instead of coalescing pushes
	// per (holder, target) pair into store_batch envelopes — the measured
	// baseline for E26.
	PerKeyHeal bool
}

// New creates a DHT over the given nodes and builds routing state.
func New(net *simnet.Network, nodes []simnet.NodeID, cfg Config) (*DHT, error) {
	if len(nodes) == 0 {
		return nil, overlay.ErrNoNodes
	}
	if cfg.ReplicationFactor < 1 {
		cfg.ReplicationFactor = 1
	}
	if cfg.FanoutWorkers < 1 {
		cfg.FanoutWorkers = 1
	}
	d := &DHT{
		net:        net,
		replica:    cfg.ReplicationFactor,
		fanout:     cfg.FanoutWorkers,
		perKeyHeal: cfg.PerKeyHeal,
		byID:       make(map[uint64]*node, len(nodes)),
		names:      make(map[simnet.NodeID]*node, len(nodes)),
		routes:     cache.New[uint64](cfg.RouteCache),
		gates:      newNodeGates(cfg.NodeGate, nodes),
	}
	for _, name := range nodes {
		id := hashID(string(name))
		for {
			if _, dup := d.byID[id]; !dup {
				break
			}
			id++ // resolve improbable collisions deterministically
		}
		n := &node{id: id, name: name, data: make(map[string][]byte)}
		d.byID[id] = n
		d.names[name] = n
		d.ring = append(d.ring, id)
		if err := net.Register(name, d.handlerFor(n)); err != nil {
			return nil, fmt.Errorf("dht: registering %s: %w", name, err)
		}
		registerCrashHook(net, n)
	}
	sort.Slice(d.ring, func(i, j int) bool { return d.ring[i] < d.ring[j] })
	d.rebuildFingers()
	return d, nil
}

// Name implements overlay.KV.
func (d *DHT) Name() string { return "structured-dht" }

// rebuildFingers recomputes every node's finger table from the global ring
// view, as simulators conventionally do in place of the incremental Chord
// join protocol.
func (d *DHT) rebuildFingers() {
	for _, n := range d.byID {
		n.finger = make([]uint64, ringBits)
		for i := 0; i < ringBits; i++ {
			target := n.id + (uint64(1) << uint(i))
			n.finger[i] = d.successorID(target)
		}
	}
}

// successorID returns the first ring node id clockwise from target.
func (d *DHT) successorID(target uint64) uint64 {
	i := sort.Search(len(d.ring), func(i int) bool { return d.ring[i] >= target })
	if i == len(d.ring) {
		i = 0
	}
	return d.ring[i]
}

// successorsOf returns up to k distinct node ids clockwise from target.
func (d *DHT) successorsOf(target uint64, k int) []uint64 {
	if k > len(d.ring) {
		k = len(d.ring)
	}
	i := sort.Search(len(d.ring), func(i int) bool { return d.ring[i] >= target })
	out := make([]uint64, 0, k)
	for len(out) < k {
		if i == len(d.ring) {
			i = 0
		}
		out = append(out, d.ring[i])
		i++
	}
	return out
}

// inInterval reports whether x lies in the half-open clockwise interval
// (a, b] on the ring.
func inInterval(x, a, b uint64) bool {
	if a < b {
		return x > a && x <= b
	}
	if a > b {
		return x > a || x <= b
	}
	return true // a == b: full circle
}

// closestPrecedingFinger returns the node's best routing step toward key.
func (n *node) closestPrecedingFinger(key uint64) uint64 {
	for i := ringBits - 1; i >= 0; i-- {
		f := n.finger[i]
		if f != n.id && inInterval(f, n.id, key-1) {
			return f
		}
	}
	return n.id
}

// RPC message kinds.
const (
	kindFindSuccessor = "dht.find_successor"
	kindStore         = "dht.store"
	kindFetch         = "dht.fetch"
)

type findSuccessorReq struct{ Key uint64 }
type findSuccessorResp struct {
	// Done reports the successor was found; otherwise Next is the closest
	// preceding node to continue the iterative lookup at.
	Done bool
	Node uint64
	Next uint64
}
type storeReq struct {
	Key   string
	Value []byte
}
type fetchReq struct{ Key string }
type fetchResp struct {
	Found bool
	Value []byte
}

// handlerFor builds the simnet handler executing node-local RPC logic.
func (d *DHT) handlerFor(n *node) simnet.HandlerFunc {
	return func(tr *simnet.Trace, from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		switch msg.Kind {
		case kindStore, kindFetch, kindStoreBatch, kindFetchBatch:
			// Data-plane admission (gate.go): routing and digest kinds
			// stay exempt so congestion never masquerades as membership
			// loss.
			if err := d.gates.admit(n.name, tr); err != nil {
				return simnet.Message{}, err
			}
		}
		switch msg.Kind {
		case kindFindSuccessor:
			req, ok := msg.Payload.(findSuccessorReq)
			if !ok {
				return simnet.Message{}, fmt.Errorf("dht: bad payload for %s", msg.Kind)
			}
			d.mu.RLock()
			succ := d.successorID(n.id + 1)
			d.mu.RUnlock()
			if inInterval(req.Key, n.id, succ) {
				return simnet.Message{Kind: msg.Kind, Payload: findSuccessorResp{Done: true, Node: succ}, Size: 24}, nil
			}
			next := n.closestPrecedingFinger(req.Key)
			if next == n.id {
				return simnet.Message{Kind: msg.Kind, Payload: findSuccessorResp{Done: true, Node: succ}, Size: 24}, nil
			}
			return simnet.Message{Kind: msg.Kind, Payload: findSuccessorResp{Next: next}, Size: 24}, nil

		case kindStore:
			req, ok := msg.Payload.(storeReq)
			if !ok {
				return simnet.Message{}, fmt.Errorf("dht: bad payload for %s", msg.Kind)
			}
			n.mu.Lock()
			n.data[req.Key] = append([]byte(nil), req.Value...)
			n.mu.Unlock()
			return simnet.Message{Kind: msg.Kind, Size: 8}, nil

		case kindFetch:
			req, ok := msg.Payload.(fetchReq)
			if !ok {
				return simnet.Message{}, fmt.Errorf("dht: bad payload for %s", msg.Kind)
			}
			n.mu.Lock()
			v, found := n.data[req.Key]
			n.mu.Unlock()
			resp := fetchResp{Found: found}
			if found {
				resp.Value = append([]byte(nil), v...)
			}
			return simnet.Message{Kind: msg.Kind, Payload: resp, Size: 8 + len(resp.Value)}, nil

		case kindDigest:
			req, ok := msg.Payload.(digestReq)
			if !ok {
				return simnet.Message{}, fmt.Errorf("dht: bad payload for %s", msg.Kind)
			}
			dg, _ := localDigest(n, req.Keys, req.Nonce, nil)
			return simnet.Message{Kind: msg.Kind, Payload: digestResp{Fresh: dg.Fresh[:], State: dg.State[:]}, Size: 64}, nil

		case kindDigestBatch:
			req, ok := msg.Payload.(*digestBatchReq)
			if !ok {
				return simnet.Message{}, fmt.Errorf("dht: bad payload for %s", msg.Kind)
			}
			return handleDigestBatch(n, req)

		case kindStoreBatch:
			req, ok := msg.Payload.(*storeBatchReq)
			if !ok {
				return simnet.Message{}, fmt.Errorf("dht: bad payload for %s", msg.Kind)
			}
			return handleStoreBatch(n, req)

		case kindFetchBatch:
			req, ok := msg.Payload.(*fetchBatchReq)
			if !ok {
				return simnet.Message{}, fmt.Errorf("dht: bad payload for %s", msg.Kind)
			}
			return handleFetchBatch(n, req)
		}
		return simnet.Message{}, fmt.Errorf("dht: unknown message kind %q", msg.Kind)
	}
}

// findSuccessor runs the iterative Chord lookup from the origin node,
// charging each routing step to the trace.
func (d *DHT) findSuccessor(tr *simnet.Trace, origin simnet.NodeID, key uint64) (uint64, error) {
	d.mu.RLock()
	cur := d.names[origin]
	d.mu.RUnlock()
	if cur == nil {
		return 0, fmt.Errorf("dht: %w: %s", overlay.ErrUnknownOrigin, origin)
	}
	// Local shortcut: origin answers from its own routing state first.
	d.mu.RLock()
	succ := d.successorID(cur.id + 1)
	d.mu.RUnlock()
	if inInterval(key, cur.id, succ) {
		return succ, nil
	}
	target := cur.closestPrecedingFinger(key)
	for step := 0; step < 2*ringBits; step++ {
		d.mu.RLock()
		targetNode := d.byID[target]
		d.mu.RUnlock()
		if targetNode == nil {
			return 0, overlay.ErrUnavailable
		}
		reply, err := d.net.RPC(tr, origin, targetNode.name, simnet.Message{
			Kind:    kindFindSuccessor,
			Payload: findSuccessorReq{Key: key},
			Size:    16,
		})
		if err != nil {
			// Route around an unreachable hop: fall back to its ring
			// successor, as Chord's failure handling would after a timeout.
			d.mu.RLock()
			next := d.successorID(target + 1)
			d.mu.RUnlock()
			if next == target {
				return 0, overlay.ErrUnavailable
			}
			// If stepping from the dead node to its successor crosses the
			// key, that successor IS the key's successor — conclude rather
			// than overshoot and ping-pong around the ring.
			if inInterval(key, target, next) {
				return next, nil
			}
			target = next
			continue
		}
		resp, ok := reply.Payload.(findSuccessorResp)
		if !ok {
			return 0, fmt.Errorf("dht: bad find_successor reply")
		}
		if resp.Done {
			return resp.Node, nil
		}
		target = resp.Next
	}
	return 0, fmt.Errorf("dht: lookup did not converge for key %d", key)
}

// Store implements overlay.KV: the value is written to the key's successor
// and its replica set.
func (d *DHT) Store(origin, key string, value []byte) (overlay.OpStats, error) {
	return d.StoreSpan(nil, origin, key, value)
}

// StoreSpan implements overlay.SpanKV: Store with the routing step and each
// replica write attributed to child spans of sp (nil sp: identical untraced
// operation).
func (d *DHT) StoreSpan(sp *telemetry.Span, origin, key string, value []byte) (overlay.OpStats, error) {
	sp.Tag("key", key)
	tr := &simnet.Trace{}
	kid := hashID(key)
	rtr := &simnet.Trace{}
	route := sp.Child("route")
	root, err := d.resolveRoot(rtr, route, simnet.NodeID(origin), key, kid)
	tr.Add(rtr)
	route.AddLatency(rtr.Latency)
	route.End(spanOutcome(err))
	if err != nil {
		return stats(tr), err
	}
	d.mu.RLock()
	replicas := d.placementOf(root, d.replica)
	d.mu.RUnlock()
	// Contact the replica set on the configured fan-out (serial by default,
	// concurrent with FanoutWorkers > 1). Each contact charges its own
	// trace; mergeFanout folds them into tr with the latency model matching
	// the fan-out shape. Per-replica spans are built detached (workers must
	// not append to sp concurrently) and adopted in replica order below.
	outcomes, _ := parallel.Map(d.fanout, replicas, func(_ int, rid uint64) (replicaOutcome, error) {
		d.mu.RLock()
		rn := d.byID[rid]
		d.mu.RUnlock()
		rtr := &simnet.Trace{}
		_, err := d.net.RPC(rtr, simnet.NodeID(origin), rn.name, simnet.Message{
			Kind:    kindStore,
			Payload: storeReq{Key: key, Value: value},
			Size:    len(key) + len(value),
		})
		var rsp *telemetry.Span
		if sp != nil {
			rsp = telemetry.NewSpan("store")
			rsp.Tag("replica", string(rn.name))
			rsp.AddLatency(rtr.Latency)
			rsp.End(spanOutcome(err))
		}
		return replicaOutcome{tr: *rtr, err: err, span: rsp}, nil
	})
	d.mergeFanout(tr, outcomes)
	for _, o := range outcomes {
		sp.Adopt(o.span)
	}
	stored := 0
	var lastErr, ackLost error
	for _, o := range outcomes {
		if o.err == nil {
			stored++
		} else {
			lastErr = o.err
			if ackLost == nil && errors.Is(o.err, simnet.ErrReplyLost) {
				ackLost = o.err
			}
		}
	}
	if stored == 0 {
		// No ack at all. If any store's reply was lost the write may still
		// have been applied — surface that so retry logic treats the
		// operation as possibly landed (stores are idempotent, so
		// retrying is safe).
		if ackLost != nil {
			return stats(tr), fmt.Errorf("dht: store unacked, may have been applied: %w", ackLost)
		}
		if lastErr != nil {
			return stats(tr), fmt.Errorf("%w: %w", overlay.ErrUnavailable, lastErr)
		}
		return stats(tr), overlay.ErrUnavailable
	}
	return stats(tr), nil
}

// Lookup implements overlay.KV: it routes to the key's successor and falls
// back through the replica set when nodes are offline.
func (d *DHT) Lookup(origin, key string) ([]byte, overlay.OpStats, error) {
	return d.LookupSpan(nil, origin, key)
}

// LookupSpan implements overlay.SpanKV: Lookup with the routing step and
// each replica fetch attributed to child spans of sp (nil sp: identical
// untraced operation).
func (d *DHT) LookupSpan(sp *telemetry.Span, origin, key string) ([]byte, overlay.OpStats, error) {
	sp.Tag("key", key)
	tr := &simnet.Trace{}
	kid := hashID(key)
	rtr := &simnet.Trace{}
	route := sp.Child("route")
	root, err := d.resolveRoot(rtr, route, simnet.NodeID(origin), key, kid)
	tr.Add(rtr)
	route.AddLatency(rtr.Latency)
	route.End(spanOutcome(err))
	if err != nil {
		return nil, stats(tr), err
	}
	d.mu.RLock()
	replicas := d.successorsOf(root, d.replica)
	d.mu.RUnlock()
	if d.fanout <= 1 {
		// Serial path: probe replicas in ring order, stop at the first hit.
		var lastErr error = overlay.ErrUnavailable
		for _, rid := range replicas {
			d.mu.RLock()
			rn := d.byID[rid]
			d.mu.RUnlock()
			ftr := &simnet.Trace{}
			fsp := sp.Child("fetch")
			fsp.Tag("replica", string(rn.name))
			reply, err := d.net.RPC(ftr, simnet.NodeID(origin), rn.name, simnet.Message{
				Kind:    kindFetch,
				Payload: fetchReq{Key: key},
				Size:    len(key),
			})
			tr.Add(ftr)
			fsp.AddLatency(ftr.Latency)
			if err != nil {
				fsp.End(spanOutcome(err))
				lastErr = err
				continue
			}
			resp, ok := reply.Payload.(fetchResp)
			if !ok {
				fsp.End("error")
				return nil, stats(tr), fmt.Errorf("dht: bad fetch reply")
			}
			if resp.Found {
				fsp.End("ok")
				return resp.Value, stats(tr), nil
			}
			fsp.End("miss")
			lastErr = overlay.ErrNotFound
		}
		return nil, stats(tr), lastErr
	}
	// Concurrent path: fetch from the whole replica set at once and take
	// the first hit in ring order, so the answer is independent of
	// goroutine scheduling. Costs more messages than the serial early-exit
	// but the operation completes in one (slowest-branch) round trip.
	// Per-replica spans are built detached and adopted in replica order.
	outcomes, _ := parallel.Map(d.fanout, replicas, func(_ int, rid uint64) (replicaOutcome, error) {
		d.mu.RLock()
		rn := d.byID[rid]
		d.mu.RUnlock()
		rtr := &simnet.Trace{}
		reply, err := d.net.RPC(rtr, simnet.NodeID(origin), rn.name, simnet.Message{
			Kind:    kindFetch,
			Payload: fetchReq{Key: key},
			Size:    len(key),
		})
		var rsp *telemetry.Span
		if sp != nil {
			rsp = telemetry.NewSpan("fetch")
			rsp.Tag("replica", string(rn.name))
			rsp.AddLatency(rtr.Latency)
			rsp.End(spanOutcome(err))
		}
		return replicaOutcome{tr: *rtr, reply: reply, err: err, span: rsp}, nil
	})
	d.mergeFanout(tr, outcomes)
	for _, o := range outcomes {
		sp.Adopt(o.span)
	}
	var lastErr error = overlay.ErrUnavailable
	for _, o := range outcomes {
		if o.err != nil {
			lastErr = o.err
			continue
		}
		resp, ok := o.reply.Payload.(fetchResp)
		if !ok {
			return nil, stats(tr), fmt.Errorf("dht: bad fetch reply")
		}
		if resp.Found {
			return resp.Value, stats(tr), nil
		}
		lastErr = overlay.ErrNotFound
	}
	return nil, stats(tr), lastErr
}

// replicaOutcome is one replica contact's result during a fan-out.
type replicaOutcome struct {
	tr    simnet.Trace
	reply simnet.Message
	err   error
	span  *telemetry.Span // detached per-replica span; nil when untraced
}

// spanOutcome renders an operation error as a span outcome tag.
func spanOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, overlay.ErrNotFound):
		return "miss"
	case errors.Is(err, simnet.ErrReplyLost):
		return "ack-lost"
	case errors.Is(err, simnet.ErrDropped):
		return "drop"
	case errors.Is(err, simnet.ErrNodeOffline):
		return "offline"
	case errors.Is(err, simnet.ErrPartitioned):
		return "partitioned"
	case errors.Is(err, simnet.ErrOverloaded):
		return "overload"
	case errors.Is(err, overlay.ErrUnavailable):
		return "unavailable"
	default:
		return "error"
	}
}

// mergeFanout folds per-replica traces into the operation trace. Message,
// byte, and hop counts always sum; latency sums on the serial path but
// charges only the slowest branch when replicas were contacted concurrently.
func (d *DHT) mergeFanout(tr *simnet.Trace, outcomes []replicaOutcome) {
	var maxLat time.Duration
	for _, o := range outcomes {
		tr.Hops += o.tr.Hops
		tr.Messages += o.tr.Messages
		tr.Bytes += o.tr.Bytes
		if d.fanout <= 1 {
			tr.Latency += o.tr.Latency
		} else if o.tr.Latency > maxLat {
			maxLat = o.tr.Latency
		}
	}
	tr.Latency += maxLat
}

func stats(tr *simnet.Trace) overlay.OpStats {
	return overlay.OpStats{Hops: tr.Hops, Messages: tr.Messages, Bytes: tr.Bytes, Latency: tr.Latency}
}
