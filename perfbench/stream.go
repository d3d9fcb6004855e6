package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"time"

	"godosn/internal/cache"
	"godosn/internal/overlay"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience"
	"godosn/internal/resilience/load"
	"godosn/internal/resilience/scrub"
	"godosn/internal/telemetry"
	"godosn/internal/workload"
)

const (
	peers       = 48      // DHT nodes in every overlay workload
	streamUsers = 100_000 // Zipf population of the streamed workloads
	feedPage    = 64      // keys per batch: one feed page
	// chaosOpsPerTick is how many chaos-perkey operations share one tick of
	// the fault schedule and the health tracker.
	chaosOpsPerTick = 16
	// chaosFaultStride is the distance in ring order between two faulty
	// chaos-perkey nodes: more than a replica window (k=3) plus the one
	// position a quarantine shifts it, so every key keeps two healthy
	// replicas.
	chaosFaultStride = 8
)

// Read outcomes folded into the read digest.
const (
	outHit = iota + 1
	outMiss
	outErr
)

// act is one client operation of a generated stream.
type act struct {
	write bool
	key   int32
}

// streamInput is a workload.Stream drained during set-up: the distinct keys,
// the single value ever written under each, and the operation order.
type streamInput struct {
	keys []string
	vals [][]byte
	acts []act
}

// genStream drains a DefaultMix Zipf stream of ops actions. Posts and
// comments are writes, feed reads and searches are reads, and a user's first
// post also writes that user's search-index entry (as experiment E23 does).
// With seal, every value is a scrub.Seal'ed record.
func genStream(seed int64, ops int, seal bool, e *env) (*streamInput, error) {
	st, err := workload.NewStream(workload.StreamConfig{Users: streamUsers, Ops: ops, Seed: seed})
	if err != nil {
		return nil, err
	}
	in := &streamInput{acts: make([]act, 0, ops+ops/8)}
	ids := make(map[string]int32, ops)
	id := func(key string) int32 {
		if i, ok := ids[key]; ok {
			return i
		}
		i := int32(len(in.keys))
		ids[key] = i
		in.keys = append(in.keys, key)
		in.vals = append(in.vals, nil)
		return i
	}
	write := func(key string, v []byte) error {
		i := id(key)
		if seal {
			v = scrub.Seal(key, v)
		}
		if in.vals[i] != nil && !bytes.Equal(in.vals[i], v) {
			return fmt.Errorf("stream writes two values under %q", key)
		}
		in.vals[i] = v
		in.acts = append(in.acts, act{write: true, key: i})
		return nil
	}
	for {
		t0 := time.Now()
		a, ok := st.Next()
		e.nextNs += int64(time.Since(t0))
		e.nextCalls++
		if !ok {
			break
		}
		switch a.Kind {
		case workload.ActionPost, workload.ActionComment:
			if err := write(a.Key, a.Value); err != nil {
				return nil, err
			}
			if a.Kind == workload.ActionPost && strings.HasSuffix(a.Key, "/0") {
				if err := write(workload.SearchKey(a.Actor), []byte("index:"+a.Key)); err != nil {
					return nil, err
				}
			}
		default:
			in.acts = append(in.acts, act{key: id(a.Key)})
		}
	}
	return in, nil
}

// nodeNames returns the overlay's node names; node-0 is the client.
func nodeNames() []simnet.NodeID {
	names := make([]simnet.NodeID, peers)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	return names
}

// kvDeployment is a resilient KV over a DHT, the stack every overlay
// workload runs on.
type kvDeployment struct {
	reg    *telemetry.Registry // nil when the run detaches telemetry
	sim    *simnet.Network
	d      *dht.DHT
	kv     *resilience.KV
	client string
}

// newKVDeployment builds the stack and attaches telemetry the way the
// scenario runtime does (network, DHT and resilient KV report into one
// registry). The DHT sits behind a seam when the run is traced or planted.
func newKVDeployment(seed int64, dcfg dht.Config, rcfg resilience.Config, e *env) (*kvDeployment, overlayAPI, error) {
	sim := simnet.New(simnet.DefaultConfig(seed))
	names := nodeNames()
	dcfg.ReplicationFactor, dcfg.FanoutWorkers = 3, 1
	d, err := dht.New(sim, names, dcfg)
	if err != nil {
		return nil, nil, err
	}
	if rcfg.Verify != nil {
		rcfg.Verify = tracedVerify(e.tr, rcfg.Verify)
	}
	ov := e.seamed(d)
	dep := &kvDeployment{sim: sim, d: d, kv: resilience.Wrap(ov, rcfg), client: string(names[0])}
	if e.telemetry {
		dep.reg = telemetry.NewRegistry()
		sim.SetTelemetry(dep.reg)
		d.SetTelemetry(dep.reg)
		dep.kv.SetTelemetry(dep.reg)
	}
	return dep, ov, nil
}

func (k *kvDeployment) net() *simnet.Network { return k.sim }

// counters reports the network, cache and resilience counters shared by
// every overlay workload.
func (k *kvDeployment) counters() map[string]float64 {
	c := stackCounters(k.sim, k.kv)
	rs, vs := k.d.RouteCacheStats(), k.kv.ValueCacheStats()
	c["route.hits"], c["route.misses"], c["route.evictions"] = float64(rs.Hits), float64(rs.Misses), float64(rs.Evictions)
	c["value.hits"], c["value.misses"], c["value.invalidated"] = float64(vs.Hits), float64(vs.Misses), float64(vs.Invalidations)
	return c
}

// stackCounters returns the cumulative network and resilience counters of
// a deployment.
func stackCounters(sim *simnet.Network, kv *resilience.KV) map[string]float64 {
	m := kv.Metrics()
	return map[string]float64{
		"rpcs":           float64(sim.RPCCount()),
		"corrupted":      float64(sim.CorruptedReplies()),
		"res.retries":    float64(m.Retries),
		"res.hedges":     float64(m.Hedges),
		"res.corrupt":    float64(m.CorruptReads),
		"res.skips":      float64(m.BreakerSkips),
		"res.fallbacks":  float64(m.BatchFallbacks),
		"res.backoff_ms": ms(m.Backoff),
	}
}

// oracle judges reads against the acknowledged writes of one input.
type oracle struct {
	vals  [][]byte
	keys  []string
	acked []bool
}

// judge checks one read of key id: it returns whether the read met its
// check, the outcome folded into the digest, and an error when the read
// returned bytes that were never written under the key.
func (o *oracle) judge(id int32, v []byte, err error) (bool, uint64, error) {
	switch {
	case err == nil:
		if !bytes.Equal(v, o.vals[id]) {
			return false, 0, fmt.Errorf("read of %q returned %d bytes that were never written", o.keys[id], len(v))
		}
		return true, outHit, nil
	case errors.Is(err, overlay.ErrNotFound):
		// A miss is correct only for a key with no acknowledged write.
		return !o.acked[id], outMiss, nil
	default:
		return false, outErr, nil
	}
}

// batchedStream is the stream-batched workload: feed-page batches through
// resilience.KV.PutBatch/GetBatch on a lossless DHT with the route cache on.
type batchedStream struct {
	*kvDeployment
	in    *streamInput
	or    oracle
	pendW []bool // key has a buffered write
	pendR []bool // key has a buffered read
	wIDs  []int32
	wKeys []string
	wVals [][]byte
	rIDs  []int32
	rKeys []string
	sPut  int32
	sGet  int32
}

func buildBatched(seed int64, _ int, e *env) (instance, error) {
	in, err := genStream(seed, 60_000, false, e)
	if err != nil {
		return nil, err
	}
	dep, _, err := newKVDeployment(seed, dht.Config{
		RouteCache: cache.Config{Capacity: 4096, Shards: 1, Seed: seed},
	}, resilience.DefaultConfig(seed), e)
	if err != nil {
		return nil, err
	}
	n := len(in.keys)
	return &batchedStream{
		kvDeployment: dep, in: in,
		or:    oracle{vals: in.vals, keys: in.keys, acked: make([]bool, n)},
		pendW: make([]bool, n), pendR: make([]bool, n),
		sPut: e.tr.name("resilience.PutBatch"), sGet: e.tr.name("resilience.GetBatch"),
	}, nil
}

func (b *batchedStream) flushWrites(rc *rec) {
	if len(b.wKeys) == 0 {
		return
	}
	t0, sp := rc.begin(b.sPut)
	errs, st, err := b.kv.PutBatch(b.client, b.wKeys, b.wVals)
	rc.end(t0, sp)
	rc.write(st)
	for i, id := range b.wIDs {
		rc.ops++
		b.pendW[id] = false
		if err == nil && errs[i] == nil {
			rc.ok++
			b.or.acked[id] = true
		}
	}
	b.wIDs, b.wKeys, b.wVals = b.wIDs[:0], b.wKeys[:0], b.wVals[:0]
}

func (b *batchedStream) flushReads(rc *rec) error {
	if len(b.rKeys) == 0 {
		return nil
	}
	t0, sp := rc.begin(b.sGet)
	res, st, err := b.kv.GetBatch(b.client, b.rKeys)
	rc.end(t0, sp)
	rc.read(st)
	for i, id := range b.rIDs {
		rc.ops++
		b.pendR[id] = false
		var (
			ok   bool
			out  uint64 = outErr
			cerr error
		)
		if err == nil {
			ok, out, cerr = b.or.judge(id, res[i].Value, res[i].Err)
			if cerr != nil {
				return cerr
			}
		}
		if ok {
			rc.ok++
		}
		rc.fold(uint64(id), out)
	}
	b.rIDs, b.rKeys = b.rIDs[:0], b.rKeys[:0]
	return nil
}

// round replays the whole input. Writes and reads buffer separately and a
// buffer is flushed when it holds a page or when an operation of the other
// kind touches one of its keys, so every key sees its operations in stream
// order.
func (b *batchedStream) round(_ int, rc *rec) error {
	for _, a := range b.in.acts {
		if a.write {
			if b.pendR[a.key] {
				if err := b.flushReads(rc); err != nil {
					return err
				}
			}
			b.pendW[a.key] = true
			b.wIDs = append(b.wIDs, a.key)
			b.wKeys = append(b.wKeys, b.in.keys[a.key])
			b.wVals = append(b.wVals, b.in.vals[a.key])
			if len(b.wKeys) >= feedPage {
				b.flushWrites(rc)
			}
			continue
		}
		if b.pendW[a.key] {
			b.flushWrites(rc)
		}
		b.pendR[a.key] = true
		b.rIDs = append(b.rIDs, a.key)
		b.rKeys = append(b.rKeys, b.in.keys[a.key])
		if len(b.rKeys) >= feedPage {
			if err := b.flushReads(rc); err != nil {
				return err
			}
		}
	}
	b.flushWrites(rc)
	return b.flushReads(rc)
}

func (b *batchedStream) endCount(*rec, map[string]float64) error { return nil }

func (b *batchedStream) dropInputs() {
	b.in, b.or = nil, oracle{}
	b.pendR, b.pendW = nil, nil
}

// perKeyChaos is the chaos-perkey workload: per-key Store of sealed records
// and verified Lookup under churn and Byzantine replies, with hedging,
// health ranking and a value cache smaller than the working set.
type perKeyChaos struct {
	*kvDeployment
	in    *streamInput
	or    oracle
	sched *simnet.FaultSchedule
	sPut  int32
	sGet  int32
}

func buildChaos(seed int64, _ int, e *env) (instance, error) {
	in, err := genStream(seed^0x5eed, 40_000, true, e)
	if err != nil {
		return nil, err
	}
	rcfg := resilience.DefaultConfig(seed)
	rcfg.Verify = scrub.Check
	rcfg.Health = load.TrackerConfig{Alpha: 0.3, HalfLife: 8}
	rcfg.Cache = cache.Config{Capacity: 64, Shards: 1, Seed: seed}
	dep, _, err := newKVDeployment(seed, dht.Config{
		RouteCache: cache.Config{Capacity: 4096, Shards: 1, Seed: seed},
	}, rcfg, e)
	if err != nil {
		return nil, err
	}
	// Faults sit on every chaosFaultStride-th node in ring order, so no
	// operation can fail: two nodes flip bits in replies and the others
	// churn. Random loss and churn of every node are left out, because both
	// make acknowledged writes unreadable (README.md, "Known defects").
	ring, err := ringOrder(dep.d, in.keys, dep.client)
	if err != nil {
		return nil, err
	}
	var churn []simnet.NodeID
	for i, pos := 0, chaosFaultStride/2; pos < len(ring); i, pos = i+1, pos+chaosFaultStride {
		if i%3 != 0 {
			churn = append(churn, simnet.NodeID(ring[pos]))
			continue
		}
		if err := dep.sim.SetByzantine(simnet.NodeID(ring[pos]), simnet.ByzantineConfig{Mode: simnet.ByzBitFlip, Rate: 0.5, Seed: seed}); err != nil {
			return nil, err
		}
	}
	sched, err := simnet.NewFaultSchedule(dep.sim, churn, simnet.ChurnConfig{Seed: seed, Uptime: 0.5, MeanOnline: 20})
	if err != nil {
		return nil, err
	}
	return &perKeyChaos{
		kvDeployment: dep, in: in, sched: sched,
		or:   oracle{vals: in.vals, keys: in.keys, acked: make([]bool, len(in.keys))},
		sPut: e.tr.name("resilience.Store"), sGet: e.tr.name("resilience.Lookup"),
	}, nil
}

// ringOrder returns the DHT's nodes in ring order starting at the client,
// read from the placement plans of keys: a plan is k consecutive ring nodes.
func ringOrder(d *dht.DHT, keys []string, client string) ([]string, error) {
	next := map[string]string{}
	for _, key := range keys {
		plan := d.PlanReplicas(key)
		for i := 1; i < len(plan); i++ {
			if n, ok := next[plan[i-1]]; ok && n != plan[i] {
				return nil, fmt.Errorf("ring order: %s is followed by both %s and %s", plan[i-1], n, plan[i])
			}
			next[plan[i-1]] = plan[i]
		}
	}
	ring := []string{client}
	for n := next[client]; n != client && len(ring) <= peers; n = next[n] {
		ring = append(ring, n)
	}
	if len(ring) != peers {
		return nil, fmt.Errorf("ring order: walked %d of %d nodes", len(ring), peers)
	}
	return ring, nil
}

func (c *perKeyChaos) round(_ int, rc *rec) error {
	for i, a := range c.in.acts {
		if i%chaosOpsPerTick == 0 {
			// The fault schedule and the decorator's health decay advance
			// on the shared tick clock, between operations.
			t0, sp := rc.begin(-1)
			c.sched.Tick()
			c.kv.Tick()
			rc.end(t0, sp)
		}
		key := c.in.keys[a.key]
		rc.ops++
		if a.write {
			t0, sp := rc.begin(c.sPut)
			st, err := c.kv.Store(c.client, key, c.in.vals[a.key])
			rc.end(t0, sp)
			rc.write(st)
			if err == nil {
				rc.ok++
				c.or.acked[a.key] = true
			}
			continue
		}
		t0, sp := rc.begin(c.sGet)
		v, st, err := c.kv.Lookup(c.client, key)
		rc.end(t0, sp)
		rc.read(st)
		ok, out, cerr := c.or.judge(a.key, v, err)
		if cerr != nil {
			return cerr
		}
		if ok {
			rc.ok++
		}
		rc.fold(uint64(a.key), out)
	}
	return nil
}

func (c *perKeyChaos) endCount(_ *rec, m map[string]float64) error {
	m["res.quarantined"] += float64(len(c.kv.Breaker().QuarantinedNodes()))
	m["deployments"]++
	return nil
}

func (c *perKeyChaos) dropInputs() { c.in, c.or = nil, oracle{} }
