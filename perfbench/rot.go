package main

import (
	"fmt"
	"math/rand"

	"godosn/internal/overlay/dht"
	"godosn/internal/resilience"
	"godosn/internal/resilience/scrub"
)

const (
	rotPreload      = 50_000 // sealed keys stored during set-up
	rotPerTick      = 4      // copies rotted per tick
	rotNewPerTick   = 32     // new sealed keys written per tick
	rotTicksPerRnd  = 100    // ticks per round
	rotEpochRounds  = 12     // rounds per deployment
	rotSweepChunk   = 32     // keys per sweep chunk
	rotSweepBudget  = 1200   // sweeper message budget per tick
	rotPreloadBatch = 256
)

// copyID names one stored copy: a key on a holder.
type copyID struct{ node, key string }

// rotSweep is the rot-sweep workload: seeded at-rest rot on a preloaded
// DHT, repaired by the budgeted sweeper while verified foreground reads and
// new writes run on the same replicas.
type rotSweep struct {
	*kvDeployment
	sw       *scrub.Sweeper
	keys     []string // preload, then the new-key pool
	vals     [][]byte
	acked    []bool
	or       oracle // judges reads against keys, vals and acked
	written  int    // keys written so far (prefix of keys)
	rotOrder []int
	rotPos   int
	rng      *rand.Rand
	tick     int
	sweep    scrub.SweepReport // sums over the counted ticks

	counting    bool
	countTicks  int
	rotted      int
	outstanding map[copyID]int // rotted copies not yet verified again -> tick rotted
	repairTicks []float64

	rKeys []string
	rIDs  []int
	sTick int32
	sGet  int32
	sPut  int32
}

// buildRot builds one deployment. Each epoch of a run is a fresh deployment
// under its own sub-seed, so a run averages over several fault histories.
func buildRot(seed int64, epoch int, e *env) (instance, error) {
	seed = seed*1009 + int64(epoch)
	countTicks := rotEpochRounds * rotTicksPerRnd
	pool := rotPreload + countTicks*rotNewPerTick
	r := &rotSweep{
		keys: make([]string, pool), vals: make([][]byte, pool), acked: make([]bool, pool),
		rng:         rand.New(rand.NewSource(seed)),
		countTicks:  countTicks,
		outstanding: map[copyID]int{},
	}
	for i := range r.keys {
		r.keys[i] = fmt.Sprintf("rot/%07d", i)
		r.vals[i] = scrub.Seal(r.keys[i], []byte(fmt.Sprintf("body %d of seed %d: %x", i, seed, r.rng.Uint64())))
	}
	rcfg := resilience.DefaultConfig(seed)
	rcfg.Verify = scrub.Check
	// Quarantine is off: with it on, verified reads of rotted copies
	// quarantine the honest holders, placement moves off the copies, and
	// reads of acknowledged keys come back ErrNotFound (README.md, "Known
	// defects"). The benchmark runs only workloads on which no operation
	// fails, so it cannot carry that defect.
	rcfg.Quarantine = false
	dep, ov, err := newKVDeployment(seed, dht.Config{}, rcfg, e)
	if err != nil {
		return nil, err
	}
	r.kvDeployment = dep
	// Preload straight into the DHT: set-up traffic, before the measured
	// phase's traffic baseline is taken.
	for lo := 0; lo < rotPreload; lo += rotPreloadBatch {
		hi := min(lo+rotPreloadBatch, rotPreload)
		errs, _, err := dep.d.PutBatch(dep.client, r.keys[lo:hi], r.vals[lo:hi])
		if err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("preload %s: %w", r.keys[lo+i], err)
			}
			r.acked[lo+i] = true
		}
	}
	r.written = rotPreload
	r.or = oracle{vals: r.vals, keys: r.keys, acked: r.acked}
	scfg := scrub.DefaultConfig(dep.client)
	scfg.Verify = tracedVerify(e.tr, scrub.Check)
	sc := scrub.New(ov, scfg)
	r.sw = scrub.NewSweeper(sc, ov, r.keys[:rotPreload], scrub.SweepConfig{Budget: rotSweepBudget, ChunkKeys: rotSweepChunk})
	if dep.reg != nil {
		sc.SetTelemetry(dep.reg)
		r.sw.SetTelemetry(dep.reg)
	}
	r.rotOrder = r.rng.Perm(rotPreload)
	r.sTick, r.sGet, r.sPut = e.tr.name("scrub.Sweeper.Tick"), e.tr.name("resilience.GetBatch"), e.tr.name("resilience.PutBatch")
	return r, nil
}

// rot flips one byte of the stored copy on the key's first planned holder
// that holds it.
func (r *rotSweep) rot() {
	key := r.keys[r.rotOrder[r.rotPos%len(r.rotOrder)]]
	r.rotPos++
	pos := r.rng.Intn(1 << 16)
	for _, node := range r.d.PlanReplicas(key) {
		if r.d.CorruptStored(node, key, func(b []byte) []byte {
			b[pos%len(b)] ^= 0x40
			return b
		}) {
			if r.counting {
				r.rotted++
				r.outstanding[copyID{node, key}] = r.tick
			}
			return
		}
	}
}

func (r *rotSweep) round(_ int, rc *rec) error {
	r.counting = rc.sampling
	for t := 0; t < rotTicksPerRnd; t++ {
		r.tick++
		// Rot is the fault model, not the program's work.
		rc.offClock(func() {
			for i := 0; i < rotPerTick; i++ {
				r.rot()
			}
		})

		t0, sp := rc.begin(r.sTick)
		rep, err := r.sw.Tick()
		rc.end(t0, sp)
		if err != nil {
			return fmt.Errorf("sweeper tick %d: %w", r.tick, err)
		}
		rc.msgs += rep.Msgs
		for _, p := range rep.Reports {
			rc.bytes += p.Stats.Bytes
		}
		if r.counting {
			r.sweep.Keys += rep.Keys
			r.sweep.Msgs += rep.Msgs
			r.sweep.Repaired += rep.Repaired
			r.sweep.Divergent += rep.Divergent
			r.sweep.Priority += rep.Priority
			r.sweep.Starved += rep.Starved
			r.sweep.Chunks += rep.Chunks
		}

		r.rKeys, r.rIDs = r.rKeys[:0], r.rIDs[:0]
		for i := 0; i < feedPage; i++ {
			id := r.rng.Intn(r.written)
			r.rIDs = append(r.rIDs, id)
			r.rKeys = append(r.rKeys, r.keys[id])
		}
		t0, sp = rc.begin(r.sGet)
		res, st, err := r.kv.GetBatch(r.client, r.rKeys)
		rc.end(t0, sp)
		rc.read(st)
		for i, id := range r.rIDs {
			rc.ops++
			ok, out := false, uint64(outErr)
			if err == nil {
				var cerr error
				if ok, out, cerr = r.or.judge(int32(id), res[i].Value, res[i].Err); cerr != nil {
					return cerr
				}
			}
			if ok {
				rc.ok++
			}
			rc.fold(uint64(id), out)
		}

		// New keys come from a pool sized for one epoch.
		lo := rotPreload + ((r.tick-1)*rotNewPerTick)%(len(r.keys)-rotPreload)
		hi := lo + rotNewPerTick
		t0, sp = rc.begin(r.sPut)
		errs, st, err := r.kv.PutBatch(r.client, r.keys[lo:hi], r.vals[lo:hi])
		rc.end(t0, sp)
		rc.write(st)
		for i := lo; i < hi; i++ {
			rc.ops++
			if err == nil && errs[i-lo] == nil {
				rc.ok++
				r.acked[i] = true
			}
		}
		r.written = max(r.written, hi)
		t0, sp = rc.begin(-1)
		r.sw.AddKeys(r.keys[lo:hi]...)
		rc.end(t0, sp)

		if r.counting {
			rc.offClock(r.noteRepairs)
		}
	}
	return nil
}

// noteRepairs retires every outstanding rotted copy that verifies again.
func (r *rotSweep) noteRepairs() {
	for c, at := range r.outstanding {
		if v, ok := r.d.StoredCopy(c.node, c.key); ok && scrub.Check(c.key, v) == nil {
			r.repairTicks = append(r.repairTicks, float64(r.tick-at))
			delete(r.outstanding, c)
		}
	}
}

// endCount audits every copy on every node and checks that the corrupt
// copies it finds are exactly the rotted copies not yet repaired.
func (r *rotSweep) endCount(rc *rec, m map[string]float64) error {
	corrupt := 0
	for _, node := range nodeNames() {
		for i := 0; i < r.written; i++ {
			if v, ok := r.d.StoredCopy(string(node), r.keys[i]); ok && scrub.Check(r.keys[i], v) != nil {
				corrupt++
				if _, known := r.outstanding[copyID{string(node), r.keys[i]}]; !known {
					return fmt.Errorf("rot audit: copy of %s on %s is corrupt but was never rotted or was already repaired", r.keys[i], node)
				}
			}
		}
	}
	if corrupt != len(r.outstanding) {
		return fmt.Errorf("rot audit: %d corrupt copies on the nodes, %d rotted copies never repaired", corrupt, len(r.outstanding))
	}
	if r.rotted == 0 {
		return fmt.Errorf("rot audit: no copy was rotted")
	}
	rc.repairTicks = append(rc.repairTicks, r.repairTicks...)
	for range r.outstanding {
		rc.repairTicks = append(rc.repairTicks, float64(r.countTicks+1))
	}
	m["rot.rotted"] += float64(r.rotted)
	m["rot.left"] += float64(corrupt)
	m["scrub.ticks"] += float64(r.countTicks)
	m["scrub.keys"] += float64(r.sweep.Keys)
	m["scrub.msgs"] += float64(r.sweep.Msgs)
	m["scrub.repaired"] += float64(r.sweep.Repaired)
	m["scrub.divergent"] += float64(r.sweep.Divergent)
	m["scrub.priority"] += float64(r.sweep.Priority)
	m["scrub.starved"] += float64(r.sweep.Starved)
	m["res.quarantined"] += float64(len(r.kv.Breaker().QuarantinedNodes()))
	m["deployments"]++
	r.outstanding, r.repairTicks = nil, nil
	return nil
}

func (r *rotSweep) dropInputs() { r.vals, r.acked, r.rotOrder, r.or = nil, nil, nil, oracle{} }
