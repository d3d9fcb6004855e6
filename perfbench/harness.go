package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
)

// instance is one built deployment of a workload, ready to run rounds.
type instance interface {
	// round runs one unit of measured work (closed loop, one client) and
	// records every caller-visible outcome into rc. Round r of a deployment
	// always issues the same operations for the same seed.
	round(r int, rc *rec) error
	// net is the simulated network the deployment runs on.
	net() *simnet.Network
	// counters returns the deployment's cumulative layer counters; the
	// harness reports their change over the counted rounds.
	counters() map[string]float64
	// endCount runs the checks and gauges due at the end of the counted
	// rounds (for example the all-copies rot audit), adding results to m.
	endCount(rc *rec, m map[string]float64) error
	// dropInputs releases the generated inputs before the live heap is read.
	dropInputs()
}

// spec describes one workload.
type spec struct {
	name string
	// countRounds is how many rounds the counted outputs (simulated cost,
	// ok_ratio, read digest, layer counters) cover. They always run, so
	// counted outputs do not depend on host speed.
	countRounds int
	// epochRounds > 0 rebuilds the deployment every epochRounds rounds,
	// keeping per-round work stationary when state grows with every round.
	epochRounds int
	// bytesVary marks a workload whose simulated byte counts depend on
	// crypto/rand output as well as on the seed: ABE ciphertexts are encoded
	// at a length that varies with their random elements. Repeat runs of one
	// seed then agree on bytes only to within byteSlack.
	bytesVary bool
	build     func(seed int64, epoch int, e *env) (instance, error)
}

// env is what a run hands to a workload builder.
type env struct {
	tr        *tracer // nil: untraced
	pl        plant   // zero: no planted regression
	telemetry bool    // attach a telemetry registry, as the program does
	// nextNs and nextCalls accumulate time spent in workload.Stream.Next.
	nextNs, nextCalls int64
}

// seamed wraps the DHT in a seam when the run is traced or planted.
func (e *env) seamed(d overlayAPI) overlayAPI {
	if e.tr == nil && e.pl == (plant{}) {
		return d
	}
	return newSeam(d, e.tr, e.pl)
}

// rec accumulates caller-visible outcomes of a run.
type rec struct {
	ops, ok       int
	msgs, bytes   int
	hops          int
	readLat       []float64 // simulated ms per caller-visible read call
	writeLat      []float64 // simulated ms per caller-visible write call
	digest        uint64
	repairTicks   []float64 // rot-sweep: ticks until each rotted copy verified again
	callNs, offNs int64
	// offAlloc and offMallocs are the heap bytes and objects allocated by
	// harness bookkeeping run under offClock.
	offAlloc, offMallocs uint64
	offSample            [2]metrics.Sample
	sampling             bool
	tr                   *tracer
}

func newRec(tr *tracer) *rec {
	r := &rec{digest: 14695981039346656037, sampling: true, tr: tr}
	r.offSample[0].Name, r.offSample[1].Name = "/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"
	return r
}

// begin opens a client-operation span (traced runs) and returns the start
// time of a call into the program.
func (r *rec) begin(name int32) (time.Time, int32) {
	return time.Now(), r.tr.begin(name)
}

// end closes what begin opened and charges the call's wall time.
func (r *rec) end(t0 time.Time, sp int32) {
	r.tr.end(sp)
	r.callNs += int64(time.Since(t0))
}

// cost adds one call's simulated cost.
func (r *rec) cost(st overlay.OpStats) {
	r.msgs += st.Messages
	r.bytes += st.Bytes
	r.hops += st.Hops
}

func (r *rec) read(st overlay.OpStats) {
	r.cost(st)
	if r.sampling {
		r.readLat = append(r.readLat, ms(st.Latency))
	}
}

func (r *rec) write(st overlay.OpStats) {
	r.cost(st)
	if r.sampling {
		r.writeLat = append(r.writeLat, ms(st.Latency))
	}
}

// fold mixes one read outcome into the run's read digest (FNV-1a over the
// 64-bit words).
func (r *rec) fold(words ...uint64) {
	for _, w := range words {
		for i := 0; i < 8; i++ {
			r.digest ^= w & 0xff
			r.digest *= 1099511628211
			w >>= 8
		}
	}
}

// offClock runs harness bookkeeping whose time and allocations must not
// count as measured work.
func (r *rec) offClock(f func()) {
	metrics.Read(r.offSample[:])
	b0, o0 := r.offSample[0].Value.Uint64(), r.offSample[1].Value.Uint64()
	t0 := time.Now()
	f()
	r.offNs += int64(time.Since(t0))
	metrics.Read(r.offSample[:])
	r.offAlloc += r.offSample[0].Value.Uint64() - b0
	r.offMallocs += r.offSample[1].Value.Uint64() - o0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// counted is the deterministic part of a run: everything covered by the
// counted rounds.
type counted struct {
	ops, ok, msgs, bytes, hops int
	digest                     uint64
	readLat, writeLat          []float64
	layer                      map[string]float64
	gcCycles                   uint32
	gcPauseNs                  uint64
	callNs, wallNs             int64
}

// roundStat is one round's host cost.
type roundStat struct {
	ops            int
	wallNs         int64
	alloc, mallocs uint64
}

// result is one run of one workload.
type result struct {
	setupS     []float64
	rounds     []roundStat
	count      counted
	attempted  int
	okAll      int
	heapLiveMB float64
	nextNs     float64
}

// opts selects how a run is made.
type opts struct {
	seed      int64
	seconds   float64
	countOnly bool // run exactly the counted rounds
	tr        *tracer
	pl        plant
	telemetry bool
}

// setupReps is how many times a full run builds its deployment before
// measuring (the last build is kept); setup_s reports the median build.
const setupReps = 5

func runWorkload(sp *spec, o opts) (*result, error) {
	e := &env{tr: o.tr, pl: o.pl, telemetry: o.telemetry}
	res := &result{}
	build := func(epoch int) (instance, error) {
		runtime.GC()
		t0 := time.Now()
		inst, err := sp.build(o.seed, epoch, e)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		return inst, nil
	}
	reps := setupReps
	if o.countOnly {
		reps = 1
	}
	var inst instance
	for i := 0; i < reps; i++ {
		inst = nil // release the previous build before the next one
		var err error
		if inst, err = build(0); err != nil {
			return nil, err
		}
	}

	rc := newRec(o.tr)
	layer := map[string]float64{}
	base := inst.counters()
	netBase := inst.net().Totals()
	msgBase, byteBase := rc.msgs, rc.bytes
	// crossCheck proves the simulated cost the callers saw is all the
	// traffic the network carried: nothing is spent out of sight.
	crossCheck := func() error {
		t := inst.net().Totals()
		dm, db := t.Messages-netBase.Messages, t.Bytes-netBase.Bytes
		if um, ub := dm-(rc.msgs-msgBase), db-(rc.bytes-byteBase); um != 0 || ub != 0 {
			return fmt.Errorf("%s: cost cross-check failed: %d messages and %d bytes on the network were not seen by any caller", sp.name, um, ub)
		}
		return nil
	}
	addLayer := func() {
		for k, v := range inst.counters() {
			layer[k] += v - base[k]
		}
	}

	var ms0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	phase0 := time.Now()
	msPrev := ms0
	deadline := time.Duration(o.seconds * float64(time.Second))
	for r := 0; ; r++ {
		epochEnd := sp.epochRounds > 0 && r > 0 && r%sp.epochRounds == 0
		if r <= sp.countRounds && (epochEnd || r == sp.countRounds) {
			// The counted part of this deployment is over: collect its
			// layer counters and end-of-count checks.
			wallNs := int64(time.Since(phase0)) - rc.offNs
			addLayer()
			if err := inst.endCount(rc, layer); err != nil {
				return nil, err
			}
			if err := crossCheck(); err != nil {
				return nil, err
			}
			if r == sp.countRounds {
				if len(rc.repairTicks) > 0 {
					layer["rot.repair_ticks_p50"] = median(rc.repairTicks)
				}
				res.count = counted{
					ops: rc.ops, ok: rc.ok, msgs: rc.msgs, bytes: rc.bytes, hops: rc.hops,
					digest:  rc.digest,
					readLat: rc.readLat, writeLat: rc.writeLat, layer: layer,
					gcCycles: msPrev.NumGC - ms0.NumGC, gcPauseNs: msPrev.PauseTotalNs - ms0.PauseTotalNs,
					callNs: rc.callNs, wallNs: wallNs,
				}
				rc.sampling, rc.readLat, rc.writeLat, rc.repairTicks = false, nil, nil, nil
			}
		}
		// Stop once the counted rounds are done and time is up, and only
		// at the end of a deployment's epoch, so every run ends in the same
		// state.
		if r >= sp.countRounds && (o.countOnly || time.Since(phase0) >= deadline) && (sp.epochRounds == 0 || r%sp.epochRounds == 0) {
			break
		}
		local := r
		if sp.epochRounds > 0 {
			local = r % sp.epochRounds
			if epochEnd {
				if err := crossCheck(); err != nil {
					return nil, err
				}
				inst = nil
				var err error
				rc.offClock(func() { inst, err = build(r / sp.epochRounds) })
				if err != nil {
					return nil, err
				}
				base, netBase = inst.counters(), inst.net().Totals()
				msgBase, byteBase = rc.msgs, rc.bytes
				runtime.ReadMemStats(&msPrev)
			}
		}
		ops0, off0, offA, offM := rc.ops, rc.offNs, rc.offAlloc, rc.offMallocs
		t0 := time.Now()
		if err := inst.round(local, rc); err != nil {
			return nil, err
		}
		wall := int64(time.Since(t0)) - (rc.offNs - off0)
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		res.rounds = append(res.rounds, roundStat{
			ops: rc.ops - ops0, wallNs: wall,
			alloc:   m.TotalAlloc - msPrev.TotalAlloc - (rc.offAlloc - offA),
			mallocs: m.Mallocs - msPrev.Mallocs - (rc.offMallocs - offM),
		})
		msPrev = m
	}
	if err := crossCheck(); err != nil {
		return nil, err
	}
	res.attempted, res.okAll = rc.ops, rc.ok
	if e.nextCalls > 0 {
		res.nextNs = float64(e.nextNs) / float64(e.nextCalls)
	}

	inst.dropInputs()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	res.heapLiveMB = float64(m.HeapAlloc) / 1e6
	runtime.KeepAlive(inst)
	return res, nil
}

// median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs, and an error when
// fewer than ten samples lie beyond it (a percentile needs ten samples in
// its tail to be reported at all).
func percentile(xs []float64, q float64, what string) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < 10 {
		return 0, fmt.Errorf("%s: only %d samples beyond the %g quantile of %d (need 10)", what, n-rank, q, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// hostStats reduces the rounds of a run to per-round medians.
func (res *result) hostStats() (opsPerS, allocB, allocs float64) {
	var rate, ab, ac []float64
	for _, r := range res.rounds {
		if r.ops == 0 || r.wallNs <= 0 {
			continue
		}
		rate = append(rate, float64(r.ops)/(float64(r.wallNs)/1e9))
		ab = append(ab, float64(r.alloc)/float64(r.ops))
		ac = append(ac, float64(r.mallocs)/float64(r.ops))
	}
	return median(rate), median(ab), median(ac)
}
