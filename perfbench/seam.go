package main

import (
	"runtime/metrics"
	"time"

	"godosn/internal/overlay"
	"godosn/internal/overlay/dht"
	"godosn/internal/resilience"
	"godosn/internal/resilience/scrub"
	"godosn/internal/telemetry"
)

// overlayAPI is every capability the resilience layer (resilience.Wrap) and
// the integrity layer (scrub.New, scrub.NewSweeper) detect on an overlay by
// type assertion. The seam decorator implements all of it, so wrapping the
// DHT in a seam changes no code path above it; the traced run proves this by
// reproducing the untraced run's messages, bytes and read digest exactly.
type overlayAPI interface {
	overlay.BatchKV
	overlay.BatchRepairKV
	overlay.BatchDigestKV
	overlay.SpanKV
	overlay.SpanHealer
	overlay.PlacementFilterable
	overlay.ReplicaRankable
	overlay.RouteCached
	scrub.Planner
}

var (
	_ overlayAPI = (*dht.DHT)(nil)
	_ overlayAPI = (*seam)(nil)
)

// Timed DHT methods, in report order. StoreSpan/LookupSpan count as
// Store/Lookup and HealSpan as Heal.
const (
	mStore = iota
	mLookup
	mLookupFrom
	mReplicasFor
	mPutBatch
	mGetBatch
	mStoreTo
	mDigestFrom
	mDigestBatchFrom
	mFetchBatchFrom
	mStoreBatchTo
	mHeal
	numMethods
)

var methodNames = [numMethods]string{
	"Store", "Lookup", "LookupFrom", "ReplicasFor", "PutBatch", "GetBatch",
	"StoreTo", "DigestFrom", "DigestBatchFrom", "FetchBatchFrom", "StoreBatchTo", "Heal",
}

// plant is a deliberate regression installed in a seam, used by the
// benchmark's self-test to prove that the benchmark sees a slower program.
type plant struct {
	// spin busy-waits this long on every DHT call (host cost only).
	spin time.Duration
	// extraLookup issues one additional Lookup per read (each Lookup and
	// ReplicasFor call, each key of a GetBatch) and charges it to the
	// caller.
	extraLookup bool
}

// seam is a pass-through decorator between the layers above the overlay
// (resilience, scrub) and the DHT. With a tracer it records one span per
// call, with the heap bytes the call allocated; with a plant it injects a
// regression.
type seam struct {
	inner overlayAPI
	tr    *tracer
	pl    plant
	names [numMethods]int32
}

func newSeam(inner overlayAPI, tr *tracer, pl plant) *seam {
	s := &seam{inner: inner, tr: tr, pl: pl}
	if tr != nil {
		for m, n := range methodNames {
			s.names[m] = tr.name("dht." + n)
		}
	}
	return s
}

func (s *seam) begin(m int) int32 {
	if s.pl.spin > 0 {
		for t0 := time.Now(); time.Since(t0) < s.pl.spin; {
		}
	}
	if s.tr == nil {
		return -1
	}
	return s.tr.beginAlloc(s.names[m])
}

func (s *seam) end(i int32) {
	if s.tr != nil {
		s.tr.endAlloc(i)
	}
}

// extra charges the planted extra Lookup to st.
func (s *seam) extra(origin, key string, st *overlay.OpStats) {
	if !s.pl.extraLookup {
		return
	}
	_, x, _ := s.inner.Lookup(origin, key)
	st.Add(x)
}

func (s *seam) Name() string { return s.inner.Name() }

func (s *seam) Store(origin, key string, value []byte) (overlay.OpStats, error) {
	i := s.begin(mStore)
	st, err := s.inner.Store(origin, key, value)
	s.end(i)
	return st, err
}

func (s *seam) StoreSpan(sp *telemetry.Span, origin, key string, value []byte) (overlay.OpStats, error) {
	i := s.begin(mStore)
	st, err := s.inner.StoreSpan(sp, origin, key, value)
	s.end(i)
	return st, err
}

func (s *seam) Lookup(origin, key string) ([]byte, overlay.OpStats, error) {
	i := s.begin(mLookup)
	v, st, err := s.inner.Lookup(origin, key)
	s.extra(origin, key, &st)
	s.end(i)
	return v, st, err
}

func (s *seam) LookupSpan(sp *telemetry.Span, origin, key string) ([]byte, overlay.OpStats, error) {
	i := s.begin(mLookup)
	v, st, err := s.inner.LookupSpan(sp, origin, key)
	s.extra(origin, key, &st)
	s.end(i)
	return v, st, err
}

func (s *seam) ReplicasFor(origin, key string) ([]string, overlay.OpStats, error) {
	i := s.begin(mReplicasFor)
	r, st, err := s.inner.ReplicasFor(origin, key)
	s.extra(origin, key, &st)
	s.end(i)
	return r, st, err
}

func (s *seam) LookupFrom(origin, key, replica string) ([]byte, overlay.OpStats, error) {
	i := s.begin(mLookupFrom)
	v, st, err := s.inner.LookupFrom(origin, key, replica)
	s.end(i)
	return v, st, err
}

func (s *seam) PutBatch(origin string, keys []string, values [][]byte) ([]error, overlay.OpStats, error) {
	i := s.begin(mPutBatch)
	errs, st, err := s.inner.PutBatch(origin, keys, values)
	s.end(i)
	return errs, st, err
}

func (s *seam) GetBatch(origin string, keys []string) ([]overlay.BatchResult, overlay.OpStats, error) {
	i := s.begin(mGetBatch)
	res, st, err := s.inner.GetBatch(origin, keys)
	for _, k := range keys {
		s.extra(origin, k, &st)
	}
	s.end(i)
	return res, st, err
}

func (s *seam) StoreTo(origin, key string, value []byte, replica string) (overlay.OpStats, error) {
	i := s.begin(mStoreTo)
	st, err := s.inner.StoreTo(origin, key, value, replica)
	s.end(i)
	return st, err
}

func (s *seam) DigestFrom(origin string, keys []string, nonce uint64, replica string) (overlay.Digest, overlay.OpStats, error) {
	i := s.begin(mDigestFrom)
	d, st, err := s.inner.DigestFrom(origin, keys, nonce, replica)
	s.end(i)
	return d, st, err
}

func (s *seam) DigestBatchFrom(origin string, groups [][]string, nonce uint64, replica string) ([]overlay.Digest, overlay.OpStats, error) {
	i := s.begin(mDigestBatchFrom)
	d, st, err := s.inner.DigestBatchFrom(origin, groups, nonce, replica)
	s.end(i)
	return d, st, err
}

func (s *seam) FetchBatchFrom(origin string, keys []string, replica string) ([]overlay.BatchResult, overlay.OpStats, error) {
	i := s.begin(mFetchBatchFrom)
	res, st, err := s.inner.FetchBatchFrom(origin, keys, replica)
	s.end(i)
	return res, st, err
}

func (s *seam) StoreBatchTo(origin string, keys []string, values [][]byte, replica string) ([]error, overlay.OpStats, error) {
	i := s.begin(mStoreBatchTo)
	errs, st, err := s.inner.StoreBatchTo(origin, keys, values, replica)
	s.end(i)
	return errs, st, err
}

func (s *seam) Heal() (overlay.HealReport, error) {
	i := s.begin(mHeal)
	r, err := s.inner.Heal()
	s.end(i)
	return r, err
}

func (s *seam) HealSpan(sp *telemetry.Span) (overlay.HealReport, error) {
	i := s.begin(mHeal)
	r, err := s.inner.HealSpan(sp)
	s.end(i)
	return r, err
}

// The remaining capabilities are configuration hooks and local planning
// with no network cost; they are forwarded untimed.

func (s *seam) SetPlacementFilter(allow func(node string) bool) { s.inner.SetPlacementFilter(allow) }

func (s *seam) SetReplicaRanker(rank func(replicas []string) []string) {
	s.inner.SetReplicaRanker(rank)
}

func (s *seam) InvalidateRoutes() { s.inner.InvalidateRoutes() }

func (s *seam) PlanReplicas(key string) []string { return s.inner.PlanReplicas(key) }

// netKV decorates core.Network.KV (the resilient KV of a social
// deployment), so Publish and ReadPost time can be split into the core /
// privacy share and the storage share beneath it. It also records the size
// of the last stored post record.
type netKV struct {
	inner       overlay.KV
	tr          *tracer
	store, look int32
	lastStored  int // size of the last stored record
}

func newNetKV(inner overlay.KV, tr *tracer) *netKV {
	return &netKV{inner: inner, tr: tr, store: tr.name("resilience.Store"), look: tr.name("resilience.Lookup")}
}

func (k *netKV) Name() string { return k.inner.Name() }

func (k *netKV) Store(origin, key string, value []byte) (overlay.OpStats, error) {
	i := k.tr.begin(k.store)
	st, err := k.inner.Store(origin, key, value)
	k.tr.end(i)
	k.lastStored = len(value)
	return st, err
}

func (k *netKV) Lookup(origin, key string) ([]byte, overlay.OpStats, error) {
	i := k.tr.begin(k.look)
	v, st, err := k.inner.Lookup(origin, key)
	k.tr.end(i)
	return v, st, err
}

// tracedVerify wraps an integrity check so each call is a span.
func tracedVerify(tr *tracer, f resilience.VerifyFunc) resilience.VerifyFunc {
	if tr == nil {
		return f
	}
	name := tr.name("verify")
	return func(key string, value []byte) error {
		i := tr.begin(name)
		err := f(key, value)
		tr.end(i)
		return err
	}
}

// span is one recorded interval. Times are nanoseconds since the tracer's
// origin; alloc is the heap bytes allocated during the span (DHT seams
// only, read from runtime/metrics).
type span struct {
	name, parent, op int32
	start, end       int64
	alloc            uint64
}

// tracer records spans in memory for one traced run. The client is a single
// goroutine and replica fan-out and scrub run with one worker, so spans
// nest strictly and a stack gives each span its parent. Spans opened with
// an empty stack are client operations; each gets a new op id shared by
// every span beneath it.
type tracer struct {
	origin time.Time
	names  []string
	byName map[string]int32
	spans  []span
	stack  []int32
	ops    int32
	sample [1]metrics.Sample
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now(), byName: map[string]int32{}}
	t.sample[0].Name = "/gc/heap/allocs:bytes"
	return t
}

// name interns a span name.
func (t *tracer) name(n string) int32 {
	if t == nil {
		return -1
	}
	if i, ok := t.byName[n]; ok {
		return i
	}
	t.names = append(t.names, n)
	t.byName[n] = int32(len(t.names) - 1)
	return int32(len(t.names) - 1)
}

// begin opens a span; a negative name opens none.
func (t *tracer) begin(name int32) int32 {
	if t == nil || name < 0 {
		return -1
	}
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	} else {
		t.ops++
	}
	t.spans = append(t.spans, span{name: name, parent: parent, op: t.ops, start: int64(time.Since(t.origin))})
	i := int32(len(t.spans) - 1)
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.origin))
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.sample[:])
	return t.sample[0].Value.Uint64()
}

func (t *tracer) beginAlloc(name int32) int32 {
	a := t.heapAllocs()
	i := t.begin(name)
	t.spans[i].alloc = a
	return i
}

func (t *tracer) endAlloc(i int32) {
	t.end(i)
	t.spans[i].alloc = t.heapAllocs() - t.spans[i].alloc
}
