package resilience

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	cachepkg "godosn/internal/cache"
	"godosn/internal/overlay"
	"godosn/internal/resilience/load"
	"godosn/internal/telemetry"
)

// ErrNoHealer reports that the wrapped overlay has no self-healing pass.
var ErrNoHealer = errors.New("resilience: overlay does not support healing")

// VerifyFunc checks bytes read for a key against an integrity discipline
// (checksummed record, signed chain). A non-nil return condemns the read:
// the KV treats it as a FaultCorruption and never surfaces the bytes.
type VerifyFunc func(key string, value []byte) error

// Config parameterizes the resilient KV decorator.
type Config struct {
	// Policy is the retry policy for Store and Lookup.
	Policy Policy
	// Hedge is the number of additional replicas raced when the primary
	// read fails or misses (0 disables hedged reads). Only effective when
	// the wrapped overlay implements overlay.ReplicaKV.
	Hedge int
	// Seed drives retry jitter deterministically.
	Seed int64
	// Verify, when set, is applied to every value read before it is
	// returned: reads that fail verification are rejected (detect-or-fail,
	// never silent), count as breaker failures against the serving replica,
	// and are retried against other replicas when the overlay can address
	// them.
	Verify VerifyFunc
	// Quarantine excludes nodes with open circuits from future replica
	// placement, when the wrapped overlay supports placement filtering
	// (overlay.PlacementFilterable). Persistently corrupting nodes are
	// thereby both skipped on reads and starved of new copies.
	Quarantine bool
	// ReadRepair, when set, pushes the verified value a lookup elected
	// over any replica that served a corrupt copy during the same lookup
	// (requires the overlay to implement overlay.RepairKV). Off by
	// default: it adds write traffic to the read path, and the scrubber
	// already repairs corruption out of band.
	ReadRepair bool
	// Cache configures the verified-value cache (cache.go): repeat lookups
	// of a key are served from memory without re-fetching or re-verifying.
	// The zero value (Capacity 0) disables it, preserving the exact RPC
	// and seeded-RNG sequence of an uncached KV. Coherence: Store
	// invalidates the key, a breaker quarantine bumps the whole cache (and
	// the overlay's route cache), and the scrubber invalidates keys it
	// found divergent or condemned via SetInvalidator — a cached value
	// never outlives a condemnation of its holder group.
	Cache cachepkg.Config
	// Health configures the ranking view of the per-node health record
	// (load.Health), whose circuit view is always on: every per-replica
	// fetch feeds one observation (latency; served, errored, corrupt, or
	// shed), and hedged reads rank their candidates healthiest-first
	// instead of canonical order — so a flash-crowded or flaky replica is
	// tried last while its siblings have spare capacity. When the overlay
	// supports it (overlay.ReplicaRankable) the same ranking is installed
	// as the overlay's replica-selection hook. The zero value (Alpha 0)
	// disables ranking entirely, preserving the exact replica order of an
	// unranked KV.
	Health load.TrackerConfig
	// Admission configures the client-side token-bucket gate (load.Gate):
	// operations beyond the per-tick budget are queued (their wait charged
	// to simulated latency) and, beyond the queue, shed locally with
	// load.ErrShed before a single message is sent — backpressure at the
	// source instead of one more request on an overloaded replica's queue.
	// Drive the bucket with KV.Tick. The zero value (PerTick 0) disables
	// admission control.
	Admission load.GateConfig
}

// DefaultConfig hedges across 2 extra replicas with the default retry
// policy and breaker, and quarantines circuit-open nodes from placement.
func DefaultConfig(seed int64) Config {
	return Config{Policy: DefaultPolicy(), Hedge: 2, Seed: seed, Quarantine: true}
}

// Metrics counts what the resilience layer did — the measurable overhead
// of recovery, reported by experiment E17.
type Metrics struct {
	// Ops is the number of Store/Lookup calls served.
	Ops int
	// Attempts is the total tries across all operations.
	Attempts int
	// Retries is Attempts minus first tries.
	Retries int
	// Hedges is the number of hedged replica reads issued.
	Hedges int
	// BreakerSkips counts replicas skipped because their circuit was open.
	BreakerSkips int
	// CorruptReads counts replica reads whose bytes failed verification —
	// every one was detected and rejected, never returned to the caller.
	CorruptReads int
	// ClientSheds counts operations refused by the client-side admission
	// gate (Config.Admission) before any message was sent.
	ClientSheds int
	// AdmissionWait is the total queueing delay the admission gate charged
	// to operations it absorbed over budget.
	AdmissionWait time.Duration
	// ReadRepairs counts verified values pushed over corrupt copies during
	// lookups (Config.ReadRepair).
	ReadRepairs int
	// Batches counts PutBatch/GetBatch calls served (each charged one
	// admission slot regardless of key count).
	Batches int
	// BatchKeys is the total keys carried by those batches.
	BatchKeys int
	// BatchFallbacks counts keys a batch rescued through the single-key
	// resilient path after a per-key batch fault (corrupt bytes, unreachable
	// group) — the measurable cost of per-key fault isolation.
	BatchFallbacks int
	// Failures is the number of operations that still failed.
	Failures int
	// Backoff is the total simulated retry delay charged to operations.
	Backoff time.Duration
}

// KV decorates an overlay.KV with typed-fault retries, hedged replica
// reads, and a per-node circuit breaker. All recovery costs (extra
// messages, backoff delay) are charged to the returned OpStats so
// experiments compare availability and cost honestly. It is safe for
// concurrent use when the wrapped overlay is.
type KV struct {
	inner     overlay.KV
	batch     overlay.BatchKV   // nil when inner cannot serve batches
	replicas  overlay.ReplicaKV // nil when inner cannot address replicas
	healer    overlay.Healer    // nil when inner cannot self-heal
	repair    overlay.RepairKV  // nil when inner cannot write per-replica
	spanInner overlay.SpanKV    // nil when inner cannot attribute spans
	cfg       Config
	health    *load.Health            // per-node circuit and ranking
	rng       *rand.Rand              // jitter source; safe via lockedSource
	values    *cachepkg.Cache[[]byte] // verified-value cache (cache.go); nil = uncached
	gate      *load.Gate              // client-side admission; nil = admit everything

	mu      sync.Mutex
	metrics Metrics
	tel     *kvTelemetry // nil until SetTelemetry
}

var (
	_ overlay.KV     = (*KV)(nil)
	_ overlay.SpanKV = (*KV)(nil)
)

// kvTelemetry holds the decorator's resolved registry instruments. The
// Metrics struct stays the source of truth (old field names keep working);
// these counters mirror it so one registry snapshot carries the whole
// system's accounting.
type kvTelemetry struct {
	ops          *telemetry.Counter
	attempts     *telemetry.Counter
	retries      *telemetry.Counter
	hedges       *telemetry.Counter
	breakerSkips *telemetry.Counter
	corruptReads *telemetry.Counter
	readRepairs  *telemetry.Counter
	clientSheds  *telemetry.Counter
	failures     *telemetry.Counter
	batches      *telemetry.Counter
	batchKeys    *telemetry.Counter
	batchFalls   *telemetry.Counter
	backoff      *telemetry.Histogram
}

// SetTelemetry mirrors the recovery counters into reg and routes breaker
// open/close/quarantine transitions to reg's event log.
func (k *KV) SetTelemetry(reg *telemetry.Registry) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if reg == nil {
		k.tel = nil
		k.values.SetTelemetry(nil, "resilience_value_cache")
		k.health.SetTelemetry(nil)
		k.gate.SetTelemetry(nil)
		return
	}
	k.values.SetTelemetry(reg, "resilience_value_cache")
	k.health.SetTelemetry(reg)
	k.gate.SetTelemetry(reg)
	k.tel = &kvTelemetry{
		ops:          reg.Counter("resilience_ops_total"),
		attempts:     reg.Counter("resilience_attempts_total"),
		retries:      reg.Counter("resilience_retries_total"),
		hedges:       reg.Counter("resilience_hedges_total"),
		breakerSkips: reg.Counter("resilience_breaker_skips_total"),
		corruptReads: reg.Counter("resilience_corrupt_reads_total"),
		readRepairs:  reg.Counter("resilience_read_repairs_total"),
		clientSheds:  reg.Counter("resilience_client_sheds_total"),
		failures:     reg.Counter("resilience_failures_total"),
		batches:      reg.Counter("resilience_batches_total"),
		batchKeys:    reg.Counter("resilience_batch_keys_total"),
		batchFalls:   reg.Counter("resilience_batch_fallbacks_total"),
		backoff:      reg.Histogram("resilience_backoff_ms", "ms", telemetry.LatencyBuckets()),
	}
}

// lockedSource makes the jitter RNG safe for concurrent operations.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source64
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}

// Wrap builds the resilient decorator around an overlay. Hedged reads and
// healing activate automatically when the overlay implements
// overlay.ReplicaKV / overlay.Healer.
func Wrap(inner overlay.KV, cfg Config) *KV {
	if cfg.Policy.MaxAttempts < 1 {
		cfg.Policy = DefaultPolicy()
	}
	k := &KV{
		inner:  inner,
		cfg:    cfg,
		health: load.NewHealth(cfg.Health),
		rng:    rand.New(&lockedSource{src: rand.NewSource(cfg.Seed).(rand.Source64)}),
		gate:   load.NewGate(cfg.Admission),
	}
	if cfg.Health.Alpha > 0 {
		if rr, ok := inner.(overlay.ReplicaRankable); ok {
			// The overlay's replica selection consults the same health
			// ranking the hedged reads feed, so fan-out and extension
			// ordering also prefer lightly-loaded replicas.
			rr.SetReplicaRanker(k.health.Rank)
		}
	}
	if b, ok := inner.(overlay.BatchKV); ok {
		k.batch = b
	}
	if r, ok := inner.(overlay.ReplicaKV); ok {
		k.replicas = r
	}
	if h, ok := inner.(overlay.Healer); ok {
		k.healer = h
	}
	if r, ok := inner.(overlay.RepairKV); ok {
		k.repair = r
	}
	if s, ok := inner.(overlay.SpanKV); ok {
		k.spanInner = s
	}
	if cfg.Quarantine {
		if pf, ok := inner.(overlay.PlacementFilterable); ok {
			// Placement consults live breaker state: a node quarantined for
			// persistent corruption stops receiving new copies until a
			// half-open probe rehabilitates it. Only corruption-tainted open
			// circuits veto placement — loss-driven ones route reads around
			// a node but never exclude it from holding data.
			pf.SetPlacementFilter(func(node string) bool { return !k.health.Quarantined(node) })
		}
	}
	k.values = cachepkg.New[[]byte](cfg.Cache)
	if k.values != nil || cfg.Quarantine {
		// A quarantine changes which copies are trustworthy and where new
		// ones land: cached verified values and memoized routes must not
		// outlive it.
		rc, _ := inner.(overlay.RouteCached)
		k.health.SetQuarantineHook(func(string) {
			k.values.BumpGeneration()
			if rc != nil {
				rc.InvalidateRoutes()
			}
		})
	}
	return k
}

// Name implements overlay.KV.
func (k *KV) Name() string { return k.inner.Name() + "+resilient" }

// Tick advances the decorator's simulated clock one step: the admission
// gate refills its token budget and the health ranking decays idle scores
// toward baseline (each a no-op when its feature is unconfigured).
// Experiments drive it from the same loop that ticks simnet fault schedules
// and capacity windows.
func (k *KV) Tick() {
	k.gate.Tick()
	k.health.Tick()
}

// The decorator participates in the shared tick clock (overlay.Ticker), so
// tick-driven drivers can advance every layer uniformly.
var _ overlay.Ticker = (*KV)(nil)

// HealthSnapshot returns the health ranking's per-node scores, sorted by
// node (nil without Config.Health).
func (k *KV) HealthSnapshot() []load.NodeScore { return k.health.Snapshot() }

// admitOp applies the client-side admission gate to one network-bound
// operation. An over-budget operation absorbed by the queue is charged its
// wait as simulated latency (an "admission" child span makes the phase
// visible in traces); beyond the queue it is shed before any message is
// sent, and the shed is the operation's outcome — FaultOverload, counted
// as a failure and a ClientShed.
func (k *KV) admitOp(sp *telemetry.Span, total *overlay.OpStats) error {
	wait, err := k.gate.Admit()
	if err != nil {
		k.mu.Lock()
		k.metrics.Ops++
		k.metrics.Failures++
		k.metrics.ClientSheds++
		if t := k.tel; t != nil {
			t.ops.Inc()
			t.failures.Inc()
			t.clientSheds.Inc()
		}
		k.mu.Unlock()
		asp := sp.Child("admission")
		asp.End("overload")
		return err
	}
	if wait > 0 {
		total.Latency += wait
		k.mu.Lock()
		k.metrics.AdmissionWait += wait
		k.mu.Unlock()
		asp := sp.Child("admission")
		asp.AddLatency(wait)
		asp.End("queued")
	}
	return nil
}

// Inner returns the wrapped overlay.
func (k *KV) Inner() overlay.KV { return k.inner }

// Breaker exposes the per-node health record (circuit and ranking views).
func (k *KV) Breaker() *load.Health { return k.health }

// Metrics returns a snapshot of the recovery counters.
func (k *KV) Metrics() Metrics {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.metrics
}

// ResetMetrics zeroes the recovery counters (between experiment phases).
func (k *KV) ResetMetrics() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.metrics = Metrics{}
}

// record merges one operation's accounting into the metrics and mirrors it
// into the registry when telemetry is wired.
func (k *KV) record(out Outcome, hedges, skips int, failed bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.metrics.Ops++
	k.metrics.Attempts += out.Attempts
	k.metrics.Retries += out.Attempts - 1
	k.metrics.Hedges += hedges
	k.metrics.BreakerSkips += skips
	if failed {
		k.metrics.Failures++
	}
	k.metrics.Backoff += out.Backoff
	if t := k.tel; t != nil {
		t.ops.Inc()
		t.attempts.Add(int64(out.Attempts))
		t.retries.Add(int64(out.Attempts - 1))
		t.hedges.Add(int64(hedges))
		t.breakerSkips.Add(int64(skips))
		if failed {
			t.failures.Inc()
		}
		if out.Backoff > 0 {
			t.backoff.Observe(float64(out.Backoff) / float64(time.Millisecond))
		}
	}
}

// outcomeOf renders an operation error as a span outcome tag, using the
// fault taxonomy for everything that is not a clean miss.
func outcomeOf(err error) string {
	if err == nil {
		return "ok"
	}
	if errors.Is(err, overlay.ErrNotFound) {
		return "miss"
	}
	return Classify(err).String()
}

// Store implements overlay.KV with retries. DHT-style stores are
// idempotent (same key, same value), so AckLost faults — the store landed
// but the ack was dropped — are retried as well; the idempotent-store
// tests prove this is safe.
func (k *KV) Store(origin, key string, value []byte) (overlay.OpStats, error) {
	return k.StoreSpan(nil, origin, key, value)
}

// StoreSpan implements overlay.SpanKV: Store with each attempt (and its
// routing/fan-out, when the overlay traces) hung off a child span of sp,
// plus a "backoff" child charging the total retry delay.
func (k *KV) StoreSpan(sp *telemetry.Span, origin, key string, value []byte) (overlay.OpStats, error) {
	sp.Tag("key", key)
	var total overlay.OpStats
	if err := k.admitOp(sp, &total); err != nil {
		return total, err
	}
	err := k.storeRetry(sp, origin, key, value, &total)
	return total, err
}

// storeRetry is the admission-free retrying store: the body of StoreSpan
// after the gate, also used by the batch pipeline's per-key fallback (a
// batch charges admission once, not once per rescued key).
func (k *KV) storeRetry(sp *telemetry.Span, origin, key string, value []byte, total *overlay.OpStats) error {
	out, err := Do(k.cfg.Policy, k.rng, true, func(n int) error {
		asp := k.attemptSpan(sp, n)
		var (
			st  overlay.OpStats
			err error
		)
		if asp != nil && k.spanInner != nil {
			st, err = k.spanInner.StoreSpan(asp, origin, key, value)
		} else {
			st, err = k.inner.Store(origin, key, value)
		}
		total.Add(st)
		asp.AddLatency(st.Latency)
		asp.End(outcomeOf(err))
		return err
	})
	total.Latency += out.Backoff
	k.backoffSpan(sp, out.Backoff)
	k.record(out, 0, 0, err != nil)
	// Keep the value cache coherent with the write — unconditionally: even
	// a failed store may have landed (ack-lost), so the cached value is
	// suspect either way. In-flight fills for the key are fenced too.
	k.values.Invalidate(key)
	return err
}

// attemptSpan opens the n-th (1-based) attempt's child span under sp.
func (k *KV) attemptSpan(sp *telemetry.Span, n int) *telemetry.Span {
	asp := sp.Child("attempt")
	asp.Tag("n", strconv.Itoa(n))
	return asp
}

// backoffSpan charges the operation's accumulated retry delay to a child
// span, so backoff shows up in the trace as its own phase.
func (k *KV) backoffSpan(sp *telemetry.Span, backoff time.Duration) {
	if sp == nil || backoff <= 0 {
		return
	}
	bsp := sp.Child("backoff")
	bsp.AddLatency(backoff)
	bsp.End("ok")
}

// Lookup implements overlay.KV: retries around either the plain overlay
// lookup or, when the overlay can address replicas, a hedged read that
// resolves the replica set once and races fetches across it, skipping
// nodes whose circuit is open. With a Verify hook configured every value is
// checked before it is surfaced: corrupt reads are rejected and retried
// against other replicas (replica-addressing overlays) or failed outright —
// never returned.
func (k *KV) Lookup(origin, key string) ([]byte, overlay.OpStats, error) {
	return k.LookupSpan(nil, origin, key)
}

// LookupSpan implements overlay.SpanKV: Lookup with every attempt, replica
// resolution, primary fetch, hedge fetch, read-repair push, and backoff
// attributed to child spans of sp (nil sp: identical untraced operation).
// With a value cache configured (Config.Cache) repeat lookups are served
// from memory — a hit or a coalesced fill charges no messages and no
// simulated latency, and a "cache" child span records how the read was
// served. Cache hits are not counted in Metrics.Ops (no attempt ran); the
// cache's own counters carry that accounting.
func (k *KV) LookupSpan(sp *telemetry.Span, origin, key string) ([]byte, overlay.OpStats, error) {
	sp.Tag("key", key)
	if k.values == nil {
		return k.lookupUncached(sp, origin, key)
	}
	var st overlay.OpStats
	v, outcome, err := k.values.Do(key, func() ([]byte, error) {
		vv, s, err := k.lookupUncached(sp, origin, key)
		st = s
		if err != nil {
			return nil, err
		}
		// The cache owns its copy: callers and inner overlays must never
		// share its backing array.
		return append([]byte(nil), vv...), nil
	})
	csp := sp.Child("cache")
	csp.End(outcome.String())
	if err != nil {
		// st is the leader's real cost; coalesced waiters charge nothing.
		return nil, st, err
	}
	return append([]byte(nil), v...), st, nil
}

// lookupUncached is the cache-free lookup path: retries around either the
// plain overlay lookup or the hedged replica read.
func (k *KV) lookupUncached(sp *telemetry.Span, origin, key string) ([]byte, overlay.OpStats, error) {
	var total overlay.OpStats
	if err := k.admitOp(sp, &total); err != nil {
		return nil, total, err
	}
	v, err := k.lookupRetry(sp, origin, key, &total)
	return v, total, err
}

// lookupRetry is the admission-free retrying (optionally hedged) lookup:
// the body of lookupUncached after the gate, also used by the batch
// pipeline's per-key fallback (a batch charges admission once, not once per
// rescued key).
func (k *KV) lookupRetry(sp *telemetry.Span, origin, key string, total *overlay.OpStats) ([]byte, error) {
	var (
		value  []byte
		hedges int
		skips  int
	)
	op := func(n int) error {
		asp := k.attemptSpan(sp, n)
		if k.replicas == nil {
			var (
				v   []byte
				st  overlay.OpStats
				err error
			)
			if asp != nil && k.spanInner != nil {
				v, st, err = k.spanInner.LookupSpan(asp, origin, key)
			} else {
				v, st, err = k.inner.Lookup(origin, key)
			}
			total.Add(st)
			asp.AddLatency(st.Latency)
			if err == nil {
				err = k.verifyValue(key, v)
			}
			asp.End(outcomeOf(err))
			if err != nil {
				return err
			}
			value = v
			return nil
		}
		v, h, s, err := k.hedgedLookup(asp, origin, key, total)
		asp.End(outcomeOf(err))
		value = v
		hedges += h
		skips += s
		return err
	}
	// Corruption is only retryable when the retry can land elsewhere: the
	// hedged path re-resolves the replica set each attempt and the breaker
	// failure recorded with the verdict steers it away from the corrupter.
	retryable := func(f Fault) bool { return Retryable(f, true) }
	if k.replicas != nil {
		retryable = func(f Fault) bool { return RetryableElsewhere(f, true) }
	}
	out, err := DoWith(k.cfg.Policy, k.rng, retryable, op)
	total.Latency += out.Backoff
	k.backoffSpan(sp, out.Backoff)
	k.record(out, hedges, skips, err != nil)
	if err != nil {
		return nil, err
	}
	return value, nil
}

// verifyValue applies the configured integrity check, wrapping failures in
// ErrCorrupt (FaultCorruption) and counting them.
func (k *KV) verifyValue(key string, value []byte) error {
	if k.cfg.Verify == nil {
		return nil
	}
	if verr := k.cfg.Verify(key, value); verr != nil {
		k.mu.Lock()
		k.metrics.CorruptReads++
		if k.tel != nil {
			k.tel.corruptReads.Inc()
		}
		k.mu.Unlock()
		return fmt.Errorf("%w: key %q: %v", ErrCorrupt, key, verr)
	}
	return nil
}

// fetchFrom reads key from one named replica and verifies the bytes,
// attributing the read to a child span of sp named spanName. The health
// record hears exactly one observation per fetch (healthOutcome).
func (k *KV) fetchFrom(sp *telemetry.Span, spanName, origin, key, name string) ([]byte, overlay.OpStats, error) {
	fsp := sp.Child(spanName)
	fsp.Tag("replica", name)
	v, st, err := k.replicas.LookupFrom(origin, key, name)
	fsp.AddLatency(st.Latency)
	if err == nil && k.cfg.Verify != nil {
		// Verification is node-local (zero simulated latency) but gets its
		// own span so corrupt reads are visible as a phase in the trace.
		vsp := fsp.Child("verify")
		err = k.verifyValue(key, v)
		if err != nil {
			vsp.End("corruption")
		} else {
			vsp.End("ok")
		}
	}
	k.health.Observe(name, st.Latency, healthOutcome(err))
	fsp.End(outcomeOf(err))
	if err != nil {
		return nil, st, err
	}
	return v, st, nil
}

// hedgedLookup performs one attempt: resolve replicas, read the primary,
// and on failure or miss race a hedge wave over the next replicas. The
// wave's reads are concurrent in simulated time: messages and bytes sum,
// latency contributes only the slowest read. With Config.ReadRepair the
// verified winner is pushed over any replica that served a corrupt copy
// during this attempt.
func (k *KV) hedgedLookup(sp *telemetry.Span, origin, key string, total *overlay.OpStats) ([]byte, int, int, error) {
	rsp := sp.Child("resolve")
	names, st, err := k.replicas.ReplicasFor(origin, key)
	total.Add(st)
	rsp.AddLatency(st.Latency)
	rsp.End(outcomeOf(err))
	if err != nil {
		return nil, 0, 0, err
	}
	// Open circuits are skipped (unless every replica is open), and the
	// healthiest replica serves as primary with the hedge wave following in
	// health order, so a flash-crowded node is tried last while its
	// siblings have spare capacity. Without Config.Health the order stays
	// canonical.
	allowed, skips := k.health.Pick(names)

	// Primary read (verified).
	v, st, err := k.fetchFrom(sp, "fetch", origin, key, allowed[0])
	total.Add(st)
	if err == nil {
		return v, 0, skips, nil
	}
	var (
		anyNotFound  = errors.Is(err, overlay.ErrNotFound)
		anyRetryable bool
		lastErr      = err
		corrupters   []string
	)
	if Classify(err) == FaultCorruption {
		corrupters = append(corrupters, allowed[0])
	}
	if RetryableElsewhere(Classify(err), true) {
		anyRetryable = true
	}

	// Hedge wave: race the next replicas in parallel (simulated), first
	// verified value in replica order wins.
	wave := allowed[1:]
	if k.cfg.Hedge >= 0 && len(wave) > k.cfg.Hedge {
		wave = wave[:k.cfg.Hedge]
	}
	var (
		found   []byte
		ok      bool
		waveLat time.Duration
	)
	for _, name := range wave {
		v, st, err := k.fetchFrom(sp, "hedge", origin, key, name)
		total.Hops += st.Hops
		total.Messages += st.Messages
		total.Bytes += st.Bytes
		if st.Latency > waveLat {
			waveLat = st.Latency
		}
		switch {
		case err == nil:
			if !ok {
				found, ok = v, true
			}
		case errors.Is(err, overlay.ErrNotFound):
			anyNotFound = true
		default:
			if Classify(err) == FaultCorruption {
				corrupters = append(corrupters, name)
			}
			if RetryableElsewhere(Classify(err), true) {
				anyRetryable = true
			}
			lastErr = err
		}
	}
	total.Latency += waveLat
	if ok {
		k.readRepair(sp, origin, key, found, corrupters, total)
		return found, len(wave), skips, nil
	}
	// No replica produced a verified value. A transient failure anywhere
	// means a copy may still be reachable on retry, and a corrupt copy
	// means an honest replica may answer next attempt (the corrupter's
	// breaker failure steers the retry away from it); only a unanimous
	// miss is a definitive not-found.
	if anyRetryable {
		return nil, len(wave), skips, fmt.Errorf("resilience: hedged read failed: %w", lastErr)
	}
	if anyNotFound {
		return nil, len(wave), skips, overlay.ErrNotFound
	}
	return nil, len(wave), skips, fmt.Errorf("resilience: hedged read failed: %w", overlay.ErrUnavailable)
}

// readRepair pushes the verified value a lookup elected over the replicas
// that served corrupt copies during the same attempt (Config.ReadRepair).
// A failed push is left for the scrubber; the lookup itself already
// succeeded.
func (k *KV) readRepair(sp *telemetry.Span, origin, key string, value []byte, corrupters []string, total *overlay.OpStats) {
	if !k.cfg.ReadRepair || k.repair == nil || len(corrupters) == 0 {
		return
	}
	for _, name := range corrupters {
		psp := sp.Child("read-repair")
		psp.Tag("to", name)
		st, err := k.repair.StoreTo(origin, key, value, name)
		total.Add(st)
		psp.AddLatency(st.Latency)
		psp.End(outcomeOf(err))
		if err == nil {
			k.mu.Lock()
			k.metrics.ReadRepairs++
			if k.tel != nil {
				k.tel.readRepairs.Inc()
			}
			k.mu.Unlock()
		}
	}
}

// healthOutcome interprets a per-replica fetch result for the health
// record: a replica that answered honestly — even with "not found" — is
// healthy; a corrupt payload taints it; an overload refusal is a shed
// (shed ≠ Byzantine and shed ≠ down: the node refused honestly and
// immediately, so it is routed around but never quarantined); anything
// else is a delivery failure.
func healthOutcome(err error) load.Outcome {
	if err == nil || errors.Is(err, overlay.ErrNotFound) {
		return load.OutcomeOK
	}
	switch Classify(err) {
	case FaultCorruption:
		return load.OutcomeCorrupt
	case FaultOverload:
		return load.OutcomeShed
	default:
		return load.OutcomeError
	}
}

// Heal runs one anti-entropy repair pass on the wrapped overlay.
func (k *KV) Heal() (overlay.HealReport, error) {
	return k.HealSpan(nil)
}

// HealSpan runs one anti-entropy repair pass with tracing attached to sp
// (nil: untraced), delegating to the overlay's span-aware pass when it has
// one.
func (k *KV) HealSpan(sp *telemetry.Span) (overlay.HealReport, error) {
	if k.healer == nil {
		return overlay.HealReport{}, ErrNoHealer
	}
	if sh, ok := k.healer.(overlay.SpanHealer); ok {
		return sh.HealSpan(sp)
	}
	return k.healer.Heal()
}

// CanHeal reports whether the wrapped overlay supports repair passes.
func (k *KV) CanHeal() bool { return k.healer != nil }

// InvalidateValue drops the cached verified value for key (no-op without a
// value cache). The scrubber calls this, via scrub.SetInvalidator, for
// every key it found divergent or condemned — a cached value must never
// outlive a condemnation of its holder group.
func (k *KV) InvalidateValue(key string) {
	k.values.Invalidate(key)
}

// InvalidateValues drops every cached verified value (no-op without a
// value cache).
func (k *KV) InvalidateValues() {
	k.values.BumpGeneration()
}

// ValueCacheStats returns the verified-value cache's counters (zero Stats
// when the cache is disabled).
func (k *KV) ValueCacheStats() cachepkg.Stats {
	return k.values.Stats()
}
