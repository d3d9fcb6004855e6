// Package load supplies the overload-robustness and node-health primitives
// of the resilience layer: a deterministic token-bucket admission gate
// (client-side rate limiting with a bounded queue, gate in this file) and
// the per-node health record (Health, health.go) — one record per replica
// node with a circuit view (consecutive failures open a circuit, corruption
// verdicts quarantine) and a ranking view (EWMAs of latency, error and shed
// rate order replicas healthiest-first).
//
// The paper's availability argument assumes replicas can absorb the traffic
// directed at them; a flash crowd on a celebrity profile breaks that
// assumption without taking any node offline. This package makes overload a
// managed condition instead of an emergent collapse: the gate sheds excess
// client load early and explicitly (ErrShed, classified as FaultOverload by
// the resilience layer), and the health record steers hedged reads away
// from down, corrupting or overloaded replicas — the destination-selection
// idea of sshproxy's HostChecker, fed from the framework's own per-fetch
// observations instead of out-of-band probes.
//
// Determinism contract: nothing here reads a wall clock or draws
// randomness. The gate advances on explicit Tick calls (the experiment's
// simulated clock); queue delays are a pure function of arrival order;
// circuit states and EWMA scores are pure functions of the observation
// sequence; ranking breaks ties by input order, so two runs with the same
// seeds produce byte-identical selection decisions at any worker count.
package load

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"godosn/internal/telemetry"
)

// ErrShed reports that the admission gate refused an operation because its
// token bucket was empty and its queue full: the client is offering more
// load than it is configured to put on the network. Shedding locally is
// deliberate — it is cheaper than adding one more request to an overloaded
// replica's queue and failing slower.
var ErrShed = errors.New("load: admission queue full, operation shed")

// GateConfig parameterizes the client-side admission gate.
type GateConfig struct {
	// PerTick is the number of tokens added per Tick — the steady-state
	// operation budget per simulated time step (<= 0 disables the gate:
	// Admit always passes free).
	PerTick int
	// Burst caps accumulated tokens (< PerTick treated as PerTick): how far
	// an idle client may run ahead of its steady-state budget.
	Burst int
	// QueueDepth is the number of operations absorbed when the bucket is
	// empty; each is admitted with a queueing delay of its position times
	// WaitPerSlot, and consumes a token from a future tick. Beyond it,
	// Admit sheds with ErrShed.
	QueueDepth int
	// WaitPerSlot is the simulated delay charged per queue position.
	WaitPerSlot time.Duration
}

// Gate is a deterministic token-bucket admission controller. It is safe for
// concurrent use; determinism under concurrency holds because token
// consumption commutes — only arrival *order* assigns queue delays, and
// deterministic experiments drive operations in a fixed order.
type Gate struct {
	cfg GateConfig

	mu     sync.Mutex
	tokens int // may go negative: queued ops borrow from future ticks
	sheds  *telemetry.Counter
	queued *telemetry.Counter
	wait   *telemetry.Histogram
}

// NewGate builds a gate; a nil gate (or PerTick <= 0) admits everything.
func NewGate(cfg GateConfig) *Gate {
	if cfg.PerTick <= 0 {
		return nil
	}
	if cfg.Burst < cfg.PerTick {
		cfg.Burst = cfg.PerTick
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	return &Gate{cfg: cfg, tokens: cfg.Burst}
}

// SetTelemetry mirrors the gate's shed/queue accounting into reg (nil
// detaches). Nil-safe.
func (g *Gate) SetTelemetry(reg *telemetry.Registry) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if reg == nil {
		g.sheds, g.queued, g.wait = nil, nil, nil
		return
	}
	g.sheds = reg.Counter("load_gate_sheds_total")
	g.queued = reg.Counter("load_gate_queued_total")
	g.wait = reg.Histogram("load_gate_wait_ms", "ms", telemetry.LatencyBuckets())
}

// Tick advances the simulated clock one step: PerTick tokens are added,
// capped at Burst. Nil-safe.
func (g *Gate) Tick() {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tokens += g.cfg.PerTick
	if g.tokens > g.cfg.Burst {
		g.tokens = g.cfg.Burst
	}
}

// Admit asks to start one operation. A token admits it immediately; an
// empty bucket admits it with a queueing delay (charged to the operation's
// simulated latency by the caller) while queue slots remain; otherwise the
// operation is shed with ErrShed. Nil-safe: a nil gate admits free.
func (g *Gate) Admit() (time.Duration, error) {
	if g == nil {
		return 0, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.tokens > 0 {
		g.tokens--
		return 0, nil
	}
	qpos := -g.tokens + 1
	if qpos > g.cfg.QueueDepth {
		if g.sheds != nil {
			g.sheds.Inc()
		}
		return 0, fmt.Errorf("%w: queue depth %d", ErrShed, g.cfg.QueueDepth)
	}
	g.tokens-- // borrow a future token; Tick repays it
	delay := time.Duration(qpos) * g.cfg.WaitPerSlot
	if g.queued != nil {
		g.queued.Inc()
		g.wait.ObserveDuration(delay)
	}
	return delay, nil
}

// Tokens reports the current token balance (negative = queued borrowings);
// 0 for a nil gate.
func (g *Gate) Tokens() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.tokens
}
