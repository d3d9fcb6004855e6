package load

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"godosn/internal/telemetry"
)

// The circuit constants and the ranking prior: every deployment runs these
// values, so they are fixed rather than configured.
const (
	// Threshold consecutive failures open a node's circuit.
	Threshold = 3
	// Cooldown is how many Allow calls an open circuit refuses before it
	// admits one half-open probe; a failed probe re-opens it.
	Cooldown = 8
	// BaseLatency is an unseen node's latency estimate, so never-tried
	// nodes compete on equal terms with proven-fast ones.
	BaseLatency = 10 * time.Millisecond
)

const baseMS = float64(BaseLatency) / float64(time.Millisecond)

// Outcome classifies one replica fetch for Health.Observe.
type Outcome int

// Observation outcomes.
const (
	OutcomeOK      Outcome = iota // served: a value or an honest not-found
	OutcomeError                  // delivery failure
	OutcomeShed                   // overload refusal: a plain circuit failure, never a taint
	OutcomeCorrupt                // failed verification: a failure that taints (an error to the ranking)
)

// TrackerConfig parameterizes the ranking view of Health. The zero value
// turns ranking off: replicas keep canonical order.
type TrackerConfig struct {
	// Alpha in (0, 1] is the EWMA weight of the newest observation;
	// <= 0 turns ranking off.
	Alpha float64
	// ErrorPenalty and ShedPenalty scale how strongly the failure and shed
	// EWMAs inflate a node's latency into its score (0: rank on latency
	// alone; DefaultTrackerConfig backs away from a node that says "stop"
	// harder than from one that merely drops).
	ErrorPenalty, ShedPenalty float64
	// HalfLife rehabilitates idle nodes: each Tick decays the failure and
	// shed EWMAs, and the latency EWMA's distance to BaseLatency, by
	// 0.5^(1/HalfLife) — without it a shedding replica ranked last is
	// starved of the observations that would clear it. <= 0: no decay.
	HalfLife int
}

// DefaultTrackerConfig returns the standard ranking parameters: Alpha 0.3,
// penalties 4 (error) and 8 (shed), and a 50-tick half-life.
func DefaultTrackerConfig() TrackerConfig {
	return TrackerConfig{Alpha: 0.3, ErrorPenalty: 4, ShedPenalty: 8, HalfLife: 50}
}

// record is one node's health.
type record struct {
	fails         int  // circuit: consecutive failures
	open, tainted bool // circuit open; a failure was a corruption verdict
	skips         int  // circuit: Allow refusals left before a probe

	observed                      bool    // ranking: fed by Observe at least once
	latencyMS, failRate, shedRate float64 // ranking: EWMAs

	gauge *telemetry.Gauge // load_health_score_<node>, resolved on first use
}

// Health is the resilience layer's per-node health record: one map, one
// lock, two views. The circuit view opens a node's circuit after Threshold
// consecutive failures, refuses it Cooldown times, then lets one probe
// decide; a corruption verdict taints the node, and an open tainted node is
// quarantined — excluded from replica placement. The ranking view scores
// nodes by EWMAs of latency, error and shed rate and orders replicas
// healthiest-first (ties keep input order). Observe feeds both views; the
// scrubber's verdicts (Report, ReportCorrupt) feed the circuit alone.
// Decisions are pure functions of the call sequence. Safe for concurrent
// use.
type Health struct {
	cfg   TrackerConfig
	rank  bool    // ranking view on (Alpha > 0)
	decay float64 // per-tick factor 0.5^(1/HalfLife); 1 = none

	mu         sync.Mutex
	nodes      map[string]*record
	quarantine func(node string) // SetQuarantineHook
	events     *telemetry.Log
	reg        *telemetry.Registry // score gauges, with ranking on
	obs        *telemetry.Counter
}

// NewHealth builds a health record; Alpha <= 0 leaves the ranking view off
// (canonical order, no-op Tick, nil Snapshot).
func NewHealth(cfg TrackerConfig) *Health {
	decay := 1.0
	if cfg.HalfLife > 0 {
		decay = math.Pow(0.5, 1/float64(cfg.HalfLife))
	}
	return &Health{cfg: cfg, rank: cfg.Alpha > 0, decay: decay, nodes: make(map[string]*record)}
}

// SetQuarantineHook installs fn, called outside the lock each time a node
// enters quarantine (the KV drops cached values and routes).
func (h *Health) SetQuarantineHook(fn func(node string)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.quarantine = fn
}

// SetTelemetry routes breaker.open/close/quarantine events to reg's log
// and, with ranking on, mirrors scores into load_health_score_<node>
// gauges plus a load_observations_total counter. nil detaches.
func (h *Health) SetTelemetry(reg *telemetry.Registry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.events, h.reg, h.obs = nil, nil, nil
	for _, r := range h.nodes {
		r.gauge = nil // resolved again in the new registry
	}
	if reg != nil {
		h.events = reg.Events()
		if h.rank {
			h.reg, h.obs = reg, reg.Counter("load_observations_total")
		}
	}
}

// Observe folds one replica fetch into both views under one lock.
func (h *Health) Observe(node string, latency time.Duration, o Outcome) {
	h.apply(node, o, latency, h.rank)
}

// Report records a circuit verdict: success closes the circuit and clears
// the failure count and taint; failure counts toward Threshold. The
// ranking view is untouched.
func (h *Health) Report(node string, ok bool) {
	o := OutcomeError
	if ok {
		o = OutcomeOK
	}
	h.apply(node, o, 0, false)
}

// ReportCorrupt records a corruption verdict: a failure that taints the
// node, so its open circuit quarantines it until a successful probe. Plain
// failures never taint: lossy-but-honest nodes are routed around but keep
// receiving copies. The ranking view is untouched.
func (h *Health) ReportCorrupt(node string) { h.apply(node, OutcomeCorrupt, 0, false) }

// apply updates node's circuit with o, and its EWMAs when observe is set,
// then fires the quarantine hook if the node entered quarantine.
func (h *Health) apply(node string, o Outcome, latency time.Duration, observe bool) {
	h.mu.Lock()
	r := h.nodes[node]
	if r == nil {
		r = &record{latencyMS: baseMS}
		h.nodes[node] = r
	}
	entered := false
	switch {
	case o == OutcomeOK:
		if r.open {
			h.events.Emit("breaker.close", telemetry.A("node", node))
		}
		r.fails, r.open, r.skips, r.tainted = 0, false, 0, false
	case o == OutcomeCorrupt && !r.tainted && r.open:
		// Already open for loss: the verdict upgrades it to quarantine
		// without a fresh open transition.
		h.events.Emit("breaker.quarantine", telemetry.A("node", node))
		entered = true
	}
	if o != OutcomeOK {
		r.tainted = r.tainted || o == OutcomeCorrupt
		r.fails++
		if r.fails >= Threshold {
			if !r.open {
				h.events.Emit("breaker.open", telemetry.A("node", node))
				if r.tainted {
					h.events.Emit("breaker.quarantine", telemetry.A("node", node))
					entered = true
				}
			}
			r.open, r.skips = true, Cooldown
		}
	}
	if observe {
		a, fail, shed := h.cfg.Alpha, 0.0, 0.0
		switch o {
		case OutcomeError, OutcomeCorrupt:
			fail = 1
		case OutcomeShed:
			shed = 1 // an immediate refusal: no latency sample
		}
		if o != OutcomeShed {
			r.latencyMS = (1-a)*r.latencyMS + a*float64(latency)/float64(time.Millisecond)
		}
		r.failRate = (1-a)*r.failRate + a*fail
		r.shedRate = (1-a)*r.shedRate + a*shed
		r.observed = true
		if h.obs != nil {
			h.obs.Inc()
			h.scoreGauge(node, r).Set(h.score(r))
		}
	}
	hook := h.quarantine
	h.mu.Unlock()
	if entered && hook != nil {
		hook(node)
	}
}

// Allow reports whether the node should be tried: an open circuit refuses
// Cooldown calls, then admits one half-open probe.
func (h *Health) Allow(node string) bool {
	_, skips := h.Pick([]string{node})
	return skips == 0
}

// Pick chooses the replicas a read tries, in order, and counts the open
// circuits that refused one. Circuits are consulted in input order (each
// refusal spends a cooldown skip); if every name is refused all are kept;
// the kept names are then ranked. The input is never mutated.
func (h *Health) Pick(names []string) (ranked []string, skips int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ranked = make([]string, 0, len(names))
	for _, name := range names {
		if r := h.nodes[name]; r != nil && r.open && r.skips > 0 {
			r.skips--
			skips++
		} else {
			ranked = append(ranked, name)
		}
	}
	if len(ranked) == 0 {
		ranked = append(ranked, names...)
	}
	h.sortLocked(ranked)
	return ranked, skips
}

// Rank orders replicas healthiest-first by ascending score, stably, so
// nodes the ranking cannot tell apart keep the overlay's preference order;
// with ranking off it returns names as given. The input is never mutated.
func (h *Health) Rank(names []string) []string {
	if !h.rank || len(names) < 2 {
		return names
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := slices.Clone(names)
	h.sortLocked(out)
	return out
}

// sortLocked stable-sorts names in place by ascending score; a no-op with
// ranking off.
func (h *Health) sortLocked(names []string) {
	if h.rank {
		slices.SortStableFunc(names, func(a, b string) int {
			return cmp.Compare(h.score(h.nodes[a]), h.score(h.nodes[b]))
		})
	}
}

// score is a node's latency EWMA inflated by its failure and shed EWMAs
// (BaseLatency for an unknown node); lower is healthier.
func (h *Health) score(r *record) float64 {
	if r == nil {
		return baseMS
	}
	return r.latencyMS * (1 + h.cfg.ErrorPenalty*r.failRate + h.cfg.ShedPenalty*r.shedRate)
}

// Tick applies one step of HalfLife decay to every observed node, so
// demotion is always temporary; each node's update is independent of the
// others, so map order is harmless. A no-op with ranking off or without a
// half-life.
func (h *Health) Tick() {
	if !h.rank || h.decay >= 1 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for name, r := range h.nodes {
		if !r.observed {
			continue
		}
		r.failRate *= h.decay
		r.shedRate *= h.decay
		r.latencyMS = baseMS + (r.latencyMS-baseMS)*h.decay
		if h.obs != nil {
			h.scoreGauge(name, r).Set(h.score(r))
		}
	}
}

// scoreGauge returns node's score gauge, looking it up in the registry
// only the first time; call with h.mu held and telemetry attached.
func (h *Health) scoreGauge(node string, r *record) *telemetry.Gauge {
	if r.gauge == nil {
		r.gauge = h.reg.Gauge("load_health_score_" + node)
	}
	return r.gauge
}

// NodeScore is one node's ranking state: its score (lower = healthier)
// and the latency (ms), error-rate and shed-rate EWMAs behind it.
type NodeScore struct {
	Node                                 string
	Score, LatencyMS, FailRate, ShedRate float64
}

// Snapshot returns every observed node's ranking state sorted by name; nil
// with ranking off.
func (h *Health) Snapshot() []NodeScore {
	if !h.rank {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]NodeScore, 0, len(h.nodes))
	for name, r := range h.nodes {
		if r.observed {
			out = append(out, NodeScore{name, h.score(r), r.latencyMS, r.failRate, r.shedRate})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Open reports whether the node's circuit is open.
func (h *Health) Open(node string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := h.nodes[node]
	return r != nil && r.open
}

// Quarantined reports whether the node is excluded from replica placement:
// circuit-open and corruption-tainted.
func (h *Health) Quarantined(node string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := h.nodes[node]
	return r != nil && r.open && r.tainted
}

// QuarantinedNodes lists the quarantined nodes, sorted.
func (h *Health) QuarantinedNodes() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for name, r := range h.nodes {
		if r.open && r.tainted {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Reset forgets every node.
func (h *Health) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nodes = make(map[string]*record)
}
