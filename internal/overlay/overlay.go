// Package overlay defines the common contract implemented by the DOSN
// overlay organizations of the paper's Section II-B: structured (DHT),
// unstructured (gossip/flooding), semi-structured (super-peers), hybrid, and
// server federation.
//
// Each implementation lives in a subpackage and runs on
// internal/overlay/simnet. Experiments E6/E7 (DESIGN.md) drive them through
// this interface to compare lookup cost and availability under churn.
package overlay

import (
	"errors"
	"time"
)

// Errors shared by overlay implementations.
var (
	ErrNotFound    = errors.New("overlay: key not found")
	ErrUnavailable = errors.New("overlay: no replica reachable")
	ErrNoNodes     = errors.New("overlay: overlay has no nodes")
	// ErrUnknownOrigin reports an operation originating at a node that is
	// not part of the overlay — a permanent caller error, never retryable.
	ErrUnknownOrigin = errors.New("overlay: origin not in overlay")
)

// OpStats reports the cost of one overlay operation.
type OpStats struct {
	// Hops is the number of RPC edges traversed.
	Hops int
	// Messages is the number of simulated messages exchanged.
	Messages int
	// Bytes is the simulated traffic volume.
	Bytes int
	// Latency is the simulated end-to-end delay.
	Latency time.Duration
}

// Add accumulates another operation's costs into s.
func (s *OpStats) Add(other OpStats) {
	s.Hops += other.Hops
	s.Messages += other.Messages
	s.Bytes += other.Bytes
	s.Latency += other.Latency
}

// KV is the storage interface every overlay provides: store a value under a
// key from the perspective of an originating node, and look it up again.
type KV interface {
	// Name identifies the overlay organization (for experiment output).
	Name() string
	// Store places the value in the overlay, originating at node origin.
	Store(origin string, key string, value []byte) (OpStats, error)
	// Lookup resolves the key, originating at node origin.
	Lookup(origin string, key string) ([]byte, OpStats, error)
}

// ReplicaKV is implemented by overlays that can enumerate and individually
// address a key's replica set. The resilience layer uses it for hedged
// reads: resolve the candidates once, then race fetches against several of
// them instead of walking the set serially.
type ReplicaKV interface {
	KV
	// ReplicasFor resolves the node names expected to hold key, in
	// preference order, favoring currently-reachable candidates. The stats
	// charge the routing cost of the resolution.
	ReplicasFor(origin string, key string) ([]string, OpStats, error)
	// LookupFrom fetches key directly from one named replica.
	LookupFrom(origin string, key string, replica string) ([]byte, OpStats, error)
}

// HealReport summarizes one anti-entropy repair pass.
type HealReport struct {
	// KeysScanned is the number of distinct keys examined.
	KeysScanned int
	// Repaired is the number of replica copies re-created.
	Repaired int
	// Unrepairable is the number of keys still under-replicated after the
	// pass (e.g. the re-replication push itself was dropped).
	Unrepairable int
	// Stats is the network cost of the pass.
	Stats OpStats
}

// Healer is implemented by overlays that can repair under-replicated keys
// after churn (DHT anti-entropy re-replication).
type Healer interface {
	// Heal runs one repair pass and reports what it did.
	Heal() (HealReport, error)
}

// Ticker is implemented by every layer that advances per-tick state on the
// shared experiment tick clock: DHT server-side admission gates, the
// resilience decorator's client gate and health-ranking decay, and
// the windowed telemetry collector. A driver (the scenario runtime, a
// bench loop) advances the simnet clock with TickCapacity and ticks each
// registered Ticker once per step, so "a tick" means the same instant at
// every layer — the property windowed time-series and guilty-window
// localization depend on.
type Ticker interface {
	// Tick advances one tick window.
	Tick()
}
