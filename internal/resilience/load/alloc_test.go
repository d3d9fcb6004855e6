// The race detector instruments allocations, so allocation counts are only
// exact without it.

//go:build !race

package load

import (
	"testing"
	"time"

	"godosn/internal/telemetry"
)

// TestObserveAllocs pins Observe, which runs on every replica fetch, at
// zero allocations with telemetry on: the node's score gauge is resolved
// once, at its first observation, not looked up by a freshly built name
// on every call (which cost 1 allocation per call).
func TestObserveAllocs(t *testing.T) {
	h := NewHealth(DefaultTrackerConfig())
	h.SetTelemetry(telemetry.NewRegistry())
	h.Observe("node-1", time.Millisecond, OutcomeOK)
	if got := testing.AllocsPerRun(100, func() {
		h.Observe("node-1", 12*time.Millisecond, OutcomeOK)
	}); got != 0 {
		t.Errorf("Observe with telemetry on: %.1f allocs/op, want 0", got)
	}
}
