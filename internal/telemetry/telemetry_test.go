package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("ops_total") != c {
		t.Fatalf("Counter is not get-or-create")
	}
	g := r.Gauge("quarantined")
	g.Set(3)
	g.Set(2)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %g, want 2", got)
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("counter did not reset")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ms", "ms", []float64{1, 10, 100})
	h.Observe(0.5)                           // bucket le=1
	h.Observe(1)                             // bucket le=1 (inclusive)
	h.Observe(7)                             // bucket le=10
	h.Observe(1000)                          // overflow
	h.ObserveDuration(50 * time.Millisecond) // bucket le=100
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(snap.Histograms))
	}
	hv := snap.Histograms[0]
	wantCounts := []int64{2, 1, 1}
	for i, b := range hv.Buckets {
		if b.Count != wantCounts[i] {
			t.Fatalf("bucket %d (le %g) = %d, want %d", i, b.LE, b.Count, wantCounts[i])
		}
	}
	if hv.Overflow != 1 {
		t.Fatalf("overflow = %d, want 1", hv.Overflow)
	}
	if hv.Max != 1000 {
		t.Fatalf("max = %g, want 1000", hv.Max)
	}
}

func TestSnapshotSortedAndJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz").Inc()
	r.Counter("aa").Add(2)
	r.Gauge("mid").Set(1.5)
	r.Histogram("h", "ms", LatencyBuckets()).Observe(3)
	r.Events().Emit("breaker.open", A("node", "n1"))
	snap := r.Snapshot()
	if snap.Counters[0].Name != "aa" || snap.Counters[1].Name != "zz" {
		t.Fatalf("counters not sorted: %+v", snap.Counters)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back.Counters) != 2 || back.Events[0].Name != "breaker.open" {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestWriteTextDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		r.Counter("b_total").Add(2)
		r.Counter("a_total").Inc()
		r.Histogram("lat_ms", "ms", []float64{1, 10}).Observe(5)
		r.Events().Emit("scrub.repair", A("node", "n2"))
		var buf bytes.Buffer
		r.WriteText(&buf)
		return buf.String()
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("WriteText not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// The histogram text must read correctly in a Prometheus-compatible
// parser: cumulative buckets, +Inf equal to _count, and one label set
// (plus le on buckets) across every series of a histogram.
func TestWriteTextHistogramGolden(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ms", "ms", []float64{1, 10})
	for _, v := range []float64{0.5, 5, 5, 50} {
		h.Observe(v)
	}
	r.Histogram("idle_ms", "ms", []float64{1})
	var buf bytes.Buffer
	r.WriteText(&buf)
	const want = `idle_ms_count{unit="ms"} 0
idle_ms_sum{unit="ms"} 0.000
idle_ms_max{unit="ms"} 0.000
idle_ms_bucket{unit="ms",le="1"} 0
idle_ms_bucket{unit="ms",le="+Inf"} 0
lat_ms_count{unit="ms"} 4
lat_ms_sum{unit="ms"} 60.500
lat_ms_max{unit="ms"} 50.000
lat_ms_bucket{unit="ms",le="1"} 1
lat_ms_bucket{unit="ms",le="10"} 3
lat_ms_bucket{unit="ms",le="+Inf"} 4
`
	if got := buf.String(); got != want {
		t.Fatalf("WriteText:\n%s\nwant\n%s", got, want)
	}

	// The invariants, checked over the parsed lines rather than the literal.
	counts := map[string]int64{}
	last := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		series, rest, _ := strings.Cut(line, "{")
		labels, value, _ := strings.Cut(rest, "}")
		var v float64
		if _, err := fmt.Sscan(value, &v); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		name, kind, _ := strings.Cut(series, "_ms_")
		if !strings.HasPrefix(labels, `unit="ms"`) {
			t.Errorf("%q: label set differs from the histogram's", line)
		}
		switch kind {
		case "count":
			counts[name] = int64(v)
		case "bucket":
			if int64(v) < last[name] {
				t.Errorf("%q: bucket count falls below the previous bucket (not cumulative)", line)
			}
			last[name] = int64(v)
			if strings.HasSuffix(labels, `le="+Inf"`) && int64(v) != counts[name] {
				t.Errorf("%q: +Inf bucket %d != _count %d", line, int64(v), counts[name])
			}
		}
	}
}

func TestSpanTree(t *testing.T) {
	root := NewSpan("lookup")
	root.Tag("key", "k7")
	a := root.Child("attempt")
	a.Tag("n", "1")
	a.AddLatency(10 * time.Millisecond)
	h := a.Child("hedge")
	h.AddLatency(20 * time.Millisecond)
	h.End("ok")
	v := a.Child("verify")
	v.End("ok")
	a.End("ok")
	root.End("ok")

	if got := root.Total(); got != 30*time.Millisecond {
		t.Fatalf("total = %v, want 30ms", got)
	}
	lat, count := root.PhaseTotals()
	if lat["attempt"] != 10*time.Millisecond || lat["hedge"] != 20*time.Millisecond {
		t.Fatalf("phase totals wrong: %v", lat)
	}
	if count["verify"] != 1 {
		t.Fatalf("verify count = %d, want 1", count["verify"])
	}
	var buf bytes.Buffer
	root.Render(&buf)
	out := buf.String()
	for _, want := range []string{"lookup key=k7 [ok] 30ms", "attempt n=1", "hedge [ok] 20ms", "verify [ok]"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatalf("nil span Child = %v, want nil", c)
	}
	s.Tag("k", "v")
	s.AddLatency(time.Second)
	s.End("ok")
	s.Adopt(NewSpan("y"))
	if s.Total() != 0 {
		t.Fatalf("nil span Total != 0")
	}
	s.Walk(func(int, *Span) { t.Fatalf("nil span walked a node") })
}

func TestSpanAdoptOrders(t *testing.T) {
	root := NewSpan("pass")
	first, second := NewSpan("group"), NewSpan("group")
	first.Tag("i", "0")
	second.Tag("i", "1")
	root.Adopt(first)
	root.Adopt(second)
	if root.Children[0] != first || root.Children[1] != second {
		t.Fatalf("Adopt did not preserve order")
	}
}

func TestEventLogRingAndCounts(t *testing.T) {
	l := NewLog(3)
	for i := 0; i < 5; i++ {
		l.Emit("e", A("i", fmt.Sprint(i)))
	}
	l.Emit("other")
	if l.Total() != 6 {
		t.Fatalf("total = %d, want 6", l.Total())
	}
	recent := l.Recent()
	if len(recent) != 3 {
		t.Fatalf("recent = %d events, want 3", len(recent))
	}
	if recent[0].Seq != 4 || recent[2].Seq != 6 {
		t.Fatalf("ring kept wrong events: %+v", recent)
	}
	counts := l.Counts()
	if len(counts) != 2 || counts[0].Name != "e" || counts[0].Count != 5 {
		t.Fatalf("counts wrong: %+v", counts)
	}
}

func TestEventSink(t *testing.T) {
	l := NewLog(4)
	var seen []uint64
	l.SetSink(func(e Event) { seen = append(seen, e.Seq) })
	l.Emit("a")
	l.Emit("b")
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("sink saw %v, want [1 2]", seen)
	}
}

func TestNilLogEmitIsSafe(t *testing.T) {
	var l *Log
	l.Emit("nothing") // must not panic
}

// TestRegistryRaceHammer drives every registry surface from many
// goroutines at once; run under -race this is the registry's thread-safety
// proof (make ci runs the race detector).
func TestRegistryRaceHammer(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared_total").Inc()
				r.Counter(fmt.Sprintf("own_%d_total", w)).Add(2)
				r.Gauge("g").Set(float64(i))
				r.Histogram("lat_ms", "ms", LatencyBuckets()).Observe(float64(i % 50))
				r.Events().Emit("hammer", A("w", fmt.Sprint(w)))
				if i%100 == 0 {
					_ = r.Snapshot()
					var buf bytes.Buffer
					r.WriteText(&buf)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != workers*iters {
		t.Fatalf("shared counter = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("lat_ms", "ms", nil).Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
	if got := r.Events().Total(); got != workers*iters {
		t.Fatalf("events total = %d, want %d", got, workers*iters)
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(5)
	h := r.Histogram("h", "ms", []float64{1})
	h.Observe(2)
	r.Events().Emit("x")
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 || r.Events().Total() != 0 {
		t.Fatalf("reset left state: c=%d h=%d ev=%d", c.Value(), h.Count(), r.Events().Total())
	}
	snap := r.Snapshot()
	if snap.Histograms[0].Sum != 0 || snap.Histograms[0].Max != 0 {
		t.Fatalf("histogram sum/max not reset: %+v", snap.Histograms[0])
	}
}
