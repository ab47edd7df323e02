package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCatalogNamesComplete(t *testing.T) {
	for c := Counter(0); c < numCounters; c++ {
		if counterNames[c] == "" {
			t.Errorf("counter %d has no name", c)
		}
	}
	for g := Gauge(0); g < numGauges; g++ {
		if gaugeNames[g] == "" {
			t.Errorf("gauge %d has no name", g)
		}
	}
	for h := Hist(0); h < numHists; h++ {
		if histNames[h] == "" {
			t.Errorf("histogram %d has no name", h)
		}
	}
	// Names must be unique across the whole catalog: a collision would
	// silently merge series in every exporter.
	seen := make(map[string]bool)
	for _, n := range append(append(CounterNames(), GaugeNames()...), HistNames()...) {
		if seen[n] {
			t.Errorf("duplicate catalog name %q", n)
		}
		seen[n] = true
	}
}

func TestCountersGaugesHists(t *testing.T) {
	m := New("p1", nil)
	m.Inc(CTokenRotations)
	m.Add(CTokenRotations, 4)
	if got := m.Counter(CTokenRotations); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	m.Set(GBudget, 42)
	if got := m.Gauge(GBudget); got != 42 {
		t.Fatalf("gauge = %d, want 42", got)
	}
	m.Observe(HBatchFill, 3)
	m.Observe(HBatchFill, 5)
	s := m.Snapshot()
	h := s.Histograms[HistName(HBatchFill)]
	if h.Count != 2 || h.Sum != 8 {
		t.Fatalf("hist count=%d sum=%d, want 2/8", h.Count, h.Sum)
	}
}

func TestNilMetricsIsDisabledLayer(t *testing.T) {
	var m *Metrics
	// Every method must be a safe no-op on the nil scope.
	m.Inc(CSubmits)
	m.Add(CSubmits, 7)
	m.Set(GBudget, 9)
	m.Observe(HBatchFill, 1)
	m.ObserveSince(HRecoveryTotalUs, 0)
	m.Event(KBudget, 1, 2)
	if m.Counter(CSubmits) != 0 || m.Gauge(GBudget) != 0 {
		t.Fatal("nil scope must read zero")
	}
	if m.Now() != 0 || m.Proc() != "" || m.Events() != nil || m.EventsDropped() != 0 {
		t.Fatal("nil scope accessors must return zero values")
	}
	// A nil scope still snapshots the full catalog (all zeros), so name
	// sets stay identical across enabled and disabled deployments.
	s := m.Snapshot()
	if len(s.Counters) != int(numCounters) || len(s.Gauges) != int(numGauges) ||
		len(s.Histograms) != int(numHists) {
		t.Fatalf("nil snapshot catalog incomplete: %d/%d/%d",
			len(s.Counters), len(s.Gauges), len(s.Histograms))
	}
}

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{^uint64(0), HistBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
		// The invariant the exporter relies on: v < BucketBound(i) for
		// every bounded bucket (the last bucket is unbounded).
		if i := bucketIndex(c.v); i < HistBuckets-1 && c.v >= BucketBound(i) {
			t.Errorf("value %d not below its bucket bound", c.v)
		}
	}
}

func TestClockDrivesNowAndObserveSince(t *testing.T) {
	now := 250 * time.Microsecond
	m := New("p1", func() time.Duration { return now })
	if m.Now() != now {
		t.Fatalf("Now = %s", m.Now())
	}
	m.ObserveSince(HRecoveryTotalUs, 50*time.Microsecond)
	h := m.Snapshot().Histograms[HistName(HRecoveryTotalUs)]
	if h.Count != 1 || h.Sum != 200 {
		t.Fatalf("ObserveSince recorded count=%d sum=%d, want 1/200µs", h.Count, h.Sum)
	}
	// A start after now must clamp to zero, not underflow.
	m.ObserveSince(HRecoveryTotalUs, 400*time.Microsecond)
	h = m.Snapshot().Histograms[HistName(HRecoveryTotalUs)]
	if h.Sum != 200 {
		t.Fatalf("negative elapsed must clamp to 0, sum=%d", h.Sum)
	}
}

func TestTraceRingRetainsAndDrops(t *testing.T) {
	now := time.Duration(0)
	m := New("p1", func() time.Duration { return now })
	total := DefaultTraceDepth + 10
	for i := 0; i < total; i++ {
		now = time.Duration(i) * time.Millisecond
		m.Event(KBudget, uint64(i), 0)
	}
	evs := m.Events()
	if len(evs) != DefaultTraceDepth {
		t.Fatalf("retained %d events, want %d", len(evs), DefaultTraceDepth)
	}
	if m.EventsDropped() != 10 {
		t.Fatalf("dropped = %d, want 10", m.EventsDropped())
	}
	// Oldest retained event is number 10; order is chronological.
	if evs[0].A != 10 || evs[len(evs)-1].A != uint64(total-1) {
		t.Fatalf("ring window wrong: first=%d last=%d", evs[0].A, evs[len(evs)-1].A)
	}
}

func TestMergeEventsOrdersAcrossScopes(t *testing.T) {
	clock := func(at *time.Duration) func() time.Duration {
		return func() time.Duration { return *at }
	}
	var ta, tb time.Duration
	a := New("a", clock(&ta))
	b := New("b", clock(&tb))
	ta = 2 * time.Millisecond
	a.Event(KBudget, 1, 0)
	tb = 1 * time.Millisecond
	b.Event(KBudget, 2, 0)
	tb = 3 * time.Millisecond
	b.Event(KBudget, 3, 0)
	merged := MergeEvents(a, b, nil)
	if len(merged) != 3 {
		t.Fatalf("merged %d events", len(merged))
	}
	if merged[0].A != 2 || merged[1].A != 1 || merged[2].A != 3 {
		t.Fatalf("merge order wrong: %v", merged)
	}
}

func TestClusterSnapshotTotals(t *testing.T) {
	a := New("a", nil)
	b := New("b", nil)
	a.Add(CSubmits, 3)
	b.Add(CSubmits, 4)
	a.Set(GPendingDepth, 5)
	b.Set(GPendingDepth, 6)
	a.Observe(HBatchFill, 2)
	b.Observe(HBatchFill, 2)
	cs := Cluster(a, b, nil)
	if len(cs.Procs) != 2 {
		t.Fatalf("procs = %d", len(cs.Procs))
	}
	if got := cs.Total.Counters[CounterName(CSubmits)]; got != 7 {
		t.Fatalf("total counter = %d, want 7", got)
	}
	if got := cs.Total.Gauges[GaugeName(GPendingDepth)]; got != 11 {
		t.Fatalf("total gauge = %d, want 11 (levels sum)", got)
	}
	if h := cs.Total.Histograms[HistName(HBatchFill)]; h.Count != 2 || h.Sum != 4 {
		t.Fatalf("total hist = %+v", h)
	}
	if names := cs.ProcNames(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("proc names = %v", names)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	m := New("p1", nil)
	m.Add(CTokenRotations, 12)
	m.Observe(HBatchFill, 3)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, Cluster(m)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE evs_totem_token_rotations_total counter",
		`evs_totem_token_rotations_total{proc="p1"} 12`,
		`evs_totem_batch_fill_bucket{proc="p1",le="4"} 1`,
		`evs_totem_batch_fill_bucket{proc="p1",le="+Inf"} 1`,
		`evs_totem_batch_fill_sum{proc="p1"} 3`,
		`evs_totem_batch_fill_count{proc="p1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	// Deterministic: a second render must be byte-identical.
	var buf2 bytes.Buffer
	if err := WritePrometheus(&buf2, Cluster(m)); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("prometheus rendering is not deterministic")
	}
}

func TestExpvarMapShape(t *testing.T) {
	m := New("p1", nil)
	m.Inc(CSubmits)
	out := ExpvarMap(Cluster(m))
	scope, ok := out["p1"].(map[string]any)
	if !ok {
		t.Fatalf("scope p1 missing: %v", out)
	}
	if scope["node_submits_total"] != uint64(1) {
		t.Fatalf("scope counter = %v", scope["node_submits_total"])
	}
	if _, ok := out["total"]; !ok {
		t.Fatal("total scope missing")
	}
}

// TestConcurrentUpdatesAndSnapshots exercises the atomics under real
// concurrency (run with -race): updates, trace events and snapshots from
// many goroutines must neither race nor lose counts.
func TestConcurrentUpdatesAndSnapshots(t *testing.T) {
	m := New("p1", nil)
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m.Inc(CSubmits)
				m.Observe(HBatchFill, uint64(i%7))
				m.Set(GBudget, int64(i))
				if i%100 == 0 {
					m.Event(KBudget, uint64(i), 0)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = m.Snapshot()
				_ = m.Events()
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := m.Counter(CSubmits); got != workers*perWorker {
		t.Fatalf("lost updates: %d, want %d", got, workers*perWorker)
	}
	h := m.Snapshot().Histograms[HistName(HBatchFill)]
	if h.Count != workers*perWorker {
		t.Fatalf("lost observations: %d", h.Count)
	}
}

func TestGatherCauseCounters(t *testing.T) {
	cases := map[GatherCause]Counter{
		CauseStart:           CGatherStart,
		CauseTokenLoss:       CGatherTokenLoss,
		CauseForeign:         CGatherForeign,
		CauseJoin:            CGatherJoin,
		CauseRecoveryTimeout: CGatherRecoveryTimeout,
	}
	for cause, want := range cases {
		if got := cause.GatherCounter(); got != want {
			t.Errorf("%s -> counter %d, want %d", cause, got, want)
		}
		if cause.String() == "" || strings.HasPrefix(cause.String(), "cause(") {
			t.Errorf("cause %d unnamed", cause)
		}
	}
}
