package evs

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/spine"
	"repro/internal/stable"
)

// collectPayloads renders a process's delivery sequence for comparison.
func collectPayloads(c Cluster, id ProcessID) []string {
	var out []string
	for _, d := range c.Deliveries(id) {
		out = append(out, string(d.Payload))
	}
	return out
}

// snapshotNames returns the sorted metric name sets of a snapshot.
func snapshotNames(s MetricsSnapshot) (counters, gauges, hists []string) {
	for k := range s.Counters {
		counters = append(counters, k)
	}
	for k := range s.Gauges {
		gauges = append(gauges, k)
	}
	for k := range s.Histograms {
		hists = append(hists, k)
	}
	sort.Strings(counters)
	sort.Strings(gauges)
	sort.Strings(hists)
	return
}

// await advances c until cond holds: virtual time in steps on the
// simulator, a wall-clock poll elsewhere. It reports whether cond held.
func await(c Cluster, cond func() bool) bool {
	g, ok := c.(*Group)
	if !ok {
		return spine.Poll(20*time.Second, cond)
	}
	for !cond() && g.Now() < 10*time.Second {
		g.Run(g.Now() + 50*time.Millisecond)
	}
	return cond()
}

// TestClusterParity drives the same scenario through the
// runtime-independent Cluster interface on every runtime — virtual clock
// over the simulated medium, wall clock over the hub, UDP and TCP — and
// checks that what the application observes is the same on each: delivery
// sequences, final configuration, metric vocabulary, and a clean settled
// specification check.
func TestClusterParity(t *testing.T) {
	payloads := []string{"alpha", "bravo", "charlie"}
	var refIDs []ProcessID
	var refNames [3][]string
	for _, rt := range []Runtime{RuntimeSim, RuntimeLive, RuntimeUDP, RuntimeTCP} {
		rt := rt
		t.Run(rt.String(), func(t *testing.T) {
			opts := Options{NumProcesses: 3}
			switch rt {
			case RuntimeSim:
				opts.Seed = 7
			case RuntimeUDP, RuntimeTCP:
				cfg := fastNetConfig()
				opts.Node = &cfg
			}
			c, err := New(rt, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ids := c.IDs()

			formed := func() bool {
				for _, id := range ids {
					ccs := c.ConfigChanges(id)
					if len(ccs) == 0 {
						return false
					}
					last := ccs[len(ccs)-1].Config
					if !last.ID.IsRegular() || last.Members.Size() != len(ids) {
						return false
					}
				}
				return true
			}
			if !await(c, formed) {
				t.Fatal("cluster did not form")
			}
			for _, p := range payloads {
				if err := c.Submit(ids[0], []byte(p), Safe); err != nil {
					t.Fatalf("submit %q: %v", p, err)
				}
			}
			// An unknown process is refused with the same error on every
			// runtime, and the refusal is not counted.
			stats := c.(interface{ Stats() GroupStats })
			before := stats.Stats()
			if err := c.Submit("nope", []byte("x"), Safe); err == nil || err.Error() != "unknown process nope" {
				t.Errorf("submit at an unknown process: err = %v, want unknown process nope", err)
			}
			if after := stats.Stats(); after != before {
				t.Errorf("refusal at an unknown process was counted: %+v, then %+v", before, after)
			}
			// Every other per-process call at an unknown process is a
			// no-op or reads a zero value: Mode names no protocol mode,
			// Crash and Recover do nothing (on the simulator, nothing is
			// scheduled to fire later), and the simulator's StableRecord
			// and PendingDepth read zero.
			if m := c.(interface{ Mode(ProcessID) string }).Mode("nope"); m != "unknown" {
				t.Errorf("mode at an unknown process = %q, want unknown", m)
			}
			switch g := c.(type) {
			case *Group:
				g.Crash(g.Now(), "nope")
				g.Recover(g.Now(), "nope")
				g.Run(g.Now())
				if rec := g.StableRecord("nope"); !reflect.DeepEqual(rec, stable.Record{}) {
					t.Errorf("stable record at an unknown process = %+v, want the zero record", rec)
				}
				if d := g.PendingDepth("nope"); d != 0 {
					t.Errorf("pending depth at an unknown process = %d, want 0", d)
				}
			case *LiveGroup:
				g.Crash("nope")
				g.Recover("nope")
			}
			delivered := func() bool {
				for _, id := range ids {
					if len(c.Deliveries(id)) < len(payloads) {
						return false
					}
				}
				return true
			}
			if !await(c, delivered) {
				t.Fatal("not every process delivered every message")
			}

			// Identical delivery sequences at every process, and a final
			// configuration of the whole cluster, still installed.
			for _, id := range ids {
				if got := collectPayloads(c, id); !reflect.DeepEqual(got, payloads) {
					t.Errorf("deliveries at %s = %v, want %v", id, got, payloads)
				}
			}
			if !formed() {
				t.Error("the full configuration did not survive the traffic")
			}
			if len(c.History()) == 0 {
				t.Error("empty formal-model history")
			}
			if vs := c.(interface{ Check(bool) []Violation }).Check(true); len(vs) != 0 {
				t.Errorf("violations: %v", vs)
			}

			// The metric vocabulary must be identical between the runtimes:
			// same process scopes (the in-process media add a "net" scope),
			// same counter/gauge/histogram catalogs, so dashboards and
			// comparisons work series-for-series.
			m := c.Metrics()
			var procs []ProcessID
			for _, name := range m.ProcNames() {
				if name != "net" {
					procs = append(procs, ProcessID(name))
				}
			}
			if !reflect.DeepEqual(procs, ids) {
				t.Errorf("scope names %v, want one per process %v", m.ProcNames(), ids)
			}
			var names [3][]string
			names[0], names[1], names[2] = snapshotNames(m.Total)
			if refIDs == nil {
				refIDs, refNames = ids, names
			}
			if !reflect.DeepEqual(ids, refIDs) {
				t.Errorf("IDs = %v, want %v as on the simulator", ids, refIDs)
			}
			if !reflect.DeepEqual(names, refNames) {
				t.Error("metric name sets diverge from the simulator's")
			}
			// The execution did real protocol work.
			if m.Total.Counters["totem_token_rotations_total"] == 0 {
				t.Error("no token rotations recorded")
			}
			if m.Total.Counters["totem_msgs_delivered_total"] == 0 {
				t.Error("no deliveries recorded")
			}
		})
	}
}

// taggingObserver appends "tag:kind" notes to a shared log.
type taggingObserver struct {
	tag string
	log *[]string
}

func (o taggingObserver) OnDelivery(id ProcessID, d Delivery) {
	*o.log = append(*o.log, o.tag+":del")
}

func (o taggingObserver) OnConfigChange(id ProcessID, c ConfigEvent) {
	*o.log = append(*o.log, o.tag+":cfg")
}

// TestMultiObserverRegistrationOrder: every registered observer sees every
// event, in registration order.
func TestMultiObserverRegistrationOrder(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 2, Seed: 3})
	var log []string
	g.AddObserver(ObserverFuncs{
		Delivery: func(id ProcessID, d Delivery) { log = append(log, "field:del") },
	})
	g.AddObserver(taggingObserver{"a", &log})
	g.AddObserver(taggingObserver{"b", &log})
	g.AddObserver(taggingObserver{"c", &log})
	g.Send(500*time.Millisecond, g.IDs()[0], []byte("x"), Safe)
	g.Run(2 * time.Second)

	var dels []string
	for _, e := range log {
		if strings.HasSuffix(e, ":del") {
			dels = append(dels, e)
		}
	}
	// 2 processes deliver once each; each delivery logs field, a, b, c.
	want := []string{
		"field:del", "a:del", "b:del", "c:del",
		"field:del", "a:del", "b:del", "c:del",
	}
	if !reflect.DeepEqual(dels, want) {
		t.Fatalf("delivery observer order = %v, want %v", dels, want)
	}
	// Observers also saw configuration changes.
	counts := map[string]int{}
	for _, e := range log {
		if strings.HasSuffix(e, ":cfg") {
			counts[strings.TrimSuffix(e, ":cfg")]++
		}
	}
	if counts["a"] == 0 || counts["a"] != counts["b"] || counts["b"] != counts["c"] {
		t.Fatalf("config observer counts diverge: %v", counts)
	}
}

// TestNewTopicsAfterStartFails: the group layer derives state from the
// complete total order, so attaching it after the simulation has begun
// must fail loudly instead of silently missing the prefix.
func TestNewTopicsAfterStartFails(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 2, Seed: 1})
	if _, err := NewTopics(g, TopicsOptions{}); err != nil {
		t.Fatalf("before start: %v", err)
	}
	g.Run(time.Second)
	if _, err := NewTopics(g, TopicsOptions{}); !errors.Is(err, ErrStarted) {
		t.Fatalf("after start: err = %v, want ErrStarted", err)
	}
}

// TestLiveGroupObserversAndMetricsUnderRace drives a LiveGroup with a
// registered observer while concurrently snapshotting metrics and serving
// the HTTP endpoint — the -race CI step leans on this test.
func TestLiveGroupObserversAndMetricsUnderRace(t *testing.T) {
	g := newHubGroup(t, 3)
	defer g.Close()
	if !g.WaitOperational(10 * time.Second) {
		t.Fatal("live group did not form")
	}
	var c Cluster = g

	type note struct {
		id      ProcessID
		payload string
	}
	notes := make(chan note, 64)
	c.AddObserver(ObserverFuncs{
		Delivery: func(id ProcessID, d Delivery) {
			notes <- note{id, string(d.Payload)}
		},
	})

	// Snapshot metrics concurrently with protocol traffic.
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.Metrics()
				_ = g.ObsEvents()
			}
		}
	}()

	addr, err := g.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.ServeMetrics("127.0.0.1:0"); err == nil {
		t.Error("second ServeMetrics should fail while one is running")
	}

	const n = 10
	for i := 0; i < n; i++ {
		if err := c.Submit(c.IDs()[0], []byte(fmt.Sprintf("m%d", i)), Agreed); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range g.IDs() {
		if !g.WaitDeliveries(id, n, 10*time.Second) {
			t.Fatalf("%s delivered %d of %d", id, len(c.Deliveries(id)), n)
		}
	}
	// The observer saw every delivery at every process.
	seen := map[ProcessID]int{}
	deadline := time.After(5 * time.Second)
	for total := 0; total < n*len(g.IDs()); {
		select {
		case nt := <-notes:
			seen[nt.id]++
			total++
		case <-deadline:
			t.Fatalf("observer saw %v, want %d each", seen, n)
		}
	}

	// The endpoint serves Prometheus text with catalog series...
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "evs_totem_token_rotations_total") {
		t.Error("prometheus endpoint missing token rotation series")
	}
	// ...and JSON when asked.
	resp, err = http.Get("http://" + addr + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	jbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "json") {
		t.Errorf("json format served Content-Type %q", ct)
	}
	if !strings.Contains(string(jbody), "totem_token_rotations_total") {
		t.Error("json endpoint missing token rotation series")
	}

	close(stop)
	<-snapDone
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Closing stops the endpoint.
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("metrics endpoint still serving after Close")
	}
}
