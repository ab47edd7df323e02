package harness

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/spec"
	"repro/internal/spine"
)

// payloads extracts delivered payloads.
func payloads(ds []spine.Delivery) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = string(d.Payload)
	}
	return out
}

func requireClean(t *testing.T, c *Cluster, opts spec.Options) {
	t.Helper()
	if vs := c.Check(opts.Settled); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("violation: %v", v)
		}
		t.Fatalf("%d specification violations", len(vs))
	}
}

func TestClusterFormsSingleConfiguration(t *testing.T) {
	c := New(Options{Procs: 4, Seed: 1})
	c.Run(500 * time.Millisecond)
	ops := c.OperationalConfigIDs()
	if len(ops) != 1 {
		t.Fatalf("operational configurations %v, want exactly one", ops)
	}
	for cfg, members := range ops {
		if members.Size() != 4 {
			t.Fatalf("configuration %v has %d operational members, want 4", cfg, members.Size())
		}
	}
	requireClean(t, c, spec.Options{Settled: true})
}

func TestSteadyStateAgreedDelivery(t *testing.T) {
	c := New(Options{Procs: 3, Seed: 2})
	for i := 0; i < 10; i++ {
		c.Send(time.Duration(100+i*5)*time.Millisecond, c.IDs()[i%3], fmt.Sprintf("m%d", i), model.Agreed)
	}
	c.Run(time.Second)
	ref := payloads(c.Deliveries(c.IDs()[0]))
	if len(ref) != 10 {
		t.Fatalf("delivered %v, want all 10", ref)
	}
	for _, id := range c.IDs()[1:] {
		if fmt.Sprint(payloads(c.Deliveries(id))) != fmt.Sprint(ref) {
			t.Fatalf("%s delivered %v, want %v", id, payloads(c.Deliveries(id)), ref)
		}
	}
	requireClean(t, c, spec.Options{Settled: true})
}

func TestSteadyStateSafeDelivery(t *testing.T) {
	c := New(Options{Procs: 5, Seed: 3})
	for i := 0; i < 10; i++ {
		c.Send(time.Duration(100+i*7)*time.Millisecond, c.IDs()[i%5], fmt.Sprintf("s%d", i), model.Safe)
	}
	c.Run(time.Second)
	for _, id := range c.IDs() {
		if got := len(c.Deliveries(id)); got != 10 {
			t.Fatalf("%s delivered %d safe messages, want 10", id, got)
		}
	}
	requireClean(t, c, spec.Options{Settled: true})
}

func TestLossyNetworkStillDeliversConsistently(t *testing.T) {
	netCfg := netsimDefaultWithLoss(0.05, 0.02)
	c := New(Options{Procs: 3, Seed: 4, Net: &netCfg})
	for i := 0; i < 20; i++ {
		c.Send(time.Duration(150+i*4)*time.Millisecond, c.IDs()[i%3], fmt.Sprintf("m%d", i), model.Safe)
	}
	c.Run(2 * time.Second)
	ref := payloads(c.Deliveries(c.IDs()[0]))
	if len(ref) != 20 {
		t.Fatalf("delivered %d, want 20", len(ref))
	}
	for _, id := range c.IDs()[1:] {
		if fmt.Sprint(payloads(c.Deliveries(id))) != fmt.Sprint(ref) {
			t.Fatalf("%s diverged under loss", id)
		}
	}
	requireClean(t, c, spec.Options{Settled: true})
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		c := New(Options{Procs: 3, Seed: 42})
		for i := 0; i < 6; i++ {
			c.Send(time.Duration(100+i*10)*time.Millisecond, c.IDs()[i%3], fmt.Sprintf("m%d", i), model.Safe)
		}
		c.Partition(200*time.Millisecond, []model.ProcessID{c.IDs()[0]}, []model.ProcessID{c.IDs()[1], c.IDs()[2]})
		c.Merge(400 * time.Millisecond)
		c.Run(time.Second)
		var out []string
		for _, e := range c.History.Events() {
			out = append(out, e.String())
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at %d:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// netsimDefaultWithLoss builds a lossy network profile.
func netsimDefaultWithLoss(drop, dup float64) netsim.Config {
	cfg := netsim.Default(0)
	cfg.DropRate = drop
	cfg.DupRate = dup
	return cfg
}

// TestBackpressureShedsIntoBackloggedStat bounds a node's send backlog and
// floods one process in a single instant: the excess is rejected with
// ErrBacklog, counted separately from down-process rejections, and the
// accepted prefix still delivers everywhere without violations.
func TestBackpressureShedsIntoBackloggedStat(t *testing.T) {
	cfg := node.DefaultConfig()
	cfg.MaxPending = 8
	c := New(Options{Procs: 3, Seed: 1, Node: &cfg})
	ids := c.IDs()
	for i := 0; i < 40; i++ {
		c.Send(500*time.Millisecond, ids[0], fmt.Sprintf("m%d", i), model.Safe)
	}
	c.Run(2 * time.Second)
	st := c.Stats()
	if st.Backlogged == 0 {
		t.Fatal("no submissions shed: backpressure bound not enforced")
	}
	if st.Rejected != 0 {
		t.Fatalf("Rejected = %d, want backlog shedding counted separately", st.Rejected)
	}
	if st.Submitted+st.Backlogged != 40 {
		t.Fatalf("submitted %d + backlogged %d, want 40 total", st.Submitted, st.Backlogged)
	}
	want := payloads(c.Deliveries(ids[0]))
	if len(want) == 0 {
		t.Fatal("accepted prefix not delivered")
	}
	for _, id := range ids[1:] {
		if fmt.Sprint(payloads(c.Deliveries(id))) != fmt.Sprint(want) {
			t.Fatalf("%s delivered %v, want %v", id, payloads(c.Deliveries(id)), want)
		}
	}
	requireClean(t, c, spec.Options{})
}
