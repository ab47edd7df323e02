package evs

import (
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/node"
	"repro/internal/spine"
)

// fastNetConfig scales the deployment timing profile down for loopback
// tests (same profile the daemon package's own tests use).
func fastNetConfig() node.Config {
	cfg := daemon.DefaultNetConfig()
	cfg.TokenLoss = 150 * time.Millisecond
	cfg.TokenRetrans = 25 * time.Millisecond
	cfg.JoinRetry = 40 * time.Millisecond
	cfg.CommitTimeout = 100 * time.Millisecond
	cfg.RecoveryRetry = 30 * time.Millisecond
	cfg.RecoveryTimeout = 500 * time.Millisecond
	return cfg
}

func TestNewSim(t *testing.T) {
	c, err := New(RuntimeSim, Options{NumProcesses: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g, ok := c.(*Group)
	if !ok {
		t.Fatalf("New(RuntimeSim) = %T, want *Group", c)
	}
	if len(g.IDs()) != 4 {
		t.Fatalf("IDs = %v", g.IDs())
	}
	// The seed reached the simulator: a short run is deterministic.
	g.Send(100*time.Millisecond, g.IDs()[0], []byte("x"), Safe)
	g.Run(time.Second)
	if len(g.Deliveries(g.IDs()[0])) == 0 {
		t.Fatal("no deliveries in sim runtime")
	}
}

func TestNewSimOptionsPassThrough(t *testing.T) {
	c, err := New(RuntimeSim, Options{NumProcesses: 2, Seed: 9, EnableVS: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g, ok := c.(*Group)
	if !ok {
		t.Fatalf("New(RuntimeSim) = %T, want *Group", c)
	}
	if n := len(g.IDs()); n != 2 {
		t.Fatalf("got %d processes, want 2", n)
	}
	// EnableVS reached the processes: the filter installs a view.
	g.Run(time.Second)
	if len(g.VSEvents(g.IDs()[0])) == 0 {
		t.Fatal("no virtual synchrony events: EnableVS did not pass through")
	}
}

func TestNewExplicitProcesses(t *testing.T) {
	c, err := New(RuntimeSim, Options{Processes: []ProcessID{"alpha", "beta"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ids := c.IDs()
	if len(ids) != 2 || ids[0] != "alpha" || ids[1] != "beta" {
		t.Fatalf("IDs = %v", ids)
	}
	// Named processes are sim-only; the wall-clock runtimes reject them.
	for _, rt := range []Runtime{RuntimeLive, RuntimeUDP, RuntimeTCP} {
		if _, err := New(rt, Options{Processes: []ProcessID{"alpha"}}); err == nil {
			t.Errorf("%v runtime accepted explicit process names", rt)
		}
	}
}

func TestNewLiveRuntime(t *testing.T) {
	c, err := New(RuntimeLive, Options{NumProcesses: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g, ok := c.(*LiveGroup)
	if !ok {
		t.Fatalf("New(RuntimeLive) = %T, want *LiveGroup", c)
	}
	if !g.WaitOperational(10 * time.Second) {
		t.Fatal("live group never formed")
	}
	if err := c.Submit(g.IDs()[0], []byte("hi"), Agreed); err != nil {
		t.Fatal(err)
	}
	if !g.WaitDeliveries(g.IDs()[1], 1, 10*time.Second) {
		t.Fatal("live delivery never arrived")
	}
}

// TestNewUDPRuntime covers what the UDP runtime adds to the parity table
// (TestClusterParity forms, orders and checks a ring on every runtime):
// traffic really crosses the wire codec, a kill without a goodbye shrinks
// the membership everywhere, the sockets partition and merge, and the
// trace still passes the specification checker.
func TestNewUDPRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second socket ring test")
	}
	cfg := fastNetConfig()
	c, err := New(RuntimeUDP, Options{NumProcesses: 4, Node: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g, ok := c.(*LiveGroup)
	if !ok {
		t.Fatalf("New() = %T, want *LiveGroup", c)
	}
	ids := g.IDs()
	if !g.WaitOperational(20 * time.Second) {
		t.Fatalf("ring never formed; p01 is %s", g.Mode(ids[0]))
	}
	// installed reports whether every process of each side has installed
	// a regular configuration of exactly that side's size.
	installed := func(sides ...[]ProcessID) func() bool {
		return func() bool {
			for _, side := range sides {
				for _, id := range side {
					ccs := g.ConfigChanges(id)
					if last := ccs[len(ccs)-1].Config; !last.ID.IsRegular() || last.Members.Size() != len(side) {
						return false
					}
				}
			}
			return true
		}
	}

	// The sockets partition like the hub: each side installs its own
	// ring, and the merge installs the 4-member ring again.
	g.Partition(ids[:2], ids[2:])
	if !spine.Poll(30*time.Second, installed(ids[:2], ids[2:])) {
		t.Fatal("the sides never installed their own 2-member rings")
	}
	g.Merge()
	if !spine.Poll(30*time.Second, installed(ids)) || !g.WaitOperational(10*time.Second) {
		t.Fatal("the merge never installed the 4-member ring")
	}

	// Kill p04; the survivors deliver a 3-member configuration.
	if err := g.Kill(ids[3]); err != nil {
		t.Fatal(err)
	}
	if err := g.Submit(ids[3], []byte("late"), Agreed); err == nil {
		t.Fatal("submit at a killed process succeeded")
	}
	if !spine.Poll(30*time.Second, installed(ids[:3])) || !g.WaitOperational(10*time.Second) {
		t.Fatal("survivors never installed the 3-member ring")
	}

	if vs := g.Check(false); len(vs) > 0 {
		t.Fatalf("spec violations: %v", vs)
	}
	if g.Metrics().Total.Counters["wire_packets_out_total"] == 0 {
		t.Fatal("no wire packets counted — traffic did not cross the codec path")
	}
}

// TestNewRejectsSimOnlyOptions: the wall-clock runtimes take the Options
// every runtime shares and refuse the ones that configure the simulated
// network, instead of silently ignoring them.
func TestNewRejectsSimOnlyOptions(t *testing.T) {
	for name, o := range map[string]Options{
		"Seed":         {Seed: 7},
		"DropRate":     {DropRate: 0.1},
		"DupRate":      {DupRate: 0.1},
		"Codec":        {Codec: true},
		"CorruptRate":  {CorruptRate: 0.1},
		"TruncateRate": {TruncateRate: 0.1},
		"MinDelay":     {MinDelay: time.Millisecond},
		"MaxDelay":     {MaxDelay: time.Millisecond},
	} {
		for _, rt := range []Runtime{RuntimeLive, RuntimeUDP, RuntimeTCP} {
			if c, err := New(rt, o); err == nil {
				c.Close()
				t.Errorf("%v runtime accepted Options.%s", rt, name)
			}
		}
	}
	// The shared part passes through.
	c, err := New(RuntimeLive, Options{NumProcesses: 2, DiscardHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g := c.(*LiveGroup)
	if !g.WaitOperational(10 * time.Second) {
		t.Fatal("live group never formed")
	}
	if err := c.Submit(c.IDs()[0], []byte("x"), Agreed); err != nil {
		t.Fatal(err)
	}
	if !g.WaitDeliveries(c.IDs()[1], 1, 10*time.Second) {
		t.Fatal("delivery never counted")
	}
	if ds := c.Deliveries(c.IDs()[1]); ds != nil {
		t.Fatalf("DiscardHistory retained %d deliveries", len(ds))
	}
}

func TestNewRejectsUnknownRuntime(t *testing.T) {
	if _, err := New(Runtime(99), Options{}); err == nil {
		t.Fatal("unknown runtime accepted")
	}
}

// TestNewLiveGroupRejectsSim: NewLiveGroup builds only the wall-clock
// runtimes; the simulator is NewGroup.
func TestNewLiveGroupRejectsSim(t *testing.T) {
	for _, rt := range []Runtime{RuntimeSim, Runtime(99)} {
		if g, err := NewLiveGroup(rt, Options{}); err == nil {
			g.Close()
			t.Errorf("NewLiveGroup accepted the %v runtime", rt)
		}
	}
}
