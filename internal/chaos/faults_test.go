package chaos

import (
	"fmt"
	"testing"
	"time"

	evs "repro"
	"repro/internal/model"
)

// requireClean fails the test on any settled specification violation.
func requireClean(t *testing.T, g *evs.Group) {
	t.Helper()
	if vs := g.Check(true); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("violation: %v", v)
		}
		t.Fatalf("%d specification violations", len(vs))
	}
}

// TestStatsCountsRejectedSubmissions: traffic aimed at a crashed process
// is rejected and the rejection is observable, not silently discarded.
func TestStatsCountsRejectedSubmissions(t *testing.T) {
	c := evs.NewGroup(evs.Options{NumProcesses: 3, Seed: 41})
	ids := c.IDs()
	c.Send(150*time.Millisecond, ids[0], []byte("ok"), model.Safe)
	c.Crash(200*time.Millisecond, ids[1])
	c.Send(250*time.Millisecond, ids[1], []byte("lost"), model.Safe)
	c.Send(260*time.Millisecond, ids[1], []byte("lost2"), model.Safe)
	c.Run(time.Second)

	st := c.Stats()
	if st.Submitted != 1 {
		t.Fatalf("Submitted = %d, want 1", st.Submitted)
	}
	if st.Rejected != 2 {
		t.Fatalf("Rejected = %d, want 2", st.Rejected)
	}
}

// TestOneWayCutForcesReconfiguration: an asymmetric link failure (p hears
// q, q never hears p) must be detected and resolved by the membership
// algorithm — precisely the failure mode symmetric partitions never
// exercise — and the resulting history must be conformant.
func TestOneWayCutForcesReconfiguration(t *testing.T) {
	f := &injector{g: evs.NewGroup(evs.Options{NumProcesses: 3, Seed: 42})}
	c := f.g
	ids := c.IDs()
	for i := 0; i < 4; i++ {
		c.Send(time.Duration(150+i*10)*time.Millisecond, ids[i%3], []byte(fmt.Sprintf("m%d", i)), model.Safe)
	}
	f.oneWay(300*time.Millisecond, ids[:1], ids[1:])
	c.Send(600*time.Millisecond, ids[1], []byte("during"), model.Safe)
	f.healLinks(900 * time.Millisecond)
	c.Run(2500 * time.Millisecond)

	// After healing everyone converges back into one full configuration.
	ops := c.Operational()
	if len(ops) != 1 {
		t.Fatalf("did not settle into one configuration: %v", ops)
	}
	for _, members := range ops {
		if members.Size() != 3 {
			t.Fatalf("settled configuration incomplete: %v", members)
		}
	}
	requireClean(t, c)
}

// TestDropTokensStallsThenHeals: losing every token forces failure
// suspicion and reconfiguration churn; once the class loss clears, the
// stack must settle into the full membership with a conformant history.
func TestDropTokensStallsThenHeals(t *testing.T) {
	f := &injector{g: evs.NewGroup(evs.Options{NumProcesses: 3, Seed: 43})}
	c := f.g
	ids := c.IDs()
	c.Send(150*time.Millisecond, ids[0], []byte("before"), model.Safe)
	f.dropKinds(300*time.Millisecond, "", "", "token")
	c.Send(500*time.Millisecond, ids[1], []byte("during"), model.Safe)
	f.clearKindDrops(700 * time.Millisecond)
	c.Run(2500 * time.Millisecond)

	if c.Network().Stats().Filtered == 0 {
		t.Fatal("no tokens were filtered; the class rule did nothing")
	}
	ops := c.Operational()
	if len(ops) != 1 {
		t.Fatalf("did not settle into one configuration: %v", ops)
	}
	requireClean(t, c)
}

// TestCrashCorruptTornWriteRecovery: a process crashes with a torn last
// log record and later recovers; the recovery exchange must patch the
// missing state and the history must satisfy every specification.
func TestCrashCorruptTornWriteRecovery(t *testing.T) {
	f := &injector{g: evs.NewGroup(evs.Options{NumProcesses: 3, Seed: 44})}
	c := f.g
	ids := c.IDs()
	for i := 0; i < 6; i++ {
		c.Send(time.Duration(150+i*10)*time.Millisecond, ids[i%3], []byte(fmt.Sprintf("m%d", i)), model.Safe)
	}
	f.crashCorrupt(260*time.Millisecond, ids[2], CorruptTornWrite, 0)
	c.Recover(600*time.Millisecond, ids[2])
	c.Send(900*time.Millisecond, ids[2], []byte("after"), model.Safe)
	c.Run(2500 * time.Millisecond)

	ops := c.Operational()
	if len(ops) != 1 {
		t.Fatalf("did not settle into one configuration: %v", ops)
	}
	for _, members := range ops {
		if members.Size() != 3 {
			t.Fatalf("recovered process missing from settled configuration: %v", members)
		}
	}
	requireClean(t, c)
}

// TestCrashCorruptLostSuffixRecovery: same, with a lost log suffix.
func TestCrashCorruptLostSuffixRecovery(t *testing.T) {
	f := &injector{g: evs.NewGroup(evs.Options{NumProcesses: 4, Seed: 45})}
	c := f.g
	ids := c.IDs()
	for i := 0; i < 8; i++ {
		c.Send(time.Duration(150+i*8)*time.Millisecond, ids[i%4], []byte(fmt.Sprintf("m%d", i)), model.Safe)
	}
	f.crashCorrupt(250*time.Millisecond, ids[1], CorruptLostSuffix, 4)
	c.Recover(700*time.Millisecond, ids[1])
	c.Run(2500 * time.Millisecond)

	ops := c.Operational()
	if len(ops) != 1 {
		t.Fatalf("did not settle into one configuration: %v", ops)
	}
	requireClean(t, c)
}

// TestCorruptionModeNames pins the mode rendering used by reproducers.
func TestCorruptionModeNames(t *testing.T) {
	for mode, want := range map[Corruption]string{
		CorruptNone:       "none",
		CorruptTornWrite:  "torn_write",
		CorruptLostSuffix: "lost_suffix",
		Corruption(99):    "corruption(?)",
	} {
		if got := mode.String(); got != want {
			t.Fatalf("Corruption(%d).String() = %q, want %q", mode, got, want)
		}
	}
}
