package harness

import (
	"fmt"
	"testing"
	"time"

	evs "repro"
	"repro/internal/model"
)

// These tests aim timing at the protocol's most delicate windows: the
// recovery algorithm between the membership change and Step 6, the commit
// phase of the membership consensus, and the moment of installation. The
// crash/partition offsets sweep across the window so some run lands inside
// each phase regardless of timing drift.

// TestCrashDuringRecoveryWindow partitions the group and then crashes a
// surviving member at offsets sweeping across the failure-detection and
// recovery window. Interrupted recoveries must restart (Step 2) and the
// final history must satisfy every specification — including obligation
// handling (Specification 7.1's hard case).
func TestCrashDuringRecoveryWindow(t *testing.T) {
	for _, offsetMs := range []int{1, 5, 15, 30, 41, 45, 55, 70, 90} {
		offsetMs := offsetMs
		t.Run(fmt.Sprintf("offset=%dms", offsetMs), func(t *testing.T) {
			c := evs.NewGroup(evs.Options{NumProcesses: 5, Seed: int64(1000 + offsetMs)})
			ids := c.IDs()
			// Safe traffic so there is a backlog to recover.
			for i := 0; i < 8; i++ {
				c.Send(time.Duration(150+i*10)*time.Millisecond, ids[i%5], []byte(fmt.Sprintf("m%d", i)), model.Safe)
			}
			cut := 300 * time.Millisecond
			c.Partition(cut, ids[:4], ids[4:])
			// Crash a member of the surviving majority inside the
			// reconfiguration window that the partition triggers.
			c.Crash(cut+time.Duration(offsetMs)*time.Millisecond, ids[1])
			c.Run(1500 * time.Millisecond)

			// The three remaining majority members converge.
			ops := c.Operational()
			found := false
			for _, members := range ops {
				if members.Contains(ids[0]) && members.Contains(ids[2]) && members.Contains(ids[3]) {
					found = true
				}
			}
			if !found {
				t.Fatalf("survivors did not converge: %v", ops)
			}
			requireClean(t, c, true)
		})
	}
}

// TestRepresentativeCrashAtInstall crashes the would-be representative
// (lowest identifier) at offsets around the install point, forcing the
// membership algorithm to re-run without it.
func TestRepresentativeCrashAtInstall(t *testing.T) {
	for _, offsetMs := range []int{40, 44, 48, 52, 60} {
		offsetMs := offsetMs
		t.Run(fmt.Sprintf("offset=%dms", offsetMs), func(t *testing.T) {
			c := evs.NewGroup(evs.Options{NumProcesses: 4, Seed: int64(2000 + offsetMs)})
			ids := c.IDs()
			cut := 300 * time.Millisecond
			c.Partition(cut, ids[:3], ids[3:])
			// ids[0] is the representative of the surviving majority.
			c.Crash(cut+time.Duration(offsetMs)*time.Millisecond, ids[0])
			c.Send(600*time.Millisecond, ids[1], []byte("after"), model.Safe)
			c.Run(1500 * time.Millisecond)

			ops := c.Operational()
			converged := false
			for cfg, members := range ops {
				if members.Contains(ids[1]) && members.Contains(ids[2]) {
					converged = true
					if cfg.Rep == ids[0] && members.Contains(ids[0]) {
						t.Fatalf("crashed representative still in configuration %v", cfg)
					}
				}
			}
			if !converged {
				t.Fatalf("survivors did not converge: %v", ops)
			}
			// The post-crash message must deliver at both survivors.
			for _, id := range []model.ProcessID{ids[1], ids[2]} {
				found := false
				for _, d := range c.Deliveries(id) {
					if string(d.Payload) == "after" {
						found = true
					}
				}
				if !found {
					t.Fatalf("%s missed post-crash traffic", id)
				}
			}
			requireClean(t, c, true)
		})
	}
}

// TestFlappingPartitions rapidly splits and heals the network faster than
// recoveries can complete, then lets it settle: the stack must converge
// and the history must be conformant.
func TestFlappingPartitions(t *testing.T) {
	for _, periodMs := range []int{20, 35, 60} {
		periodMs := periodMs
		t.Run(fmt.Sprintf("period=%dms", periodMs), func(t *testing.T) {
			c := evs.NewGroup(evs.Options{NumProcesses: 4, Seed: int64(3000 + periodMs)})
			ids := c.IDs()
			for i := 0; i < 10; i++ {
				c.Send(time.Duration(150+i*30)*time.Millisecond, ids[i%4], []byte(fmt.Sprintf("m%d", i)), model.Safe)
			}
			at := 250 * time.Millisecond
			for i := 0; i < 12; i++ {
				if i%2 == 0 {
					c.Partition(at, ids[:2], ids[2:])
				} else {
					c.Merge(at)
				}
				at += time.Duration(periodMs) * time.Millisecond
			}
			c.Merge(at)
			c.Run(at + 1200*time.Millisecond)

			ops := c.Operational()
			if len(ops) != 1 {
				t.Fatalf("flapping did not settle into one configuration: %v", ops)
			}
			for _, members := range ops {
				if members.Size() != 4 {
					t.Fatalf("settled configuration incomplete: %v", members)
				}
			}
			requireClean(t, c, true)
		})
	}
}

// TestPartitionDuringRecovery splits the surviving component again while
// its recovery from the first split is still in flight.
func TestPartitionDuringRecovery(t *testing.T) {
	for _, offsetMs := range []int{42, 46, 50, 58} {
		offsetMs := offsetMs
		t.Run(fmt.Sprintf("offset=%dms", offsetMs), func(t *testing.T) {
			c := evs.NewGroup(evs.Options{NumProcesses: 5, Seed: int64(4000 + offsetMs)})
			ids := c.IDs()
			for i := 0; i < 6; i++ {
				c.Send(time.Duration(150+i*12)*time.Millisecond, ids[i%5], []byte(fmt.Sprintf("m%d", i)), model.Safe)
			}
			cut := 300 * time.Millisecond
			c.Partition(cut, ids[:4], ids[4:])
			// Second cut inside the first recovery.
			c.Partition(cut+time.Duration(offsetMs)*time.Millisecond, ids[:2], ids[2:4], ids[4:])
			c.Merge(700 * time.Millisecond)
			c.Run(2 * time.Second)

			ops := c.Operational()
			if len(ops) != 1 {
				t.Fatalf("did not reconverge: %v", ops)
			}
			requireClean(t, c, true)
		})
	}
}

// TestCrashWhileRecoveringProcessHoldsObligations crashes a process right
// after the recovery acknowledgment phase across a sweep of offsets; if
// any schedule lands between a process's acknowledgment (Step 5.c) and its
// installation (Step 6.e), the obligation machinery is what keeps
// Specification 7.1 intact for the messages others delivered relying on
// its acknowledgment.
func TestCrashWhileRecoveringProcessHoldsObligations(t *testing.T) {
	for offset := 40; offset <= 50; offset += 2 {
		offset := offset
		t.Run(fmt.Sprintf("offset=%dms", offset), func(t *testing.T) {
			c := evs.NewGroup(evs.Options{NumProcesses: 4, Seed: int64(5000 + offset)})
			ids := c.IDs()
			// Safe burst right before the cut: unacknowledged safe
			// messages are exactly what recovery must place.
			at := 295 * time.Millisecond
			for i := 0; i < 12; i++ {
				c.Send(at, ids[i%4], []byte(fmt.Sprintf("m%d", i)), model.Safe)
			}
			cut := 300 * time.Millisecond
			c.Partition(cut, ids[:3], ids[3:])
			c.Crash(cut+time.Duration(offset)*time.Millisecond, ids[2])
			c.Run(1800 * time.Millisecond)
			requireClean(t, c, true)
		})
	}
}
