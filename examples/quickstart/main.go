// Quickstart: a five-process extended-virtual-synchrony group that sends
// safe messages, survives a partition with continued operation in both
// components, remerges, and passes the specification checker.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	evs "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	// Five processes on a simulated broadcast LAN, deterministic from
	// the seed. evs.New's first argument picks the runtime: here the
	// simulator; evs.RuntimeLive or evs.RuntimeUDP would run the
	// identical application over goroutines or real sockets (without the
	// Seed, which only the simulator takes). Scenario control
	// (virtual-time sends, partitions) lives on the concrete simulator
	// type, so assert to *evs.Group.
	c, err := evs.New(evs.RuntimeSim, evs.Options{NumProcesses: 5, Seed: 42})
	if err != nil {
		return err
	}
	defer c.Close()
	g := c.(*evs.Group)
	ids := g.IDs()

	// Observers see application events as they happen; any number can be
	// registered and each sees every event, in registration order.
	configChanges := 0
	g.AddObserver(evs.ObserverFuncs{
		ConfigChange: func(id evs.ProcessID, c evs.ConfigEvent) { configChanges++ },
	})

	// Safe delivery: once any member delivers, every member of the
	// component has the message and will deliver it unless it fails.
	g.Send(200*time.Millisecond, ids[0], []byte("hello, group"), evs.Safe)

	// Partition 3|2. Extended virtual synchrony keeps BOTH components
	// operating: each forms its own configuration and keeps ordering
	// new messages.
	g.Partition(400*time.Millisecond, ids[:3], ids[3:])
	g.Send(700*time.Millisecond, ids[0], []byte("from the majority"), evs.Safe)
	g.Send(700*time.Millisecond, ids[3], []byte("from the minority"), evs.Safe)

	// Remerge: one configuration again.
	g.Merge(900 * time.Millisecond)
	g.Send(1400*time.Millisecond, ids[4], []byte("back together"), evs.Safe)

	g.Run(2 * time.Second)

	for _, id := range ids {
		fmt.Printf("%s delivered:\n", id)
		for _, d := range g.Deliveries(id) {
			fmt.Printf("  %8.1fms  %-20q  from %-4s in %s\n",
				float64(d.Time.Microseconds())/1000, d.Payload, d.Msg.Sender, d.Config.ID)
		}
	}

	fmt.Println("\nconfiguration history of", ids[0], "(note transitional configurations):")
	for _, ce := range g.ConfigChanges(ids[0]) {
		fmt.Printf("  %8.1fms  %s\n", float64(ce.Time.Microseconds())/1000, ce.Config)
	}

	// Every execution can be verified against the paper's formal model.
	if violations := g.Check(true); len(violations) > 0 {
		for _, v := range violations {
			fmt.Println("violation:", v)
		}
		return fmt.Errorf("execution violates extended virtual synchrony")
	}
	fmt.Println("\nspecification check: clean (specifications 1-7 hold)")

	// The observability layer quantifies what the protocol did.
	m := g.Metrics()
	fmt.Printf("\nobserved: %d configuration changes, %d token rotations, %d messages delivered\n",
		configChanges,
		m.Total.Counters["totem_token_rotations_total"],
		m.Total.Counters["totem_msgs_delivered_total"])
	return nil
}
