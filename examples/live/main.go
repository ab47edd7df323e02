// Live: the same protocol stack as the other examples — primary component
// layer included — but on the wall clock over the in-process hub instead
// of the deterministic simulator: four processes forming a ring, ordering
// concurrent traffic, surviving a partition and a merge in real time.
//
// Run with: go run ./examples/live
package main

import (
	"fmt"
	"os"
	"sync"
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
	// The wall-clock cluster on the in-process hub (RuntimeUDP/RuntimeTCP
	// run the same group over loopback sockets); partition and merge
	// control is on *evs.LiveGroup. The layer options reach every
	// runtime, so the Section 5 primary layer runs here too.
	g, err := evs.NewLiveGroup(evs.RuntimeLive, evs.Options{NumProcesses: 4, EnablePrimary: true})
	if err != nil {
		return err
	}
	defer g.Close()

	start := time.Now()
	if !g.WaitOperational(5 * time.Second) {
		return fmt.Errorf("group did not form")
	}
	ids := g.IDs()
	fmt.Printf("%-8s group %v operational\n", since(start), ids)

	// The live runtime exposes the protocol's metrics over HTTP while it
	// runs: Prometheus text at /metrics, JSON at /metrics?format=json.
	if addr, err := g.ServeMetrics("127.0.0.1:0"); err == nil {
		fmt.Printf("%-8s metrics at http://%s/metrics\n", since(start), addr)
	}

	// Four goroutines send concurrently; the ring orders them totally.
	var wg sync.WaitGroup
	for _, id := range ids {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_ = g.Submit(id, []byte(fmt.Sprintf("%s#%d", id, i)), evs.Safe)
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	for _, id := range ids {
		if !g.WaitDeliveries(id, 40, 10*time.Second) {
			return fmt.Errorf("%s delivered only %d of 40", id, g.DeliveryCount(id))
		}
	}
	fmt.Printf("%-8s 40 concurrent messages safely delivered at all 4 processes\n", since(start))

	// All processes agree on the order.
	ref := g.Deliveries(ids[0])
	for _, id := range ids[1:] {
		ds := g.Deliveries(id)
		for i := range ref {
			if ds[i].Msg != ref[i].Msg {
				return fmt.Errorf("%s disagrees on delivery %d", id, i)
			}
		}
	}
	fmt.Printf("%-8s identical total order at every process\n", since(start))

	// Partition in real time: both halves keep working. Only the hub can
	// cut itself; over sockets Partition returns evs.ErrNoPartition.
	if err := g.Partition(ids[:3], ids[3:]); err != nil {
		return err
	}
	fmt.Printf("%-8s partitioned %v | %v\n", since(start), ids[:3], ids[3:])
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_ = g.Submit(ids[0], []byte("left"), evs.Agreed)
		_ = g.Submit(ids[3], []byte("right"), evs.Agreed)
		time.Sleep(10 * time.Millisecond)
		if has(g, ids[1], "left") && has(g, ids[3], "right") {
			break
		}
	}
	if !has(g, ids[1], "left") || !has(g, ids[3], "right") {
		return fmt.Errorf("partitioned components made no progress")
	}
	fmt.Printf("%-8s both components delivering independently\n", since(start))

	// The primary component algorithm runs on the wall clock as it does in
	// the simulator: the majority side is primary, the minority is not.
	time.Sleep(100 * time.Millisecond) // let both sides decide
	for _, id := range []evs.ProcessID{ids[0], ids[3]} {
		if vs := g.PrimaryEvents(id); len(vs) > 0 {
			last := vs[len(vs)-1]
			fmt.Printf("%-8s %s: component %v primary=%v\n", since(start), id, last.Config.Members, last.Primary)
		}
	}

	if err := g.Merge(); err != nil {
		return err
	}
	if !g.WaitOperational(10 * time.Second) {
		return fmt.Errorf("merge did not converge")
	}
	fmt.Printf("%-8s remerged into one configuration\n", since(start))

	if vs := g.Check(false); len(vs) != 0 {
		return fmt.Errorf("specification violations: %v", vs)
	}
	fmt.Printf("%-8s specification check clean\n", since(start))

	m := g.Metrics()
	fmt.Printf("%-8s %d token rotations, %d messages delivered, %d configurations installed\n",
		since(start),
		m.Total.Counters["totem_token_rotations_total"],
		m.Total.Counters["totem_msgs_delivered_total"],
		m.Total.Counters["node_configs_regular_total"])
	return nil
}

func has(g *evs.LiveGroup, id evs.ProcessID, payload string) bool {
	for _, d := range g.Deliveries(id) {
		if string(d.Payload) == payload {
			return true
		}
	}
	return false
}

func since(t time.Time) string {
	return fmt.Sprintf("[%.2fs]", time.Since(t).Seconds())
}
