// Chat: the process group paradigm over extended virtual synchrony. Rooms
// are named process groups multiplexed over one transport; membership
// views derive from the safe total order, so every member of a room sees
// the same sequence of joins, leaves and messages — and when the network
// partitions, each component's rooms shrink to the reachable members and
// keep working.
//
// Run with: go run ./examples/chat
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
	ids := []evs.ProcessID{"alice", "bob", "carol", "dave"}
	g := evs.NewGroup(evs.Options{Processes: ids, Seed: 99})
	rooms, err := evs.NewTopics(g, evs.TopicsOptions{})
	if err != nil {
		return err
	}

	// Everyone joins #general; alice and bob also share #ops.
	for i, id := range ids {
		rooms.Join(time.Duration(200+10*i)*time.Millisecond, id, "general")
	}
	rooms.Join(260*time.Millisecond, "alice", "ops")
	rooms.Join(270*time.Millisecond, "bob", "ops")

	rooms.Send(400*time.Millisecond, "alice", "general", []byte("hi all"))
	rooms.Send(420*time.Millisecond, "bob", "ops", []byte("deploy at noon"))

	// carol and dave are cut off; #general splits into two working
	// halves.
	g.Partition(500*time.Millisecond, []evs.ProcessID{"alice", "bob"}, []evs.ProcessID{"carol", "dave"})
	rooms.Send(800*time.Millisecond, "carol", "general", []byte("anyone there?"))
	rooms.Send(820*time.Millisecond, "alice", "general", []byte("ops side here"))

	g.Merge(1000 * time.Millisecond)
	rooms.Send(1500*time.Millisecond, "dave", "general", []byte("back together"))
	g.Run(2200 * time.Millisecond)

	for _, id := range ids {
		fmt.Printf("%s sees in #general:\n", id)
		for _, d := range rooms.Deliveries(id, "general") {
			fmt.Printf("   <%s> %s\n", d.Sender, d.Payload)
		}
	}
	fmt.Println()
	fmt.Printf("#ops deliveries at carol (never joined): %d\n", len(rooms.Deliveries("carol", "ops")))
	v := rooms.View("alice", "general")
	fmt.Printf("#general view after merge: %s\n", v.Members)

	if !v.Members.Equal(evs.NewProcessSet(ids...)) {
		return fmt.Errorf("post-merge room view incomplete: %v", v.Members)
	}
	if vs := g.Check(true); len(vs) != 0 {
		return fmt.Errorf("specification violations: %v", vs)
	}
	fmt.Println("specification check: clean")
	return nil
}
