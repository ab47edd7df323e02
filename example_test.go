package evs_test

import (
	"fmt"
	"time"

	evs "repro"
)

// The basic flow: create a group, send a safe message, run, read
// deliveries, verify the execution against the formal model.
func Example() {
	g := evs.NewGroup(evs.Options{NumProcesses: 3, Seed: 7})
	ids := g.IDs()
	g.Send(200*time.Millisecond, ids[0], []byte("hello"), evs.Safe)
	g.Run(time.Second)

	d := g.Deliveries(ids[1])[0]
	fmt.Printf("%s delivered %q from %s\n", ids[1], d.Payload, d.Msg.Sender)
	fmt.Printf("violations: %d\n", len(g.Check(true)))
	// Output:
	// p02 delivered "hello" from p01
	// violations: 0
}

// Partitioned operation: both components of a split network keep
// delivering — the property that distinguishes extended virtual synchrony
// from the primary-partition model.
func Example_partition() {
	g := evs.NewGroup(evs.Options{NumProcesses: 4, Seed: 8})
	ids := g.IDs()
	g.Partition(300*time.Millisecond, ids[:2], ids[2:])
	g.Send(600*time.Millisecond, ids[0], []byte("left"), evs.Safe)
	g.Send(600*time.Millisecond, ids[2], []byte("right"), evs.Safe)
	g.Run(1200 * time.Millisecond)

	fmt.Printf("left side delivered:  %s\n", g.Deliveries(ids[1])[0].Payload)
	fmt.Printf("right side delivered: %s\n", g.Deliveries(ids[3])[0].Payload)
	// Output:
	// left side delivered:  left
	// right side delivered: right
}

// The virtual synchrony layer: the Section 5 filter blocks non-primary
// components, recovering Birman's model on top of EVS.
func Example_virtualSynchrony() {
	g := evs.NewGroup(evs.Options{NumProcesses: 5, Seed: 9, EnableVS: true})
	ids := g.IDs()
	g.Partition(300*time.Millisecond, ids[:3], ids[3:])
	g.Send(800*time.Millisecond, ids[0], []byte("majority"), evs.Safe)
	g.Send(800*time.Millisecond, ids[3], []byte("minority"), evs.Safe)
	g.Run(1500 * time.Millisecond)

	evsMinority := len(g.Deliveries(ids[4]))
	vsMinority := 0
	for _, e := range g.VSEvents(ids[4]) {
		if e.Deliver != nil {
			vsMinority++
		}
	}
	fmt.Printf("EVS delivers in the minority component: %v\n", evsMinority > 0)
	fmt.Printf("VS blocks the minority component:       %v\n", vsMinority == 0)
	fmt.Printf("VS model violations: %d\n", len(g.CheckVS(true)))
	// Output:
	// EVS delivers in the minority component: true
	// VS blocks the minority component:       true
	// VS model violations: 0
}

// Named process groups over one transport.
func ExampleTopics() {
	g := evs.NewGroup(evs.Options{NumProcesses: 3, Seed: 10})
	rooms, _ := evs.NewTopics(g, evs.TopicsOptions{})
	ids := g.IDs()
	rooms.Join(200*time.Millisecond, ids[0], "chat")
	rooms.Join(210*time.Millisecond, ids[1], "chat")
	rooms.Send(400*time.Millisecond, ids[0], "chat", []byte("hi"))
	g.Run(time.Second)

	fmt.Printf("member got: %s\n", rooms.Deliveries(ids[1], "chat")[0].Payload)
	fmt.Printf("non-member got: %d messages\n", len(rooms.Deliveries(ids[2], "chat")))
	fmt.Printf("view: %s\n", rooms.View(ids[0], "chat").Members)
	// Output:
	// member got: hi
	// non-member got: 0 messages
	// view: {p01,p02}
}
