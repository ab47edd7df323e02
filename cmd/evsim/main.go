// Command evsim runs named extended-virtual-synchrony scenarios and prints
// the per-process configuration and delivery traces together with the
// specification checker's verdict.
//
// Usage:
//
//	evsim [-scenario name] [-seed N] [-trace]
//
// Scenarios: figure6, partition, crash, churn.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	evs "repro"
)

func main() {
	scenario := flag.String("scenario", "figure6", "scenario: figure6 | partition | crash | churn")
	seed := flag.Int64("seed", 1, "simulation seed")
	trace := flag.Bool("trace", false, "print the full formal-model event trace")
	flag.Parse()
	if err := run(*scenario, *seed, *trace); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(name string, seed int64, trace bool) error {
	var g *evs.Group
	switch name {
	case "figure6":
		g = figure6(seed)
	case "partition":
		g = partition(seed)
	case "crash":
		g = crash(seed)
	case "churn":
		g = churn(seed)
	default:
		return fmt.Errorf("unknown scenario %q (want figure6 | partition | crash | churn)", name)
	}

	fmt.Printf("scenario %s (seed %d)\n", name, seed)
	fmt.Println("----------------------------------------------------------")
	for _, id := range g.IDs() {
		fmt.Printf("%s  configurations:\n", id)
		for _, ce := range g.ConfigChanges(id) {
			fmt.Printf("    %8.1fms  %s\n", ms(ce.Time), ce.Config)
		}
		fmt.Printf("%s  deliveries:\n", id)
		for _, d := range g.Deliveries(id) {
			fmt.Printf("    %8.1fms  %s %-7s %q in %s\n",
				ms(d.Time), d.Msg, d.Service, trunc(string(d.Payload)), d.Config.ID)
		}
	}
	if trace {
		fmt.Println("formal-model trace:")
		for _, e := range g.History() {
			fmt.Printf("    %s\n", e)
		}
	}
	violations := g.Check(true)
	fmt.Println("----------------------------------------------------------")
	fmt.Printf("specification check: %d violations\n", len(violations))
	for _, v := range violations {
		fmt.Printf("    %s\n", v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("execution violates the EVS specifications")
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000.0 }

func trunc(s string) string {
	if len(s) > 16 {
		return s[:16] + "..."
	}
	return s
}

// figure6 reproduces the paper's worked example.
func figure6(seed int64) *evs.Group {
	ids := []evs.ProcessID{"p", "q", "r", "s", "t"}
	g := evs.NewGroup(evs.Options{Processes: ids, Seed: seed})
	g.Partition(0, []evs.ProcessID{"p", "q", "r"}, []evs.ProcessID{"s", "t"})
	for i := 0; i < 6; i++ {
		g.Send(time.Duration(150+i*8)*time.Millisecond, ids[i%3],
			[]byte(fmt.Sprintf("msg-%d", i)), evs.Safe)
	}
	g.Partition(300*time.Millisecond, []evs.ProcessID{"p"}, []evs.ProcessID{"q", "r", "s", "t"})
	g.Run(900 * time.Millisecond)
	return g
}

// partition splits a four-process group, runs traffic on both sides, and
// merges.
func partition(seed int64) *evs.Group {
	g := evs.NewGroup(evs.Options{NumProcesses: 4, Seed: seed})
	ids := g.IDs()
	g.Send(200*time.Millisecond, ids[0], []byte("before"), evs.Safe)
	g.Partition(300*time.Millisecond, ids[:2], ids[2:])
	g.Send(500*time.Millisecond, ids[0], []byte("left"), evs.Safe)
	g.Send(500*time.Millisecond, ids[2], []byte("right"), evs.Safe)
	g.Merge(700 * time.Millisecond)
	g.Send(1100*time.Millisecond, ids[1], []byte("after"), evs.Safe)
	g.Run(1800 * time.Millisecond)
	return g
}

// crash fails a process mid-traffic and recovers it with stable storage
// intact.
func crash(seed int64) *evs.Group {
	g := evs.NewGroup(evs.Options{NumProcesses: 3, Seed: seed})
	ids := g.IDs()
	g.Send(200*time.Millisecond, ids[0], []byte("one"), evs.Safe)
	g.Crash(300*time.Millisecond, ids[2])
	g.Send(500*time.Millisecond, ids[1], []byte("two"), evs.Safe)
	g.Recover(700*time.Millisecond, ids[2])
	g.Send(1200*time.Millisecond, ids[2], []byte("three"), evs.Safe)
	g.Run(2 * time.Second)
	return g
}

// churn stresses cascading partitions and merges.
func churn(seed int64) *evs.Group {
	g := evs.NewGroup(evs.Options{NumProcesses: 5, Seed: seed})
	ids := g.IDs()
	for i := 0; i < 20; i++ {
		g.Send(time.Duration(150+i*40)*time.Millisecond, ids[i%5],
			[]byte(fmt.Sprintf("m%d", i)), evs.Safe)
	}
	g.Partition(250*time.Millisecond, ids[:2], ids[2:])
	g.Partition(450*time.Millisecond, ids[:2], ids[2:4], ids[4:])
	g.Merge(650 * time.Millisecond)
	g.Partition(850*time.Millisecond, ids[:4], ids[4:])
	g.Merge(1050 * time.Millisecond)
	g.Run(2 * time.Second)
	return g
}
