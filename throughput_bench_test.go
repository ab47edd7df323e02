package evs

import (
	"fmt"
	"testing"
	"time"
)

// The N1 experiment (EXPERIMENTS.md): end-to-end ordered-delivery
// throughput of the same 4-process protocol stack on the wall clock over
// its three media — the in-process channel hub, the UDP transport and the
// TCP mesh, both on loopback. One process submits, the benchmark waits
// until every process has delivered everything, so the measured rate is
// the sequenced-and-delivered-everywhere rate, not the submission rate.
// The clusters run with DiscardHistory and the wait polls the recorder's
// delivery count, so the figure is the medium's, not the retention's.
//
//	go test -run xxx -bench RuntimeThroughput -benchtime 2000x .

func benchThroughput(b *testing.B, c *LiveGroup) {
	if !c.WaitOperational(10 * time.Second) {
		b.Fatal("cluster did not form")
	}
	ids := c.IDs()
	sender := ids[0]
	payload := []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			if err := c.Submit(sender, payload, Agreed); err == nil {
				break
			}
			// Backlogged flow control: yield and retry.
			time.Sleep(200 * time.Microsecond)
		}
	}
	for _, id := range ids {
		if !c.WaitDeliveries(id, b.N, 120*time.Second) {
			b.Fatalf("%s delivered %d of %d", id, c.DeliveryCount(id), b.N)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
}

func BenchmarkRuntimeThroughput(b *testing.B) {
	for _, rt := range []Runtime{RuntimeLive, RuntimeUDP, RuntimeTCP} {
		b.Run(fmt.Sprintf("%v", rt), func(b *testing.B) {
			c, err := New(WithRuntime(rt), WithSimOptions(Options{NumProcesses: 4, DiscardHistory: true}))
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			benchThroughput(b, c.(*LiveGroup))
		})
	}
}
