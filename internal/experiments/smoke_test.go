package experiments

import (
	"testing"
	"time"

	evs "repro"
)

func TestSmokeAll(t *testing.T) {
	rows := Figures1to5(1)
	for _, r := range rows {
		if !r.Pass() {
			t.Errorf("checker row failed: %+v", r)
		}
	}
	f6 := Figure6(6)
	if !f6.QRTransitional || !f6.PIsolated || !f6.STOutside || len(f6.Violations) != 0 {
		t.Errorf("figure 6: %+v", f6)
	}
	f7 := Figure7(7)
	if f7.EVSDeliveriesMinority == 0 || f7.VSDeliveriesMinority != 0 ||
		len(f7.VSViolations) != 0 || len(f7.EVSViolations) != 0 {
		t.Errorf("figure 7: %+v", f7)
	}
	if n := throughputRun(3, 1, 500*time.Millisecond, nil); n/3 == 0 {
		t.Errorf("throughput: %d deliveries", n)
	}
	agreedMs, safeMs := unloadedLatencyMs(3, 1, 5, evs.Agreed), unloadedLatencyMs(3, 1, 5, evs.Safe)
	if agreedMs <= 0 || safeMs <= agreedMs {
		t.Errorf("latency: agreed %.3f ms, safe %.3f ms", agreedMs, safeMs)
	}
	rec := Recovery(50, 1)
	if rec.RecoveryMs <= 0 {
		t.Errorf("recovery: %+v", rec)
	}
	av := Availability(3, 1)
	if av.EVSActive != 1.0 || av.VSActive >= av.EVSActive {
		t.Errorf("availability: %+v", av)
	}
	pr := PrimaryHistory(1)
	if pr.Violations != 0 || pr.Primaries == 0 {
		t.Errorf("primary history: %+v", pr)
	}
}

// unloadedLatencyMs is the mean submit-to-self-delivery latency, in
// virtual milliseconds, of isolated messages (no queuing) at one service
// level: Safe waits roughly one more token rotation than Agreed.
func unloadedLatencyMs(size int, seed int64, samples int, svc evs.Service) float64 {
	g := evs.NewGroup(evs.Options{NumProcesses: size, Seed: seed})
	ids := g.IDs()
	g.Run(300 * time.Millisecond)
	var total time.Duration
	for i := 0; i < samples; i++ {
		at := g.Now() + 20*time.Millisecond
		sender := ids[i%size]
		g.Send(at, sender, []byte{byte(i)}, svc)
		before := len(g.Deliveries(sender))
		g.Run(at + 150*time.Millisecond)
		ds := g.Deliveries(sender)
		if len(ds) <= before {
			continue
		}
		total += ds[len(ds)-1].Time - at
	}
	return float64(total.Microseconds()) / float64(samples) / 1000.0
}
