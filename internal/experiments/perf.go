package experiments

import (
	"fmt"
	"time"

	evs "repro"
)

// RecoveryRow is one point of the recovery-cost series (T2).
type RecoveryRow struct {
	// Backlog is the number of messages still undelivered (blocked
	// behind an unacknowledgeable safe message) when the partition
	// strikes.
	Backlog int
	// RecoveryMs is the virtual time from the partition to the
	// surviving component's installation of its new regular
	// configuration.
	RecoveryMs float64
	// Rebroadcasts counts recovery rebroadcast traffic.
	Rebroadcasts int
}

// RecoveryMedian runs Recovery over several seeds and returns the row with
// the median recovery time, damping failure-detection timing outliers.
func RecoveryMedian(backlog int, seeds int) RecoveryRow {
	rows := make([]RecoveryRow, 0, seeds)
	for s := 0; s < seeds; s++ {
		r := Recovery(backlog, int64(s+1))
		if r.RecoveryMs > 0 {
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return RecoveryRow{Backlog: backlog, RecoveryMs: -1}
	}
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			if rows[j].RecoveryMs < rows[i].RecoveryMs {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
	}
	return rows[len(rows)/2]
}

// Recovery measures reconfiguration latency as a function of the message
// backlog outstanding at partition time. The backlog is created by
// partitioning one member away abruptly while traffic is in flight:
// messages queued behind unacknowledged safe messages must be exchanged
// and re-delivered during recovery.
func Recovery(backlog int, seed int64) RecoveryRow {
	g := evs.NewGroup(evs.Options{NumProcesses: 4, Seed: seed})
	ids := g.IDs()
	g.Run(300 * time.Millisecond)
	// Submit the backlog as a burst, then partition immediately so much
	// of it is still undelivered at the cut.
	at := g.Now() + 10*time.Millisecond
	for i := 0; i < backlog; i++ {
		g.Send(at, ids[i%3], make([]byte, 32), evs.Safe)
	}
	cut := at + 2*time.Millisecond
	g.Partition(cut, []evs.ProcessID{ids[0], ids[1], ids[2]}, []evs.ProcessID{ids[3]})

	rebroadcasts := 0
	g.OnWire(func(_ evs.ProcessID, kind string) {
		if kind == "data" && g.Now() > cut {
			rebroadcasts++
		}
	})
	g.Run(cut + 2*time.Second)

	// Find the surviving majority's new regular configuration install
	// time.
	var installed time.Duration
	for _, ce := range g.ConfigChanges(ids[0]) {
		if ce.Time > cut && ce.Config.ID.IsRegular() &&
			ce.Config.Members.Equal(evs.NewProcessSet(ids[0], ids[1], ids[2])) {
			installed = ce.Time
			break
		}
	}
	if installed == 0 {
		return RecoveryRow{Backlog: backlog, RecoveryMs: -1}
	}
	return RecoveryRow{
		Backlog:      backlog,
		RecoveryMs:   float64((installed - cut).Microseconds()) / 1000.0,
		Rebroadcasts: rebroadcasts,
	}
}

// AvailabilityRow is one point of the EVS-versus-VS availability series
// (T3).
type AvailabilityRow struct {
	// Split is the size of the larger component out of five processes.
	Split int
	// EVSActive is the fraction of live processes able to send and
	// deliver new messages during the partition under EVS.
	EVSActive float64
	// VSActive is the same fraction under the virtual synchrony filter
	// (primary component only).
	VSActive float64
}

// Availability partitions a five-process group into components of sizes
// (split, 5-split) with traffic everywhere, and measures which processes'
// applications make progress during the partition at each layer.
func Availability(split int, seed int64) AvailabilityRow {
	const n = 5
	g := evs.NewGroup(evs.Options{NumProcesses: n, Seed: seed, EnableVS: true})
	ids := g.IDs()
	g.Partition(300*time.Millisecond, ids[:split], ids[split:])
	// Every process sends during the partition.
	for i, id := range ids {
		g.Send(time.Duration(800+10*i)*time.Millisecond, id, []byte(fmt.Sprintf("m%d", i)), evs.Safe)
	}
	g.Run(1800 * time.Millisecond)

	evsActive, vsActive := 0, 0
	for _, id := range ids {
		// EVS progress: the process delivered a message sent after
		// the partition.
		for _, d := range g.Deliveries(id) {
			if d.Time > 800*time.Millisecond && len(d.Payload) > 0 && d.Payload[0] == 'm' {
				evsActive++
				break
			}
		}
		for _, e := range g.VSEvents(id) {
			if e.Deliver != nil && e.Time > 800*time.Millisecond && len(e.Deliver.Payload) > 0 && e.Deliver.Payload[0] == 'm' {
				vsActive++
				break
			}
		}
	}
	return AvailabilityRow{
		Split:     split,
		EVSActive: float64(evsActive) / n,
		VSActive:  float64(vsActive) / n,
	}
}

// PrimaryRow summarises the primary-history experiment (P1).
type PrimaryRow struct {
	Seed       int64
	Reconfigs  int
	Primaries  int
	Violations int
}

// PrimaryHistory drives a five-process group through a partition/merge
// storm with the primary layer enabled and checks Uniqueness and
// Continuity.
func PrimaryHistory(seed int64) PrimaryRow {
	g := evs.NewGroup(evs.Options{NumProcesses: 5, Seed: seed, EnablePrimary: true})
	ids := g.IDs()
	g.Partition(250*time.Millisecond, ids[:3], ids[3:])
	g.Partition(500*time.Millisecond, ids[:2], ids[2:4], ids[4:])
	g.Merge(750 * time.Millisecond)
	g.Partition(1000*time.Millisecond, ids[1:], ids[:1])
	g.Merge(1250 * time.Millisecond)
	g.Partition(1500*time.Millisecond, ids[:4], ids[4:])
	g.Merge(1750 * time.Millisecond)
	g.Run(2500 * time.Millisecond)

	row := PrimaryRow{Seed: seed}
	seen := map[string]bool{}
	for _, id := range ids {
		row.Reconfigs += len(g.ConfigChanges(id))
		for _, pe := range g.PrimaryEvents(id) {
			if pe.Primary && !seen[pe.Config.ID.String()] {
				seen[pe.Config.ID.String()] = true
				row.Primaries++
			}
		}
	}
	row.Violations = len(g.Check(true))
	return row
}
