// Fault injection surface of the cluster harness.
//
// Scenario scripts and the chaos engine (internal/chaos) drive faults
// through these helpers instead of poking the network directly, so every
// fault is scheduled at a virtual time like any other action and the whole
// execution stays deterministic and replayable from the seed.
package harness

import (
	"time"

	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// Stats counts client-facing harness activity.
type Stats struct {
	// Submitted, Rejected (process down) and Backlogged (send backlog
	// full, node.ErrBacklog) count client submissions; the recorder keeps
	// them.
	Submitted, Rejected, Backlogged uint64
	// Corruptions counts stable-storage faults injected at crash time.
	Corruptions uint64
	// Per-mode materialization counters for the self-stabilization
	// fault model: a scheduled fault only counts when it actually
	// changed state (the soak asserts every mode materializes).
	SeqWraps          uint64
	RingRegressions   uint64
	ObligationPoisons uint64
	LogFlips          uint64
	// Perturbations counts live in-memory faults applied to running
	// nodes between token visits (as opposed to crash-time faults).
	Perturbations uint64
}

// Stats returns a copy of the activity counters.
func (c *Cluster) Stats() Stats {
	rs := c.Recorder.Stats()
	st := c.stats
	st.Submitted, st.Rejected, st.Backlogged = rs.Submitted, rs.Rejected, rs.Backlogged
	return st
}

// Corruption selects a stable-storage fault injected when a process
// crashes (see internal/stable for the fault model and its bounds).
type Corruption int

const (
	// CorruptNone leaves stable storage intact (the paper's model).
	CorruptNone Corruption = iota
	// CorruptTornWrite destroys the log record whose write raced the
	// crash, if any.
	CorruptTornWrite
	// CorruptLostSuffix destroys unflushed tail records above the
	// known-safe watermark.
	CorruptLostSuffix
	// CorruptSeqWrap wraps the sender sequence counter back to half
	// its value (transient counter corruption; healed from SeenSeqs
	// observation evidence).
	CorruptSeqWrap
	// CorruptRingSeqRegress regresses the configuration freshness
	// counter (healed from installed-configuration evidence and peers'
	// joins).
	CorruptRingSeqRegress
	// CorruptObligations plants ghost processes in the obligation set
	// (rejected at recovery start).
	CorruptObligations
	// CorruptLogFlip flips bits in the newest stored log entries
	// (detected by checksums at load; gaps re-requested from peers).
	CorruptLogFlip
)

// String names the corruption mode.
func (m Corruption) String() string {
	switch m {
	case CorruptNone:
		return "none"
	case CorruptTornWrite:
		return "torn_write"
	case CorruptLostSuffix:
		return "lost_suffix"
	case CorruptSeqWrap:
		return "seq_wrap"
	case CorruptRingSeqRegress:
		return "ring_seq_regress"
	case CorruptObligations:
		return "poison_obligations"
	case CorruptLogFlip:
		return "log_bit_flip"
	default:
		return "corruption(?)"
	}
}

// CrashCorrupt schedules a process failure at time t that additionally
// damages the process's stable storage: mode selects the fault and n
// bounds how many records a lost suffix may destroy.
func (c *Cluster) CrashCorrupt(t time.Duration, id model.ProcessID, mode Corruption, n int) {
	c.At(t, func() {
		c.Recorder.Crash(id)
		c.Net.SetDown(id, true)
		switch mode {
		case CorruptTornWrite:
			if c.Store(id).TearLastWrite() {
				c.stats.Corruptions++
			}
		case CorruptLostSuffix:
			if c.Store(id).LoseLogSuffix(n) > 0 {
				c.stats.Corruptions++
			}
		case CorruptSeqWrap:
			if c.Store(id).WrapSenderSeq() {
				c.stats.Corruptions++
				c.stats.SeqWraps++
			}
		case CorruptRingSeqRegress:
			if c.Store(id).RegressRingSeq() {
				c.stats.Corruptions++
				c.stats.RingRegressions++
			}
		case CorruptObligations:
			if c.Store(id).PoisonObligations(n) > 0 {
				c.stats.Corruptions++
				c.stats.ObligationPoisons++
			}
		case CorruptLogFlip:
			if c.Store(id).FlipLogBits(n) > 0 {
				c.stats.Corruptions++
				c.stats.LogFlips++
			}
		}
	})
}

// Perturb schedules an in-memory corruption of a live node at time t:
// the transient faults of the self-stabilization model, applied between
// token visits rather than at crash time. mode selects the fault
// (CorruptSeqWrap, CorruptRingSeqRegress or CorruptObligations; the
// storage-only modes are no-ops here) and n sizes an obligation poison.
// A perturbation of a down process is a no-op; only faults that
// actually changed state are counted.
func (c *Cluster) Perturb(t time.Duration, id model.ProcessID, mode Corruption, n int) {
	c.At(t, func() {
		node := c.Node(id)
		hit := false
		switch mode {
		case CorruptSeqWrap:
			if node.PerturbSenderSeq() {
				c.stats.SeqWraps++
				hit = true
			}
		case CorruptRingSeqRegress:
			if node.PerturbRingSeq() {
				c.stats.RingRegressions++
				hit = true
			}
		case CorruptObligations:
			if node.PerturbObligations(n) {
				c.stats.ObligationPoisons++
				hit = true
			}
		}
		if hit {
			c.stats.Perturbations++
		}
	})
}

// OneWay schedules an asymmetric cut at time t: packets from any process
// in from to any process in to are lost, while the reverse direction keeps
// flowing. Repeated calls accumulate.
func (c *Cluster) OneWay(t time.Duration, from, to []model.ProcessID) {
	c.At(t, func() {
		for _, f := range from {
			for _, r := range to {
				if f == r {
					continue
				}
				c.Net.SetLinkRule(f, r, netsim.LinkRule{Block: true})
			}
		}
	})
}

// DelaySpike schedules a latency burst at time t: every link gains extra
// fixed delay plus uniformly distributed jitter, which reorders packets
// aggressively once jitter exceeds the packet spacing.
func (c *Cluster) DelaySpike(t time.Duration, extra, jitter time.Duration) {
	c.At(t, func() {
		c.Net.SetLinkRule(netsim.Wildcard, netsim.Wildcard,
			netsim.LinkRule{Delay: extra, Jitter: jitter})
	})
}

// LinkLoss schedules directional packet loss on every link at time t.
func (c *Cluster) LinkLoss(t time.Duration, rate float64) {
	c.At(t, func() {
		c.Net.SetLinkRule(netsim.Wildcard, netsim.Wildcard,
			netsim.LinkRule{Drop: rate})
	})
}

// HealLinks schedules removal of every directional link rule (one-way
// cuts, delay spikes, link loss) at time t. Symmetric partitions installed
// with Partition are unaffected; heal those with Merge.
func (c *Cluster) HealLinks(t time.Duration) {
	c.At(t, func() { c.Net.ClearLinkRules() })
}

// dropKey scopes a message-class loss rule to a directed pair; the zero
// ProcessID is a wildcard.
type dropKey struct {
	from, to model.ProcessID
}

// DropKinds schedules targeted loss at time t: wire messages whose
// Kind() is listed stop flowing from from to to (either may be
// netsim.Wildcard to match every process). Repeated calls accumulate.
func (c *Cluster) DropKinds(t time.Duration, from, to model.ProcessID, kinds ...string) {
	c.At(t, func() {
		if c.dropKinds == nil {
			c.dropKinds = make(map[dropKey]map[string]bool)
			c.Net.SetFilter(c.filterKinds)
		}
		k := dropKey{from, to}
		if c.dropKinds[k] == nil {
			c.dropKinds[k] = make(map[string]bool)
		}
		for _, kind := range kinds {
			c.dropKinds[k][kind] = true
		}
	})
}

// ClearKindDrops schedules removal of every message-class loss rule at
// time t.
func (c *Cluster) ClearKindDrops(t time.Duration) {
	c.At(t, func() {
		c.dropKinds = nil
		c.Net.SetFilter(nil)
	})
}

// filterKinds is the netsim filter consulting the active drop rules. A
// wire.DataBatch is a packet of the "data" class: dropping either class
// ("data" or "data_batch") on the link loses the packet and everything it
// carries, exactly as a "data" rule lost each individual data packet
// before batching.
func (c *Cluster) filterKinds(from, to model.ProcessID, payload any) bool {
	msg, ok := payload.(wire.Message)
	if !ok {
		return true
	}
	if _, isBatch := msg.(wire.DataBatch); isBatch {
		return !c.dropsKind(from, to, "data") && !c.dropsKind(from, to, msg.Kind())
	}
	return !c.dropsKind(from, to, msg.Kind())
}

// dropsKind reports whether an active rule drops the kind on the link.
func (c *Cluster) dropsKind(from, to model.ProcessID, kind string) bool {
	for _, k := range [4]dropKey{
		{from, to}, {from, netsim.Wildcard}, {netsim.Wildcard, to}, {netsim.Wildcard, netsim.Wildcard},
	} {
		if kinds, ok := c.dropKinds[k]; ok && kinds[kind] {
			return true
		}
	}
	return false
}
