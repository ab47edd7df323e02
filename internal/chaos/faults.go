// Faults beyond the paper's model.
//
// The paper's failure model — partitions, merges, and crashes that keep
// stable storage — is evs.Group's own vocabulary. The faults here go
// beyond it: stable-storage corruption at crash time, live in-memory
// perturbation, one-way cuts, latency spikes and message-class loss. They
// reach the store and the node through the group's processes and the
// medium through Group.Network, and each is scheduled at a virtual time
// like any other action, so an execution stays deterministic and
// replayable from its seed.

package chaos

import (
	"time"

	evs "repro"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// Corruption selects a stable-storage fault injected when a process
// crashes (see internal/stable for the fault model and its bounds). Saved
// programs carry it as an integer, so the values never change.
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

// FaultStats counts the faults that materialized: a scheduled fault only
// counts when it actually changed state (the soak asserts every mode
// materializes).
type FaultStats struct {
	// Corruptions counts stable-storage faults injected at crash time.
	Corruptions uint64
	// Per-mode counters of the self-stabilization fault model, at crash
	// time or live.
	SeqWraps          uint64
	RingRegressions   uint64
	ObligationPoisons uint64
	LogFlips          uint64
	// Perturbations counts live in-memory faults applied to running
	// nodes between token visits (as opposed to crash-time faults).
	Perturbations uint64
}

// injector schedules the faults beyond the paper's model on one group
// and counts those that materialized.
type injector struct {
	g     *evs.Group
	stats FaultStats
	// drops holds the active message-class loss rules, consulted by
	// the medium filter installed on first use.
	drops map[dropKey]map[string]bool
}

// crashCorrupt schedules a process failure at time t that additionally
// damages the process's stable storage: mode selects the fault and n
// bounds how many records a lost suffix may destroy.
func (f *injector) crashCorrupt(t time.Duration, id model.ProcessID, mode Corruption, n int) {
	f.g.At(t, func() {
		f.g.Recorder.Crash(id)
		f.g.Network().SetDown(id, true)
		store := f.g.Proc(id).Store()
		switch mode {
		case CorruptTornWrite:
			if store.TearLastWrite() {
				f.stats.Corruptions++
			}
		case CorruptLostSuffix:
			if store.LoseLogSuffix(n) > 0 {
				f.stats.Corruptions++
			}
		case CorruptSeqWrap:
			if store.WrapSenderSeq() {
				f.stats.Corruptions++
				f.stats.SeqWraps++
			}
		case CorruptRingSeqRegress:
			if store.RegressRingSeq() {
				f.stats.Corruptions++
				f.stats.RingRegressions++
			}
		case CorruptObligations:
			if store.PoisonObligations(n) > 0 {
				f.stats.Corruptions++
				f.stats.ObligationPoisons++
			}
		case CorruptLogFlip:
			if store.FlipLogBits(n) > 0 {
				f.stats.Corruptions++
				f.stats.LogFlips++
			}
		}
	})
}

// perturb schedules an in-memory corruption of a live node at time t:
// the transient faults of the self-stabilization model, applied between
// token visits rather than at crash time. mode selects the fault
// (CorruptSeqWrap, CorruptRingSeqRegress or CorruptObligations; the
// storage-only modes are no-ops here) and n sizes an obligation poison.
// A perturbation of a down process is a no-op; only faults that
// actually changed state are counted.
func (f *injector) perturb(t time.Duration, id model.ProcessID, mode Corruption, n int) {
	f.g.At(t, func() {
		node := f.g.Proc(id).Node()
		hit := false
		switch mode {
		case CorruptSeqWrap:
			if node.PerturbSenderSeq() {
				f.stats.SeqWraps++
				hit = true
			}
		case CorruptRingSeqRegress:
			if node.PerturbRingSeq() {
				f.stats.RingRegressions++
				hit = true
			}
		case CorruptObligations:
			if node.PerturbObligations(n) {
				f.stats.ObligationPoisons++
				hit = true
			}
		}
		if hit {
			f.stats.Perturbations++
		}
	})
}

// oneWay schedules an asymmetric cut at time t: packets from any process
// in from to any process in to are lost, while the reverse direction keeps
// flowing. Repeated calls accumulate.
func (f *injector) oneWay(t time.Duration, from, to []model.ProcessID) {
	f.g.At(t, func() {
		for _, a := range from {
			for _, b := range to {
				if a == b {
					continue
				}
				f.g.Network().SetLinkRule(a, b, netsim.LinkRule{Block: true})
			}
		}
	})
}

// delaySpike schedules a latency burst at time t: every link gains extra
// fixed delay plus uniformly distributed jitter, which reorders packets
// aggressively once jitter exceeds the packet spacing.
func (f *injector) delaySpike(t time.Duration, extra, jitter time.Duration) {
	f.g.At(t, func() {
		f.g.Network().SetLinkRule(netsim.Wildcard, netsim.Wildcard,
			netsim.LinkRule{Delay: extra, Jitter: jitter})
	})
}

// healLinks schedules removal of every directional link rule (one-way
// cuts, delay spikes) at time t. Symmetric partitions are unaffected;
// heal those with Group.Merge.
func (f *injector) healLinks(t time.Duration) {
	f.g.At(t, func() { f.g.Network().ClearLinkRules() })
}

// dropKey scopes a message-class loss rule to a directed pair; the zero
// ProcessID is a wildcard.
type dropKey struct {
	from, to model.ProcessID
}

// dropKinds schedules targeted loss at time t: wire messages whose
// Kind() is listed stop flowing from from to to (either may be
// netsim.Wildcard to match every process). Repeated calls accumulate.
func (f *injector) dropKinds(t time.Duration, from, to model.ProcessID, kinds ...string) {
	f.g.At(t, func() {
		if f.drops == nil {
			f.drops = make(map[dropKey]map[string]bool)
			f.g.Network().SetFilter(f.filterKinds)
		}
		k := dropKey{from, to}
		if f.drops[k] == nil {
			f.drops[k] = make(map[string]bool)
		}
		for _, kind := range kinds {
			f.drops[k][kind] = true
		}
	})
}

// clearKindDrops schedules removal of every message-class loss rule at
// time t.
func (f *injector) clearKindDrops(t time.Duration) {
	f.g.At(t, func() {
		f.drops = nil
		f.g.Network().SetFilter(nil)
	})
}

// filterKinds is the medium filter consulting the active drop rules. A
// wire.DataBatch is a packet of the "data" class: dropping either class
// ("data" or "data_batch") on the link loses the packet and everything it
// carries, exactly as a "data" rule lost each individual data packet
// before batching.
func (f *injector) filterKinds(from, to model.ProcessID, payload any) bool {
	msg, ok := payload.(wire.Message)
	if !ok {
		return true
	}
	if _, isBatch := msg.(wire.DataBatch); isBatch {
		return !f.dropsKind(from, to, "data") && !f.dropsKind(from, to, msg.Kind())
	}
	return !f.dropsKind(from, to, msg.Kind())
}

// dropsKind reports whether an active rule drops the kind on the link.
func (f *injector) dropsKind(from, to model.ProcessID, kind string) bool {
	for _, k := range [4]dropKey{
		{from, to}, {from, netsim.Wildcard}, {netsim.Wildcard, to}, {netsim.Wildcard, netsim.Wildcard},
	} {
		if kinds, ok := f.drops[k]; ok && kinds[kind] {
			return true
		}
	}
	return false
}
