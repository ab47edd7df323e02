package node

import (
	"time"

	"repro/internal/evs"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/seqlog"
	"repro/internal/totem"
	"repro/internal/wire"
)

// OnMessage routes a received wire message through the protocol stack.
func (n *Node) OnMessage(from model.ProcessID, msg wire.Message) {
	if n.mode == Down {
		return
	}
	if n.mem != nil && from != n.id {
		n.mem.NoteTraffic(from)
	}
	switch m := msg.(type) {
	case wire.Data:
		n.onData(from, m)
	case wire.DataBatch:
		// A batch is pure transport packing: each element is processed
		// exactly as if it had arrived in its own packet. The
		// operational same-ring case — the hot path — ingests the whole
		// batch in one pass: one delivery scan, one log write and one
		// scalar persist per packet instead of one per message.
		if n.mode == Operational && n.ring != nil && m.Ring == n.ringCfg.ID {
			n.onDataBatch(m)
			return
		}
		for _, d := range m.Msgs {
			if n.mode == Down {
				return
			}
			n.onData(from, d)
		}
	case wire.Token:
		n.onToken(from, m)
	case wire.Join:
		n.onJoin(m)
	case wire.Commit:
		n.maybeForeign(from, m.NewRing)
		n.applyMemActions(n.mem.OnCommit(m))
		n.reconcileMemTimers()
	case wire.CommitAck:
		n.applyMemActions(n.mem.OnCommitAck(m))
		n.reconcileMemTimers()
	case wire.Install:
		n.maybeForeign(from, m.NewRing)
		n.applyMemActions(n.mem.OnInstall(m))
		n.reconcileMemTimers()
	case wire.Exchange:
		if n.mode == Recovering && m.Ring == n.newRing.ID {
			n.applyRecActions(n.rec.OnExchange(m))
			return
		}
		if n.preBufferable(m.Ring) {
			n.preBuffer = append(n.preBuffer, bufferedMsg{from: from, msg: m})
			return
		}
		n.maybeForeign(from, m.Ring)
	case wire.RecoveryDone:
		if n.mode == Recovering && m.Ring == n.newRing.ID {
			n.applyRecActions(n.rec.OnDone(m))
			return
		}
		if n.preBufferable(m.Ring) {
			n.preBuffer = append(n.preBuffer, bufferedMsg{from: from, msg: m})
			return
		}
		n.maybeForeign(from, m.Ring)
	}
}

// preBufferable reports whether a message belongs to the ring this node has
// committed to but not yet been told to install: the representative's
// recovery traffic can overtake its Install on the medium, and dropping it
// would stall the recovery until a timeout.
func (n *Node) preBufferable(ring model.ConfigID) bool {
	return n.mode == Gathering &&
		n.mem != nil &&
		n.mem.Phase() == membership.Commit &&
		ring == n.mem.Proposed().ID
}

// maybeForeign starts a reconfiguration when traffic for an unknown ring
// arrives from a process outside the current (or proposed) configuration:
// evidence that components have merged.
func (n *Node) maybeForeign(from model.ProcessID, ring model.ConfigID) {
	switch n.mode {
	case Operational:
		if ring != n.ringCfg.ID && !n.ringCfg.Members.Contains(from) {
			n.enterGather(obs.CauseForeign)
			n.applyMemActions(n.mem.StartGather())
			n.reconcileMemTimers()
		}
	case Recovering:
		if ring != n.newRing.ID && ring != n.ringCfg.ID &&
			!n.newRing.Members.Contains(from) {
			n.abortRecovery()
			n.enterGather(obs.CauseForeign)
			n.applyMemActions(n.mem.StartGather())
			n.reconcileMemTimers()
		}
	}
}

// onDataBatch ingests an operational same-ring data batch in one pass.
// Semantically identical to routing each element through onData — the same
// messages are stored, persisted and delivered in the same total order —
// but the per-packet cost is flat: receipt bookkeeping per element, then
// one delivery collection, one batched log write and one scalar persist.
// Sender evidence is noted once per run of same-sender elements (a
// visit's fresh messages are all the token holder's own), with the run's
// highest counter: the max-merge makes that equal to noting each element.
//
//evs:noalloc
func (n *Node) onDataBatch(m wire.DataBatch) {
	ds := m.Msgs
	for i := 0; i < len(ds); {
		id := ds[i].ID
		for i++; i < len(ds) && ds[i].ID.Sender == id.Sender; i++ {
			id.SenderSeq = max(id.SenderSeq, ds[i].ID.SenderSeq)
		}
		n.noteSeen(id)
	}
	deliveries, fresh := n.ring.OnDataBatch(m.Msgs)
	if len(fresh) == 0 {
		return
	}
	n.persistLogBatch(fresh)
	n.deliverAll(deliveries, n.ringCfg)
	n.persist()
}

// onData routes a data message by ring.
func (n *Node) onData(from model.ProcessID, d wire.Data) {
	n.noteSeen(d.ID)
	switch {
	case n.mode == Operational && n.ring != nil && d.Ring == n.ringCfg.ID:
		before := n.ring.Len()
		deliveries := n.ring.OnData(d)
		if n.ring.Len() > before {
			n.persistLog(d)
		}
		n.deliverAll(deliveries, n.ringCfg)
		n.persist()
	case n.mode == Recovering && d.Ring == n.newRing.ID:
		// Step 2: buffer messages for the proposed configuration.
		n.buffered = append(n.buffered, bufferedMsg{from: from, msg: d})
	case n.preBufferable(d.Ring):
		n.preBuffer = append(n.preBuffer, bufferedMsg{from: from, msg: d})
	case n.mode == Recovering && d.Ring == n.ringCfg.ID:
		// Rebroadcast (or straggler) of the old configuration.
		before := n.rec.Log().Len()
		acts := n.rec.OnData(d)
		if n.rec.Log().Len() > before {
			n.persistLog(d)
		}
		n.applyRecActions(acts)
		if n.mode == Recovering {
			n.persist()
		}
	case n.mode == Gathering && d.Ring == n.ringCfg.ID:
		// Straggler while reconfiguring: merge into the carried log
		// (deliveries resume via the recovery algorithm). Sequence
		// numbers inside the trimmed prefix were already delivered and
		// certified safe; the log refuses them, like duplicates.
		if e, fresh := n.oldLog.Put(d.Seq); fresh {
			e.Set(&d)
			if d.Seq > n.oldState.HighestSeen {
				n.oldState.HighestSeen = d.Seq
			}
			n.persistLog(d)
			n.persist()
		}
	default:
		n.maybeForeign(from, d.Ring)
	}
}

// onToken routes a token. The successor of the sender processes it;
// anyone else receives it only when it was broadcast (a representative's
// beacon, or any token on a broadcast-only medium; see forwardToken) and
// observes it only for foreign-traffic detection.
func (n *Node) onToken(from model.ProcessID, t wire.Token) {
	switch {
	case n.mode == Operational && n.ring != nil && t.Ring == n.ringCfg.ID:
		// Only the sender's ring successor processes the token.
		if next, _ := n.ringCfg.Members.Next(from); next == n.id {
			n.processToken(t)
		}
	case n.mode == Recovering && t.Ring == n.newRing.ID:
		if next, _ := n.newRing.Members.Next(from); next == n.id {
			n.buffered = append(n.buffered, bufferedMsg{from: from, msg: t})
		}
	case n.preBufferable(t.Ring):
		n.preBuffer = append(n.preBuffer, bufferedMsg{from: from, msg: t})
	default:
		n.maybeForeign(from, t.Ring)
	}
}

// processToken runs a token visit through the ordering protocol.
//
//evs:noalloc
func (n *Node) processToken(t wire.Token) {
	res := n.ring.OnToken(t)
	if !res.Accepted {
		return
	}
	now := n.met.Now()
	if n.lastVisit >= 0 {
		n.met.Observe(obs.HTokenGapUs, uint64((now-n.lastVisit)/time.Microsecond))
	}
	n.lastVisit = now
	// Trace sends before their broadcast so history order respects the
	// formal model (send precedes every receipt).
	for _, d := range res.Sent {
		n.host.Trace(model.Event{
			Type:    model.EventSend,
			Proc:    n.id,
			Config:  n.ringCfg.ID,
			Members: n.ringCfg.Members,
			Msg:     d.ID,
			Service: d.Service,
		})
	}
	if len(res.Sent) > 0 {
		n.persistLogBatch(res.Sent)
	}
	n.broadcastData(res.Broadcasts)
	n.deliverAll(res.Deliveries, n.ringCfg)
	n.met.Set(obs.GPendingDepth, int64(n.PendingDepth()))
	fwd := res.Forward
	n.forwardToken(fwd)
	n.lastToken = &fwd
	n.retransLeft = TokenRetransMax
	n.host.SetTimer(TimerTokenRetrans, n.cfg.TokenRetrans)
	n.host.SetTimer(TimerTokenLoss, n.cfg.TokenLoss)
	n.persist()
}

// forwardToken sends a token this process emits: to its ring successor
// alone when the medium can address one process, except at the
// representative, whose forward is broadcast as the ring's beacon, once
// per rotation, for processes outside the ring to detect it by. On a
// broadcast-only medium every token is broadcast.
//
//evs:noalloc
func (n *Node) forwardToken(t wire.Token) {
	if n.uni == nil || n.ring.IsRepresentative() {
		n.tr.Broadcast(t) //lint:allow noalloc the medium API takes wire.Message; one boxed token per visit is the audited cost
		return
	}
	next, _ := n.ringCfg.Members.Next(n.id)
	n.uni.Unicast(next, t) //lint:allow noalloc the medium API takes wire.Message; one boxed token per visit is the audited cost
}

// broadcastData transmits one token visit's data messages, packing them
// into wire.DataBatch packets of at most maxBatch messages so the medium
// carries one packet per visit instead of one per message. A lone message
// travels unbatched.
//
// The input slice is the ring's per-visit scratch buffer, reused on the
// next token visit, while the medium retains each packet until its
// (delayed) delivery: every batch therefore carries a fresh copy of its
// window — one allocation per packet, amortised over up to maxBatch
// messages, and the only way the handoff is sound.
//
//evs:noalloc
func (n *Node) broadcastData(ds []wire.Data) {
	for len(ds) > 0 {
		k := len(ds)
		if k > maxBatch {
			k = maxBatch
		}
		if k == 1 && len(ds) == 1 {
			n.tr.Broadcast(ds[0]) //lint:allow noalloc the medium API takes wire.Message; one boxed packet header per visit is the audited cost
		} else {
			msgs := make([]wire.Data, k) // fresh per packet: the medium retains the batch past the visit
			copy(msgs, ds[:k])
			n.tr.Broadcast(wire.DataBatch{Ring: n.ringCfg.ID, Msgs: msgs}) //lint:allow noalloc the medium API takes wire.Message; one boxed packet header per visit is the audited cost
		}
		n.met.Inc(obs.CBatchesSent)
		n.met.Observe(obs.HBatchFill, uint64(k))
		ds = ds[k:]
	}
}

// deliverAll hands ordered messages, slots of the ring's or the recovery's
// log, to the host: one Deliver per message, from which the host derives
// the formal model's deliver event.
//
//evs:noalloc
func (n *Node) deliverAll(es []*seqlog.Entry, cfg model.Configuration) {
	for _, e := range es {
		n.host.Deliver(Delivery{
			Msg:     e.ID,
			Payload: e.Payload,
			Service: e.Service(),
			Config:  cfg,
		})
	}
}

// onJoin routes a membership join, filtering stale echoes.
func (n *Node) onJoin(j wire.Join) {
	if n.mem.Stale(j) {
		return
	}
	if n.mode == Recovering {
		// Echo of the gather that formed the configuration being
		// recovered: ignore rather than aborting the recovery.
		if n.newRing.Members.Contains(j.Sender) && j.MaxRingSeq < n.newRing.ID.Seq {
			return
		}
		n.abortRecovery()
		n.enterGather(obs.CauseJoin)
	} else if n.mode == Operational {
		n.enterGather(obs.CauseJoin)
	}
	n.applyMemActions(n.mem.OnJoin(j))
	n.reconcileMemTimers()
}

// OnTimer handles a timer expiry.
func (n *Node) OnTimer(kind TimerKind) {
	if n.mode == Down {
		return
	}
	switch kind {
	case TimerTokenLoss:
		if n.mode == Operational {
			n.enterGather(obs.CauseTokenLoss)
			n.applyMemActions(n.mem.StartGather())
			n.reconcileMemTimers()
		}
	case TimerTokenRetrans:
		if n.mode == Operational && n.lastToken != nil && n.retransLeft > 0 {
			n.retransLeft--
			n.forwardToken(*n.lastToken)
			n.host.SetTimer(TimerTokenRetrans, n.cfg.TokenRetrans)
		}
	case TimerJoin:
		if n.mode != Recovering && n.mem.Phase() == membership.Gather {
			n.applyMemActions(n.mem.OnJoinTimeout())
			n.reconcileMemTimers()
		}
	case TimerCommit:
		if n.mode != Recovering && n.mem.Phase() == membership.Commit {
			n.applyMemActions(n.mem.OnCommitTimeout())
			n.reconcileMemTimers()
		}
	case TimerRecoveryRetry:
		if n.mode == Recovering {
			n.applyRecActions(n.rec.OnRetry())
			if n.mode == Recovering {
				n.host.SetTimer(TimerRecoveryRetry, n.cfg.RecoveryRetry)
			}
		}
	case TimerRecoveryTimeout:
		if n.mode == Recovering {
			n.abortRecovery()
			n.enterGather(obs.CauseRecoveryTimeout)
			n.applyMemActions(n.mem.StartGather())
			n.reconcileMemTimers()
		}
	}
}

// enterGather leaves operational mode, carrying the ring's watermarks and
// its receive log into the reconfiguration (the ring itself stops: no
// deliveries occur until the recovery algorithm's Step 6). cause records
// why, for the membership-transition metrics.
func (n *Node) enterGather(cause obs.GatherCause) {
	n.met.Inc(cause.GatherCounter())
	n.met.Event(obs.KGatherEnter, uint64(cause), 0)
	if n.mode == Operational && n.ring != nil {
		n.oldState = n.ring.Watermarks()
		n.oldLog = n.ring.TakeLog()
		n.pending = append(n.ring.TakePending(), n.pending...)
		n.ring = nil
	}
	n.mode = Gathering
	n.lastToken = nil
	n.preBuffer = nil
	n.host.CancelTimer(TimerTokenLoss)
	n.host.CancelTimer(TimerTokenRetrans)
	n.host.CancelTimer(TimerRecoveryRetry)
	n.host.CancelTimer(TimerRecoveryTimeout)
}

// abortRecovery discards the current recovery attempt, keeping the merged
// log, receipt state and obligation set (Step 5.c obligations survive; the
// algorithm restarts at Step 2).
func (n *Node) abortRecovery() {
	if n.rec == nil {
		return
	}
	n.met.Inc(obs.CRecoveryAborted)
	n.met.Event(obs.KRecoveryAbort, n.newRing.ID.Seq, 0)
	n.oldState = n.rec.Watermarks()
	n.oldLog = n.rec.Log()
	n.obligations = n.rec.Obligations()
	n.rec = nil
	n.newRing = model.Configuration{}
	n.buffered = nil
	n.mode = Gathering
	n.persist()
}

// applyMemActions transmits membership messages and reacts to ring
// formation.
func (n *Node) applyMemActions(acts []membership.Action) {
	for _, a := range acts {
		switch act := a.(type) {
		case membership.Send:
			n.tr.Broadcast(act.Msg)
		case membership.Form:
			n.startRecovery(act.Ring)
		}
	}
	n.persist()
}

// reconcileMemTimers aligns the join/commit timers with the membership
// phase.
func (n *Node) reconcileMemTimers() {
	if n.mode == Recovering || n.mode == Down || n.mem == nil {
		n.host.CancelTimer(TimerJoin)
		n.host.CancelTimer(TimerCommit)
		return
	}
	switch n.mem.Phase() {
	case membership.Gather:
		n.host.SetTimer(TimerJoin, n.cfg.JoinRetry)
		n.host.CancelTimer(TimerCommit)
	case membership.Commit:
		n.host.SetTimer(TimerCommit, n.cfg.CommitTimeout)
		n.host.CancelTimer(TimerJoin)
	default:
		n.host.CancelTimer(TimerJoin)
		n.host.CancelTimer(TimerCommit)
	}
}

// startRecovery begins the EVS recovery algorithm (Step 2) for the agreed
// new ring.
func (n *Node) startRecovery(ring model.Configuration) {
	n.mode = Recovering
	n.newRing = ring
	n.buffered = nil
	n.met.Inc(obs.CRecoveryStarted)
	n.met.Event(obs.KRecoveryStart, ring.ID.Seq, uint64(ring.Members.Size()))
	n.recStart = n.met.Now()
	n.recPlan = false
	n.recDone = false
	n.host.CancelTimer(TimerJoin)
	n.host.CancelTimer(TimerCommit)
	// Obligation validation: obligations only ever name processes of the
	// old or proposed configuration or observed originators (Section 3,
	// Step 5.c builds them from transitional sets and their carried
	// obligations; an obligation can only bind us to messages we hold,
	// and holding a message implies having observed its originator). A
	// poisoned set — ghosts planted by transient corruption — is
	// rejected here, with the rejection counted and propagated rather
	// than trusted or panicked over.
	if dropped := n.validateObligations(ring); dropped > 0 {
		for i := 0; i < dropped; i++ {
			n.met.Inc(obs.CStateRejects)
		}
	}
	n.rec = evs.New(n.id, ring, n.ringCfg, n.oldState, n.oldLog, n.obligations, n.store.SeenSeqs())
	n.applyRecActions(n.rec.Start())
	if n.mode == Recovering {
		n.host.SetTimer(TimerRecoveryRetry, n.cfg.RecoveryRetry)
		n.host.SetTimer(TimerRecoveryTimeout, n.cfg.RecoveryTimeout)
	}
	// Replay recovery traffic that overtook the Install.
	pre := n.preBuffer
	n.preBuffer = nil
	for _, b := range pre {
		if n.mode != Recovering {
			break
		}
		n.OnMessage(b.from, b.msg)
	}
}

// validateObligations filters the obligation set against the universe of
// processes this node can legitimately owe anything to: members of the
// old and proposed configurations plus every originator it has observed
// messages from. It returns the number of ghosts rejected.
func (n *Node) validateObligations(ring model.Configuration) int {
	before := n.obligations.Size()
	if before == 0 {
		return 0
	}
	universe := n.ringCfg.Members.Union(ring.Members)
	kept := make([]model.ProcessID, 0, before)
	for _, p := range n.obligations.View() {
		_, observed := n.store.SeenSeq(p)
		if observed || universe.Contains(p) {
			kept = append(kept, p)
		}
	}
	if len(kept) == before {
		return 0
	}
	n.obligations = model.NewProcessSet(kept...)
	return before - len(kept)
}

// applyRecActions transmits recovery messages and applies the final result.
func (n *Node) applyRecActions(acts []evs.Action) {
	for _, a := range acts {
		switch act := a.(type) {
		case evs.Send:
			n.tr.Broadcast(act.Msg)
		case evs.Finished:
			n.finishRecovery(act.Result)
		}
	}
	if n.mode == Recovering {
		n.noteRecoveryProgress()
		n.persist()
	}
}

// noteRecoveryProgress observes recovery step transitions after each batch
// of recovery actions: Step 4 (plan computed, closing the exchange phase)
// and Step 5 (this process announced completion).
func (n *Node) noteRecoveryProgress() {
	if n.met == nil || n.rec == nil {
		return
	}
	if !n.recPlan && n.rec.Planned() {
		n.recPlan = true
		n.recPlanAt = n.met.Now()
		n.met.ObserveSince(obs.HRecoveryExchangeUs, n.recStart)
		n.met.Event(obs.KRecoveryPlan, uint64(n.rec.NeededCount()), 0)
	}
	if !n.recDone && n.rec.SentDone() {
		n.recDone = true
		n.met.Event(obs.KRecoveryDone, 0, 0)
	}
}

// finishRecovery applies Step 6 atomically: old-configuration deliveries,
// the transitional configuration change and its deliveries, then the
// installation of the new regular configuration (Step 6.e), after which
// pending application messages are sequenced on the new ring and buffered
// messages for it are processed.
func (n *Node) finishRecovery(res evs.Result) {
	// The plan and done transitions may complete in the same action batch
	// that finishes: record them before the attempt state is cleared.
	n.noteRecoveryProgress()
	old := n.ringCfg

	// 6.b: remaining old-configuration messages, delivered in the old
	// regular configuration.
	n.deliverAll(res.OldRegular, old)

	// 6.c: the configuration change initiating the transitional
	// configuration.
	if !res.Transitional.ID.IsZero() {
		n.met.Inc(obs.CConfigsTransitional)
		n.met.Event(obs.KConfigTransitional, res.Transitional.ID.Seq,
			uint64(res.Transitional.Members.Size()))
		n.traceConf(res.Transitional, false)
		n.host.DeliverConfig(ConfigChange{Config: res.Transitional})
		// 6.d: transitional deliveries.
		n.deliverAll(res.Trans, res.Transitional)
	}

	// Adopt the attempt's merged counter-observation evidence: peers'
	// exchanged SeenSeqs heal a transiently wrapped sender counter that
	// local evidence alone could not (defense in depth — on conforming
	// runs local evidence already dominates).
	// Per-entry max-merge: the result does not depend on iteration order.
	for p, v := range n.rec.SeenSeqs() {
		n.store.NoteSeen(p, v)
	}
	if seen, _ := n.store.SeenSeq(n.id); seen > n.senderSeq {
		n.senderSeq = seen
		n.met.Inc(obs.CSeqHeals)
	}

	// 6.e: install the new regular configuration; obligations are
	// discharged (Step 1: no obligations in a regular configuration).
	newCfg := n.newRing
	n.ringCfg = newCfg
	n.obligations = model.NewProcessSet()
	n.oldLog = nil
	n.oldState = totem.State{}
	n.rec = nil
	n.newRing = model.Configuration{}
	n.mode = Operational
	n.everInstalld = true
	n.mem.SetCurrent(newCfg)
	n.host.CancelTimer(TimerRecoveryRetry)
	n.host.CancelTimer(TimerRecoveryTimeout)

	n.met.Inc(obs.CRecoveryFinished)
	n.met.ObserveSince(obs.HRecoveryTotalUs, n.recStart)
	if n.recPlan {
		n.met.ObserveSince(obs.HRecoveryFlushUs, n.recPlanAt)
	}
	n.met.Event(obs.KRecoveryFinish, newCfg.ID.Seq, uint64(newCfg.Members.Size()))
	n.met.Inc(obs.CConfigsRegular)
	n.met.Event(obs.KConfigRegular, newCfg.ID.Seq, uint64(newCfg.Members.Size()))

	n.traceConf(newCfg, false)
	n.host.DeliverConfig(ConfigChange{Config: newCfg})

	n.ring = totem.New(n.id, newCfg, n.cfg.Totem)
	n.ring.SetMetrics(n.met)
	n.lastVisit = -1
	for _, p := range n.pending {
		n.ring.Submit(p)
	}
	n.pending = nil
	n.store.ClearLog() // the new ring starts an empty log
	n.persist()

	// The representative originates the first token, with
	// retransmission: losing the only copy would leave the ring dead
	// until the token-loss timeout forces another reconfiguration.
	if n.ring.IsRepresentative() {
		tok := n.ring.InitialToken()
		n.forwardToken(tok)
		n.lastToken = &tok
		n.retransLeft = TokenRetransMax
		n.host.SetTimer(TimerTokenRetrans, n.cfg.TokenRetrans)
	}
	// Allow extra slack before declaring token loss: peers may still be
	// finishing their recovery.
	n.host.SetTimer(TimerTokenLoss, 2*n.cfg.TokenLoss)

	// Process messages buffered for the new configuration (Step 2).
	buffered := n.buffered
	n.buffered = nil
	for _, b := range buffered {
		n.OnMessage(b.from, b.msg)
	}
}

// traceConf records a configuration change event.
func (n *Node) traceConf(cfg model.Configuration, primary bool) {
	n.host.Trace(model.Event{
		Type:    model.EventDeliverConf,
		Proc:    n.id,
		Config:  cfg.ID,
		Members: cfg.Members,
		Primary: primary,
	})
}
