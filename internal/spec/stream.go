// Streaming certification of Specifications 1-7.
//
// The batch Checker is post-hoc: it indexes a complete history, so the
// length of a chaos soak is capped by the memory needed to retain every
// event until the run ends. Stream removes that cap. Events are ingested
// as the harness emits them; every CheckEvery events the retained window
// is certified by running the full seven-check suite over it, and state
// belonging to provably closed prefixes is then pruned, keeping the
// window (and therefore checker memory) bounded on conforming runs no
// matter how long the execution grows.
//
// # Certified prefix and the prune rule
//
// After a certification the entire retained window has been checked, so
// the certified prefix is simply "everything ingested so far". Pruning
// then removes events that can no longer participate in a *new*
// violation, under an explicit safe bound argued per specification:
//
//   - A message m sent in regular configuration c is closed once every
//     member of c has either delivered m somewhere in c's configuration
//     family (c or a transitional successor) or departed — installed a
//     strictly later regular configuration. Failure is NOT discharge
//     evidence: a failed member may recover and deliver m arbitrarily
//     late (recovery Step 6.b), so only departure proves it is done.
//     Closure of m drops its send event and every deliver event of it,
//     but only when those account for every retained event of m (a
//     cross-family stray delivery keeps the message open), so no check
//     ever sees a delivery without its send.
//   - A configuration family is closed once every member has departed
//     it. Closure drops the family's remaining send,
//     deliver, deliver_conf and fail events — except each process's
//     latest deliver_conf, which is always retained so the process
//     keeps its current-configuration context (Specification 2.2 and
//     final-agreement checks read it), and fail events of processes
//     with no later deliver_conf, so a process that died and never
//     recovered is still seen as dead by the settled checks.
//
// Pruning is sound for new violations on conforming suffixes: every
// check's verdict over the retained window is unchanged by removing a
// closed message from all processes at once (delivered sets and
// per-configuration delivery sequences lose the same elements
// everywhere, so prefix and atomicity comparisons are preserved).
// Violations that were visible before the prune are recorded by the
// certification that precedes it. The one approximation: a violation
// *re-detected* after its supporting events were pruned may surface
// under a different clause (for example a late delivery of a pruned
// message reports as "never sent" rather than out-of-order). The
// windowed oracle shares the same window, so the differential
// comparison is exact.
//
// # Windowed differential oracle
//
// Every OracleEvery-th certification (and at Finish) the Oracle hook
// receives a copy of the retained window together with the fast
// checker's window-local violations; the caller runs the seed refcheck
// bitset oracle over the same window and compares. Stream cannot import
// refcheck (refcheck imports spec), hence the callback.
package spec

import (
	"unsafe"

	"repro/internal/model"
)

// StreamOptions configure a Stream.
type StreamOptions struct {
	// CheckEvery is the number of ingested events between incremental
	// certifications (default 4096). Smaller windows certify — and
	// prune — more eagerly at higher amortized cost.
	CheckEvery int
	// OracleEvery runs the differential Oracle on every OracleEvery-th
	// certification; zero disables sampling (Finish still invokes the
	// Oracle once when set, so a stream with an Oracle is always
	// cross-checked at least once).
	OracleEvery int
	// Oracle receives a copy of the retained window, the options the
	// certification ran with, and the fast checker's window-local
	// violations. The callback owns both slices.
	Oracle func(window []model.Event, opts Options, fast []Violation)
}

// StreamStats expose the memory-boundedness evidence of a stream: a
// soak asserts that PeakRetained stays ~flat while Ingested grows.
type StreamStats struct {
	// Ingested is the total number of events added.
	Ingested uint64
	// Certified is the number of events covered by the last
	// certification (the certified prefix length).
	Certified uint64
	// Retained is the current window length; PeakRetained its maximum
	// over the run and PeakBytes the corresponding event storage.
	Retained     int
	PeakRetained int
	PeakBytes    uint64
	// Pruned counts events dropped from the window.
	Pruned uint64
	// Certifications counts incremental check passes, OracleWindows
	// the differential samples taken.
	Certifications uint64
	OracleWindows  uint64
}

// famMsg tracks one message within its sending configuration family.
type famMsg struct {
	sent bool
	// refs counts retained send+deliver events of the message that
	// belong to this family; the message is only prunable when they
	// account for every retained event of the message globally.
	refs      int
	delivered map[model.ProcessID]bool
}

// family tracks one regular configuration family for the prune rule.
type family struct {
	// members is zero until a deliver_conf for the regular
	// configuration itself is seen; a family with unknown membership
	// is never considered closed.
	members model.ProcessSet
	msgs    map[model.MessageID]*famMsg
}

// Stream is the incremental checker. The zero value is not usable; use
// NewStream.
type Stream struct {
	opts StreamOptions

	events []model.Event
	gidx   []int // global history index per retained event

	total     uint64
	certified uint64

	seen       map[string]bool
	violations []Violation

	families map[model.ConfigID]*family
	procCur  map[model.ProcessID]model.ConfigID
	lastConf map[model.ProcessID]int // global index of latest deliver_conf
	msgRefs  map[model.MessageID]int // retained send+deliver events per message

	peakRetained  int
	pruned        uint64
	certs         uint64
	oracleWindows uint64
}

// NewStream returns a stream ready to ingest events.
func NewStream(opts StreamOptions) *Stream {
	if opts.CheckEvery <= 0 {
		opts.CheckEvery = 4096
	}
	return &Stream{
		opts:     opts,
		seen:     make(map[string]bool),
		families: make(map[model.ConfigID]*family),
		procCur:  make(map[model.ProcessID]model.ConfigID),
		lastConf: make(map[model.ProcessID]int),
		msgRefs:  make(map[model.MessageID]int),
	}
}

// fam returns (creating on demand) the family record of regular
// configuration c.
func (s *Stream) fam(c model.ConfigID) *family {
	f := s.families[c]
	if f == nil {
		f = &family{msgs: make(map[model.MessageID]*famMsg)}
		s.families[c] = f
	}
	return f
}

func (f *family) msg(m model.MessageID) *famMsg {
	fm := f.msgs[m]
	if fm == nil {
		fm = &famMsg{delivered: make(map[model.ProcessID]bool)}
		f.msgs[m] = fm
	}
	return fm
}

// Add ingests one event; every CheckEvery events it certifies the
// retained window and prunes closed state.
func (s *Stream) Add(e model.Event) {
	g := int(s.total)
	s.total++
	s.events = append(s.events, e)
	s.gidx = append(s.gidx, g)

	switch e.Type {
	case model.EventSend:
		fm := s.fam(e.Config.Prev()).msg(e.Msg)
		fm.sent = true
		fm.refs++
		s.msgRefs[e.Msg]++
	case model.EventDeliver:
		fm := s.fam(e.Config.Prev()).msg(e.Msg)
		fm.refs++
		fm.delivered[e.Proc] = true
		s.msgRefs[e.Msg]++
	case model.EventDeliverConf:
		s.procCur[e.Proc] = e.Config
		s.lastConf[e.Proc] = g
		f := s.fam(e.Config.Prev())
		if e.Config.IsRegular() && f.members.Size() == 0 {
			f.members = e.Members
		}
	}

	if len(s.events) > s.peakRetained {
		s.peakRetained = len(s.events)
	}
	if s.total%uint64(s.opts.CheckEvery) == 0 {
		s.certify(Options{}, false)
	}
}

// departed reports whether p's current configuration is regular-family
// evidence that p moved strictly past family c: p installed a regular
// configuration with a higher sequence number. A process that is merely
// behind (still recovering toward c, or down) keeps the family open.
func (s *Stream) departed(p model.ProcessID, c model.ConfigID) bool {
	cur, ok := s.procCur[p]
	if !ok {
		return false
	}
	reg := cur.Prev()
	return reg != c && reg.Seq > c.Seq
}

// closed reports whether family c can accept no further legal events:
// every member departed past it. Failure is deliberately NOT discharge
// evidence — a failed process may recover and, per the recovery
// algorithm's Step 6.b, still deliver this family's messages long after
// everyone else moved on; only installing a later regular configuration
// proves a process is done with the family.
func (s *Stream) closed(c model.ConfigID, f *family) bool {
	if f.members.Size() == 0 {
		return false
	}
	for _, q := range f.members.View() {
		if !s.departed(q, c) {
			return false
		}
	}
	return true
}

// msgPrunable reports whether message m of family c is closed: it was
// sent, every family member is discharged for it, and this family
// accounts for every retained event of the message.
func (s *Stream) msgPrunable(c model.ConfigID, f *family, m model.MessageID) bool {
	fm := f.msgs[m]
	if fm == nil || !fm.sent || f.members.Size() == 0 {
		return false
	}
	if fm.refs != s.msgRefs[m] {
		return false
	}
	for _, q := range f.members.View() {
		if !fm.delivered[q] && !s.departed(q, c) {
			return false
		}
	}
	return true
}

// certify runs the batch checker over the retained window, records
// violations not seen before (deduplicated by their rendering with
// globalized event indices), samples the differential oracle, and —
// except on the final pass — prunes closed state.
func (s *Stream) certify(opts Options, final bool) {
	s.certs++
	fast := NewChecker(s.events, opts).CheckAll()
	for _, v := range fast {
		gv := v
		if len(v.Events) > 0 {
			gv.Events = make([]int, len(v.Events))
			for i, li := range v.Events {
				gv.Events[i] = s.gidx[li]
			}
		}
		key := gv.String()
		if !s.seen[key] {
			s.seen[key] = true
			s.violations = append(s.violations, gv)
		}
	}
	s.certified = s.total

	if s.opts.Oracle != nil && (final || (s.opts.OracleEvery > 0 && s.certs%uint64(s.opts.OracleEvery) == 0)) {
		s.oracleWindows++
		win := append([]model.Event(nil), s.events...)
		fv := append([]Violation(nil), fast...)
		s.opts.Oracle(win, opts, fv)
	}

	if !final {
		s.prune()
	}
}

// prune drops closed events from the window. It runs only immediately
// after a certification, so everything it removes has been checked.
func (s *Stream) prune() {
	closed := make(map[model.ConfigID]bool)
	for c, f := range s.families {
		if s.closed(c, f) {
			closed[c] = true
		}
	}

	kept := s.events[:0]
	kgidx := s.gidx[:0]
	for i, e := range s.events {
		g := s.gidx[i]
		if s.keep(e, g, closed) {
			kept = append(kept, e)
			kgidx = append(kgidx, g)
			continue
		}
		s.pruned++
		if e.Type == model.EventSend || e.Type == model.EventDeliver {
			s.dropMsgRef(e.Config.Prev(), e.Msg, closed)
		}
	}
	// Zero the tail so pruned events do not pin payload memory.
	for i := len(kept); i < len(s.events); i++ {
		s.events[i] = model.Event{}
	}
	s.events = kept
	s.gidx = kgidx

	for c := range closed {
		f := s.families[c]
		if f != nil {
			for m := range f.msgs {
				delete(s.msgRefs, m)
			}
		}
		delete(s.families, c)
	}
}

// dropMsgRef unaccounts one pruned send/deliver event of m in family c.
// Families being deleted wholesale settle their refs in prune.
func (s *Stream) dropMsgRef(c model.ConfigID, m model.MessageID, closedFams map[model.ConfigID]bool) {
	if closedFams[c] {
		return
	}
	f := s.families[c]
	if f == nil {
		return
	}
	fm := f.msgs[m]
	if fm == nil {
		return
	}
	fm.refs--
	if n := s.msgRefs[m] - 1; n > 0 {
		s.msgRefs[m] = n
	} else {
		delete(s.msgRefs, m)
	}
	if fm.refs <= 0 {
		delete(f.msgs, m)
	}
}

// keep decides whether one certified event must stay in the window.
func (s *Stream) keep(e model.Event, g int, closedFams map[model.ConfigID]bool) bool {
	switch e.Type {
	case model.EventSend, model.EventDeliver:
		c := e.Config.Prev()
		f := s.families[c]
		if f == nil {
			return true
		}
		return !closedFams[c] && !s.msgPrunable(c, f, e.Msg)
	case model.EventDeliverConf:
		if !closedFams[e.Config.Prev()] {
			return true
		}
		// Always carry each process's latest configuration change: it
		// is the process's current-configuration context.
		return s.lastConf[e.Proc] == g
	case model.EventFail:
		if !e.Config.IsZero() && !closedFams[e.Config.Prev()] {
			return true
		}
		// A fail is obsolete only once the process demonstrably came
		// back: it has a later configuration change. Otherwise the
		// settled checks still need to see the process as dead.
		lc, ok := s.lastConf[e.Proc]
		return !ok || lc < g
	}
	return true
}

// Finish runs a final certification over the retained window with the
// caller's options (typically Settled) and returns all violations
// recorded over the life of the stream, sorted deterministically.
func (s *Stream) Finish(opts Options) []Violation {
	s.certify(opts, true)
	return s.Violations()
}

// Violations returns a sorted copy of every violation recorded so far.
// Event indices are global history positions, not window positions.
func (s *Stream) Violations() []Violation {
	out := append([]Violation(nil), s.violations...)
	sortViolations(out)
	return out
}

// Stats returns a snapshot of the stream's progress and memory metrics.
func (s *Stream) Stats() StreamStats {
	return StreamStats{
		Ingested:       s.total,
		Certified:      s.certified,
		Retained:       len(s.events),
		PeakRetained:   s.peakRetained,
		PeakBytes:      uint64(s.peakRetained) * uint64(unsafe.Sizeof(model.Event{})),
		Pruned:         s.pruned,
		Certifications: s.certs,
		OracleWindows:  s.oracleWindows,
	}
}
