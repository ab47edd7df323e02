// Package spec makes the formal model of extended virtual synchrony
// executable: it consumes event histories — send_p(m,c), deliver_p(m,c),
// deliver_conf_p(c), fail_p(c) — produced by the protocol harness (or
// constructed by hand) and checks them against Specifications 1-7 of the
// paper, the primary-component properties of Section 2.2, and the virtual
// synchrony legality conditions of Section 4.
//
// # The precedes relation and the ord function
//
// The paper axiomatizes a global partial order, the precedes relation "→",
// and a logical total order function ord. A trace only exhibits the
// generating edges of "→": the single-thread order of each process
// (Specification 1.2) and the send-before-deliver edges (Specification
// 1.3). Specifications 2.3, 2.4, 6.1 and 6.2 then constrain how "→" and
// ord may be extended: deliveries of the same message occur at the same
// logical time everywhere, as do configuration change deliveries of the
// same configuration. The executable content of that constraint set is a
// graph condensation: merge all deliver events of one message into one
// node and all deliver_conf events of one configuration into one node,
// lift the generating edges, and demand that the result is acyclic. If it
// is, a topological numbering of the condensation is a witness for ord
// (and for the barrier behaviour 2.3/2.4 require); if it is cyclic, no
// legal ord exists and the specifications are violated.
//
// # Scale
//
// The closure of "→" is never materialized. Every event carries a dense
// vector timestamp over the generating edges (vclock.Dense), so
// precedes(i,j) is one O(1) array probe and the whole relation costs
// O(n·P) memory for n events and P processes — the n×n bitset closure of
// the original checker is kept only as a differential-testing oracle in
// package refcheck. Processes, messages and configurations are interned
// once per history into dense ids; on top of the timestamps the index
// holds the lookup tables the checks share (per-process event and
// configuration sequences, per-message sends and deliveries,
// per-(process,configuration) installations and com-zone delivered sets)
// as flat int32 arrays, with no second copy of any delivery and no map
// probed per event. Each specification check runs in near-linear time on
// conforming histories and CheckAll runs the seven checks concurrently.
package spec

import (
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/vclock"
)

// History is an append-only event trace. Events must be appended in an
// order consistent with real time at a hypothetical global observer; the
// deterministic simulation harness guarantees this. The zero value is an
// empty history.
type History struct {
	events []model.Event
}

// Append records one event.
func (h *History) Append(e model.Event) {
	h.events = append(h.events, e)
}

// Events returns the underlying event slice (not a copy; callers must not
// mutate).
func (h *History) Events() []model.Event { return h.events }

// Len returns the number of recorded events.
func (h *History) Len() int { return len(h.events) }

// Violation is one specification breach found in a history.
type Violation struct {
	// Spec identifies the clause, e.g. "1.3", "6.2", "primary-unique",
	// "vs-L4".
	Spec string
	// Msg is a human-readable description.
	Msg string
	// Events are indices into the history of the offending events,
	// where identifiable.
	Events []int
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("[spec %s] %s (events %v)", v.Spec, v.Msg, v.Events)
}

// Options tune which checks run.
type Options struct {
	// Settled declares that the history ends in a quiet period: client
	// traffic stopped and the protocol was given ample time to finish
	// delivering. Liveness-flavoured clauses (self-delivery in the
	// final configuration, safe-delivery completeness in the final
	// configuration, final-configuration agreement 2.1) are enforced
	// only on settled histories.
	Settled bool
}

// table groups items under dense integer keys in compressed-sparse-row
// form: the items of key k are item[start[k]:start[k+1]].
type table struct {
	start, item []int32
}

// group builds a table over nkeys keys: item i of the input lands under
// key keys[i] (skipped when negative), carrying vals[i] — or i itself when
// vals is nil. Items of one key keep their input order.
func group(nkeys int, keys, vals []int32) table {
	t := table{start: make([]int32, nkeys+1)}
	for _, k := range keys {
		if k >= 0 {
			t.start[k+1]++
		}
	}
	for k := 0; k < nkeys; k++ {
		t.start[k+1] += t.start[k]
	}
	t.item = make([]int32, t.start[nkeys])
	// Fill using start[k] as key k's cursor, then shift the cursors back.
	for i, k := range keys {
		if k < 0 {
			continue
		}
		v := int32(i)
		if vals != nil {
			v = vals[i]
		}
		t.item[t.start[k]] = v
		t.start[k]++
	}
	copy(t.start[1:], t.start[:nkeys])
	t.start[0] = 0
	return t
}

// of returns the items of key k (none for a negative key). The slice is
// shared; callers must not mutate it.
func (t table) of(k int32) []int32 {
	if k < 0 {
		return nil
	}
	return t.item[t.start[k]:t.start[k+1]]
}

// sortUnique turns every key's items into a sorted set, compacting the
// table in place.
func (t *table) sortUnique() {
	w := int32(0)
	for k := 0; k+1 < len(t.start); k++ {
		items := t.item[t.start[k]:t.start[k+1]]
		slices.Sort(items)
		t.start[k] = w
		for j, v := range items {
			if j == 0 || v != items[j-1] {
				t.item[w] = v
				w++
			}
		}
	}
	t.start[len(t.start)-1] = w
	t.item = t.item[:w]
}

// has reports whether the sorted set of key k contains v.
func (t table) has(k, v int32) bool {
	_, ok := slices.BinarySearch(t.of(k), v)
	return ok
}

// filled returns n copies of v.
func filled(n int, v int32) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// index holds the derived structures every check shares. It is built once
// by NewChecker and read-only afterwards, which is what makes the
// concurrent CheckAll safe: no check mutates the index.
//
// Processes, messages and configurations are interned once, so every
// table below is a flat int32 array indexed by dense ids: a process is its
// vclock.Universe index, a message its first-appearance number, a
// configuration its first-appearance number (id 0 is the zero ConfigID).
// Per-(process, configuration) tables use the packed key pc(p, c).
type index struct {
	events []model.Event

	uni     *vclock.Universe
	msgIDs  []model.MessageID
	cfgIDs  []model.ConfigID
	cfgPrev []int32 // dense id of cfgIDs[c].Prev()
	// members caches the membership recorded by each configuration's
	// first deliver_conf (zero when it has none).
	members []model.ProcessSet

	// Per event: its process, message (-1 for deliver_conf and fail)
	// and configuration.
	procOf, msgOf, cfgOf []int32
	// vt is the flat n×P vector-timestamp array of the precedes
	// closure: row i (a vclock.Dense) is the componentwise maximum over
	// event i's causal past, and vt[i][procOf[i]] is i's 1-based
	// position in its process's order.
	vt []int32

	// Event indices in history order, keyed by process (byProc:
	// every event, which is per-process order, Specification 1.2;
	// confSeqs: deliver_conf events, the configuration sequence;
	// fails: fail events), by message (sends, delivers) and by
	// configuration (confs: its deliver_conf events). A process's
	// deliveries of m are the entries of delivers at that process.
	byProc, confSeqs, fails table
	sends, delivers         table
	confs                   table
	// installed is the bitset over pc(p, c) of the configurations each
	// process delivered a configuration change for.
	installed []uint64
	// famDelivered is, per pc(p, reg) for a regular configuration reg,
	// the sorted set of messages p delivered within com_p(reg): exactly
	// the messages deliveredIn(p, ·, comZone(p, reg)) would accept.
	famDelivered table
}

func buildIndex(events []model.Event) *index {
	n := len(events)
	ix := &index{
		events: events,
		procOf: make([]int32, n),
		msgOf:  make([]int32, n),
		cfgOf:  make([]int32, n),
	}
	ix.intern()
	C := len(ix.cfgIDs)
	keys := make([]int32, n)
	byType := func(typ model.EventType, of []int32) []int32 {
		for i := range events {
			keys[i] = -1
			if events[i].Type == typ {
				keys[i] = of[i]
			}
		}
		return keys
	}
	ix.byProc = group(ix.uni.Len(), ix.procOf, nil)
	ix.sends = group(len(ix.msgIDs), byType(model.EventSend, ix.msgOf), nil)
	ix.delivers = group(len(ix.msgIDs), byType(model.EventDeliver, ix.msgOf), nil)
	ix.confs = group(C, byType(model.EventDeliverConf, ix.cfgOf), nil)
	ix.confSeqs = group(ix.uni.Len(), byType(model.EventDeliverConf, ix.procOf), nil)
	ix.fails = group(ix.uni.Len(), byType(model.EventFail, ix.procOf), nil)

	ix.members = make([]model.ProcessSet, C)
	ix.installed = make([]uint64, (ix.uni.Len()*C+63)/64)
	for c := range ix.members {
		idxs := ix.confs.of(int32(c))
		for _, i := range idxs {
			k := ix.pc(ix.procOf[i], int32(c))
			ix.installed[k/64] |= 1 << (k % 64)
		}
		if len(idxs) > 0 {
			ix.members[c] = events[idxs[0]].Members
		}
	}
	ix.buildTimestamps()
	ix.buildFamDelivered(keys)
	return ix
}

// intern assigns the dense ids and fills procOf, msgOf and cfgOf. Its
// maps and the Universe's are the index's only tables keyed by
// identifier, one entry per distinct id.
func (ix *index) intern() {
	var procs []model.ProcessID
	procIdx := make(map[model.ProcessID]int32)
	msgIdx := make(map[model.MessageID]int32)
	cfgIdx := make(map[model.ConfigID]int32)
	ix.internCfg(cfgIdx, model.ConfigID{})
	for i, e := range ix.events {
		p, ok := procIdx[e.Proc]
		if !ok {
			p = int32(len(procs))
			procIdx[e.Proc] = p
			procs = append(procs, e.Proc)
		}
		ix.procOf[i] = p
		ix.cfgOf[i] = ix.internCfg(cfgIdx, e.Config)
		ix.msgOf[i] = -1
		if e.Type == model.EventSend || e.Type == model.EventDeliver {
			m, ok := msgIdx[e.Msg]
			if !ok {
				m = int32(len(ix.msgIDs))
				msgIdx[e.Msg] = m
				ix.msgIDs = append(ix.msgIDs, e.Msg)
			}
			ix.msgOf[i] = m
		}
	}
	// Renumber processes from first appearance to universe order.
	ix.uni = vclock.NewUniverse(procs)
	perm := make([]int32, len(procs))
	for k, p := range procs {
		perm[k] = int32(ix.uni.Index(p))
	}
	for i, p := range ix.procOf {
		ix.procOf[i] = perm[p]
	}
}

// internCfg returns c's dense id, interning it (and, for a transitional
// configuration, its regular predecessor first) on first sight.
func (ix *index) internCfg(ids map[model.ConfigID]int32, c model.ConfigID) int32 {
	if id, ok := ids[c]; ok {
		return id
	}
	prev := int32(len(ix.cfgIDs))
	if c.IsTransitional() {
		prev = ix.internCfg(ids, c.Prev())
	}
	id := int32(len(ix.cfgIDs))
	ids[c] = id
	ix.cfgIDs = append(ix.cfgIDs, c)
	ix.cfgPrev = append(ix.cfgPrev, prev)
	return id
}

// pc packs a (process, configuration) pair into one dense key.
func (ix *index) pc(p, c int32) int {
	return int(p)*len(ix.cfgIDs) + int(c)
}

// buildTimestamps stamps every event with a dense vector timestamp over
// the generating edges: each event inherits the timestamp of its
// per-process predecessor, a deliver event additionally merges the
// timestamp of its message's (first) send when that send comes earlier in
// the history — the same edge set the reference closure uses; a deliver
// preceding its send simply lacks the edge and Check 1.3 reports it.
func (ix *index) buildTimestamps() {
	P := ix.uni.Len()
	ix.vt = make([]int32, len(ix.events)*P)
	prev := make([]int32, P) // last event index per process, or -1
	for i := range prev {
		prev[i] = -1
	}
	for i, e := range ix.events {
		p := ix.procOf[i]
		row := vclock.Dense(ix.vt[i*P : (i+1)*P])
		local := int32(1)
		if pr := int(prev[p]); pr >= 0 {
			copy(row, ix.vt[pr*P:(pr+1)*P])
			local = row[p] + 1
		}
		if e.Type == model.EventDeliver {
			if sIdxs := ix.sends.of(ix.msgOf[i]); len(sIdxs) > 0 && int(sIdxs[0]) < i {
				row.Merge(ix.vtOf(int(sIdxs[0])))
			}
		}
		row[p] = local
		prev[p] = int32(i)
	}
}

// buildFamDelivered fills the per-(process, regular family) delivered
// sets. A delivery by p in configuration c contributes to family reg =
// c.Prev() exactly when c lies in com_p(reg): always for c == reg, and
// for a transitional c only when p installed it (the zone follows the
// process's own configuration sequence). keys is scratch of one entry per
// event.
func (ix *index) buildFamDelivered(keys []int32) {
	for i, e := range ix.events {
		keys[i] = -1
		p, c := ix.procOf[i], ix.cfgOf[i]
		if e.Type == model.EventDeliver && ix.inZone(ix.comZoneOf(p, c), c) {
			keys[i] = int32(ix.pc(p, ix.cfgPrev[c]))
		}
	}
	ix.famDelivered = group(ix.uni.Len()*len(ix.cfgIDs), keys, ix.msgOf)
	ix.famDelivered.sortUnique()
}

// vtOf returns event i's dense vector timestamp (a view, not a copy).
func (ix *index) vtOf(i int) vclock.Dense {
	P := ix.uni.Len()
	return vclock.Dense(ix.vt[i*P : (i+1)*P])
}

// local returns event i's 1-based position in its process's order.
func (ix *index) local(i int) int32 {
	return ix.vt[i*ix.uni.Len()+int(ix.procOf[i])]
}

// precedes reports whether event i precedes event j in the closure of the
// generating edges (irreflexive: precedes(i,i) is false). All generating
// edges point forward in history order, so i ≥ j is an immediate no; for
// i < j, i precedes j exactly when j's timestamp covers i's position in
// i's own process component — because each process's events form a chain,
// covering the count implies covering the event.
func (ix *index) precedes(i, j int) bool {
	if i >= j {
		return false
	}
	return ix.vt[j*ix.uni.Len()+int(ix.procOf[i])] >= ix.local(i)
}

// proc returns p's dense id, or -1 for a process with no events.
func (ix *index) proc(p model.ProcessID) int32 {
	return int32(ix.uni.Index(p))
}

// isInstalled reports whether process p delivered a configuration change
// for configuration c.
func (ix *index) isInstalled(p, c int32) bool {
	if p < 0 {
		return false
	}
	k := ix.pc(p, c)
	return ix.installed[k/64]&(1<<(k%64)) != 0
}

// zone is com_p(c) as a membership test rather than a list: the
// configuration c itself and, when family is set (c regular), every
// transitional successor of c that p installed.
type zone struct {
	p, c   int32
	family bool
}

// comZone returns com_p(c): for a transitional c the zone is c alone.
func (ix *index) comZone(p, c int32) zone {
	return zone{p, c, !ix.cfgIDs[c].IsTransitional()}
}

// comZoneOf returns com_q(c') as a zone: for a regular configuration, the
// configuration plus q's transitional successor; for a transitional
// configuration, the underlying regular configuration plus q's own
// transitional successor of it — which need not be c' itself. A member
// that announced recovery completion and was then partitioned away from
// the others carries its obligations into a later recovery and delivers
// them in its own transitional configuration arising from the same
// regular one; the zone must follow the member, not the observer.
func (ix *index) comZoneOf(q, c int32) zone {
	return zone{q, ix.cfgPrev[c], true}
}

// inZone reports whether configuration c belongs to zone z. A
// configuration other than z.c whose predecessor is z.c is transitional.
func (ix *index) inZone(z zone, c int32) bool {
	return c == z.c || z.family && ix.cfgPrev[c] == z.c && ix.isInstalled(z.p, c)
}

// failedIn reports whether p has a fail event in one of the zone's
// configurations.
func (ix *index) failedIn(p int32, z zone) bool {
	for _, f := range ix.fails.of(p) {
		if ix.inZone(z, ix.cfgOf[f]) {
			return true
		}
	}
	return false
}

// deliveredIn reports whether p delivered m in one of the zone's
// configurations.
func (ix *index) deliveredIn(p, m int32, z zone) bool {
	for _, d := range ix.delivers.of(m) {
		if ix.procOf[d] == p && ix.inZone(z, ix.cfgOf[d]) {
			return true
		}
	}
	return false
}

// deliveryIndex returns the index of p's (first) delivery of m, or -1.
func (ix *index) deliveryIndex(p, m int32) int {
	for _, d := range ix.delivers.of(m) {
		if ix.procOf[d] == p {
			return int(d)
		}
	}
	return -1
}

// leftZone reports whether p delivered a configuration change outside the
// zone after event idx.
func (ix *index) leftZone(p int32, idx int, z zone) bool {
	seq := ix.confSeqs.of(p)
	// First configuration change strictly after idx.
	k, _ := slices.BinarySearch(seq, int32(idx+1))
	for ; k < len(seq); k++ {
		if !ix.inZone(z, ix.cfgOf[seq[k]]) {
			return true
		}
	}
	return false
}

// inFinalZone reports whether q's last configuration belongs to the zone.
func (ix *index) inFinalZone(q int32, z zone) bool {
	seq := ix.confSeqs.of(q)
	if len(seq) == 0 {
		// q never installed anything; its whole (empty) history is
		// final.
		return true
	}
	return ix.inZone(z, ix.cfgOf[seq[len(seq)-1]])
}

// ints converts event indices for a Violation.
func ints(idxs []int32) []int {
	out := make([]int, len(idxs))
	for k, i := range idxs {
		out[k] = int(i)
	}
	return out
}
