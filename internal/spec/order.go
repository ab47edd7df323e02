package spec

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/model"
)

// CheckTotalOrder verifies Specifications 6.1-6.3 together with the barrier
// requirements 2.3/2.4, via the condensation argument described in the
// package comment: a legal ord function exists exactly when the condensed
// event graph — deliveries of one message merged, configuration change
// deliveries of one configuration merged — is acyclic.
func (c *Checker) CheckTotalOrder() []Violation {
	var out []Violation
	if _, rank := c.ix.condense(); rank == nil {
		out = append(out, Violation{
			Spec: "6.1/6.2",
			Msg:  "no legal ord exists: the condensed event graph is cyclic",
		})
	}
	out = append(out, c.checkDeliveryPrefix()...)
	return out
}

// BuildOrd constructs a witness ord assignment: a map from event index to
// logical time such that ord respects the generating edges (6.1), gives
// deliveries of one message — and configuration changes of one
// configuration — the same time (6.2), and gives distinct times otherwise.
// The second result reports whether the condensation is cyclic, in which
// case the assignment is nil.
func (c *Checker) BuildOrd() (map[int]uint64, bool) {
	super, rank := c.ix.condense()
	if rank == nil {
		return nil, true
	}
	ord := make(map[int]uint64, len(super))
	for i, s := range super {
		ord[i] = rank[s]
	}
	return ord, false
}

// condense returns each event's supernode and each supernode's logical
// time, or a nil rank when the condensation is cyclic.
//
// Supernodes are numbered by first occurrence in the history (so the
// assignment is deterministic), edges live in a compact sorted slice, and
// the Kahn loop picks the smallest ready supernode from a min-heap.
func (ix *index) condense() (super []int32, rank []uint64) {
	// Assign each event to a supernode: deliveries of one message share
	// one, as do deliver_conf events of one configuration.
	super = filled(len(ix.events), -1)
	msgSuper := filled(len(ix.msgIDs), -1)
	cfgSuper := filled(len(ix.cfgIDs), -1)
	nodes := int32(0)
	for i := range ix.events {
		slot := &super[i]
		switch ix.events[i].Type {
		case model.EventDeliver:
			slot = &msgSuper[ix.msgOf[i]]
		case model.EventDeliverConf:
			slot = &cfgSuper[ix.cfgOf[i]]
		}
		if *slot < 0 {
			*slot = nodes
			nodes++
		}
		super[i] = *slot
	}

	// Lift generating edges to supernodes, packed as (from,to) pairs,
	// then sort and dedup into CSR form.
	edges := make([]uint64, 0, len(ix.events)+len(ix.delivers.item))
	addEdge := func(a, b int32) {
		if sa, sb := super[a], super[b]; sa != sb {
			edges = append(edges, uint64(sa)<<32|uint64(sb))
		}
	}
	for p := int32(0); int(p) < ix.uni.Len(); p++ {
		idxs := ix.byProc.of(p)
		for k := 0; k+1 < len(idxs); k++ {
			addEdge(idxs[k], idxs[k+1])
		}
	}
	for m := range ix.msgIDs {
		if sIdxs := ix.sends.of(int32(m)); len(sIdxs) > 0 {
			for _, d := range ix.delivers.of(int32(m)) {
				addEdge(sIdxs[0], d)
			}
		}
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	start := make([]int32, nodes+1)
	dst := make([]int32, len(edges))
	indeg := make([]int32, nodes)
	for k, e := range edges {
		start[e>>32+1]++
		dst[k] = int32(uint32(e))
		indeg[dst[k]]++
	}
	for s := int32(0); s < nodes; s++ {
		start[s+1] += start[s]
	}

	// Topologically sort the supernode graph (Kahn), always taking the
	// smallest ready supernode.
	var ready minHeap
	for s := int32(0); s < nodes; s++ {
		if indeg[s] == 0 {
			ready.push(s)
		}
	}
	rank = make([]uint64, nodes)
	var t uint64
	for len(ready) > 0 {
		s := ready.pop()
		t++
		rank[s] = t
		for _, b := range dst[start[s]:start[s+1]] {
			indeg[b]--
			if indeg[b] == 0 {
				ready.push(b)
			}
		}
	}
	if t != uint64(nodes) {
		return super, nil
	}
	return super, rank
}

// minHeap is a binary min-heap of supernode ids, written out because
// container/heap would box every id it pushes or pops.
type minHeap []int32

func (h *minHeap) push(v int32) {
	q := append(*h, v)
	for i := len(q) - 1; i > 0 && q[(i-1)/2] > q[i]; i = (i - 1) / 2 {
		q[(i-1)/2], q[i] = q[i], q[(i-1)/2]
	}
	*h = q
}

func (h *minHeap) pop() int32 {
	q := *h
	top, n := q[0], len(q)-1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < n && q[c+1] < q[c] {
			c++
		}
		if c >= n || q[i] <= q[c] {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}

// checkDeliveryPrefix verifies Specification 6.3: if p delivered m before
// m' within com_p(c), and q delivered m' in configuration c' whose
// membership includes m's sender, then q delivered m within com_q(c').
//
// The reference enumerates every delivery pair of every family times
// every co-delivery — quartic in the worst case. Here each co-delivery is
// certified directly: q delivering m' in c' must hold, in its own com
// zone of c'.Prev(), every message p delivered before m' in p's family.
// Because q's zone-delivered set is precomputed (famDelivered), that is a
// monotone prefix pointer per q within the family. Certification is
// conservative — it ignores the sender-membership escape clause and zone
// mismatches — so a failed family falls back to the reference pair loop,
// emitting exactly the reference violations (or none, when the escape
// clause applies).
func (c *Checker) checkDeliveryPrefix() []Violation {
	var out []Violation
	ix := c.ix
	P, C := ix.uni.Len(), len(ix.cfgIDs)

	// fams.of(pc(p, reg)): p's deliveries in the configurations of the
	// regular family reg, in history order.
	keys := make([]int32, len(ix.events))
	for i := range ix.events {
		keys[i] = -1
		if ix.events[i].Type == model.EventDeliver {
			keys[i] = int32(ix.pc(ix.procOf[i], ix.cfgPrev[ix.cfgOf[i]]))
		}
	}
	fams := group(P*C, keys, nil)

	// done[q] = how many leading deliveries of the family q has
	// delivered within its own com zone of the family's regular
	// configuration. Monotone; amortized linear.
	done := make([]int32, P)
	for k := 0; k < P*C; k++ {
		dels := fams.of(int32(k))
		if len(dels) < 2 {
			continue // no delivery has a predecessor in the family
		}
		p, reg := int32(k/C), int32(k%C)
		clear(done)
		if !ix.prefixCertified(p, reg, dels, done) {
			out = append(out, ix.prefixViolations(p, dels)...)
		}
	}
	return out
}

// prefixCertified reports whether every co-delivery of the family's
// deliveries dels (by process p, family reg) holds the prefix before it.
func (ix *index) prefixCertified(p, reg int32, dels, done []int32) bool {
	for b := int32(1); int(b) < len(dels); b++ {
		for _, d2 := range ix.delivers.of(ix.msgOf[dels[b]]) {
			q := ix.procOf[d2]
			if q == p {
				continue
			}
			if ix.cfgPrev[ix.cfgOf[d2]] != reg {
				// q delivered m' under a different family; its
				// com zone does not line up with the prefix set.
				// Resolve by reference.
				return false
			}
			got := int32(ix.pc(q, reg))
			for done[q] < b && ix.famDelivered.has(got, ix.msgOf[dels[done[q]]]) {
				done[q]++
			}
			if done[q] < b {
				return false
			}
		}
	}
	return true
}

// prefixViolations is the reference double loop over one family's
// deliveries dels by process p.
func (ix *index) prefixViolations(p int32, dels []int32) []Violation {
	var out []Violation
	for a := 0; a < len(dels); a++ {
		for b := a + 1; b < len(dels); b++ {
			m := ix.msgOf[dels[a]]        // delivered first
			m2 := ix.msgOf[dels[b]]       // delivered later
			sender := ix.msgIDs[m].Sender // = r in the spec
			for _, d2 := range ix.delivers.of(m2) {
				q := ix.procOf[d2]
				de := &ix.events[d2]
				if q == p || !de.Members.Contains(sender) {
					continue
				}
				if !ix.deliveredIn(q, m, ix.comZoneOf(q, ix.cfgOf[d2])) {
					out = append(out, Violation{
						Spec: "6.3",
						Msg: fmt.Sprintf("%s delivered %s (after %s at %s) in %s whose membership includes %s, but never delivered %s",
							de.Proc, ix.msgIDs[m2], ix.msgIDs[m], ix.events[dels[a]].Proc, de.Config, sender, ix.msgIDs[m]),
						Events: []int{int(dels[a]), int(dels[b]), int(d2)},
					})
				}
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Specification 7: safe delivery.

// CheckSafeDelivery verifies Specifications 7.1 and 7.2 for messages sent
// with the safe service. Deliveries within a process's final configuration
// zone are enforced only on settled histories. All membership, zone,
// failure and delivery lookups hit the precomputed index tables.
func (c *Checker) CheckSafeDelivery() []Violation {
	var out []Violation
	ix := c.ix
	for m, mid := range ix.msgIDs {
		for _, d := range ix.delivers.of(int32(m)) {
			e := &ix.events[d]
			if e.Service != model.Safe {
				continue
			}
			cfg := ix.cfgOf[d]
			for _, q := range e.Members.View() {
				qi := ix.proc(q)
				// 7.2: a safe delivery in a regular configuration
				// requires every member to have installed it.
				if e.Config.IsRegular() && !ix.isInstalled(qi, cfg) {
					out = append(out, Violation{
						Spec: "7.2",
						Msg: fmt.Sprintf("%s delivered safe message %s in %s but member %s never installed it",
							e.Proc, mid, e.Config, q),
						Events: []int{int(d)},
					})
				}

				// 7.1: every member delivers m in its own com zone
				// or fails there.
				if q == e.Proc {
					continue
				}
				z := ix.comZoneOf(qi, cfg)
				if ix.deliveredIn(qi, int32(m), z) || ix.failedIn(qi, z) {
					continue
				}
				if !c.opts.Settled && ix.inFinalZone(qi, z) {
					continue
				}
				out = append(out, Violation{
					Spec: "7.1",
					Msg: fmt.Sprintf("%s delivered safe message %s in %s but member %s neither delivered nor failed",
						e.Proc, mid, e.Config, q),
					Events: []int{int(d)},
				})
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Section 2.2: the primary component model.

// CheckPrimary verifies Uniqueness — the primary components are totally
// ordered by the precedes relation — and Continuity — consecutive primary
// components share at least one member.
func (c *Checker) CheckPrimary() []Violation {
	var out []Violation
	ix := c.ix

	// The primary configurations, in canonical enumeration order: the
	// uniqueness pass below names the pair inside the violation message.
	var ids []int32
	for cfg := int32(0); int(cfg) < len(ix.cfgIDs); cfg++ {
		if slices.ContainsFunc(ix.confs.of(cfg), func(i int32) bool { return ix.events[i].Primary }) {
			ids = append(ids, cfg)
		}
	}
	sort.SliceStable(ids, func(a, b int) bool {
		x, y := ix.cfgIDs[ids[a]], ix.cfgIDs[ids[b]]
		if x.Seq != y.Seq {
			return x.Seq < y.Seq
		}
		return x.Rep < y.Rep
	})
	// Order primaries: C before C' when some primary deliver_conf of C
	// precedes some primary deliver_conf of C' in the closure
	// (continuity's shared member supplies the path in conforming
	// histories).
	before := func(a, b int32) bool {
		for _, i := range ix.confs.of(a) {
			for _, j := range ix.confs.of(b) {
				if ix.events[i].Primary && ix.events[j].Primary && ix.precedes(int(i), int(j)) {
					return true
				}
			}
		}
		return false
	}
	// Uniqueness: every pair must be ordered one way, not both.
	for a := 0; a < len(ids); a++ {
		for b := a + 1; b < len(ids); b++ {
			ab, ba := before(ids[a], ids[b]), before(ids[b], ids[a])
			if ab == ba {
				out = append(out, Violation{
					Spec: "primary-unique",
					Msg: fmt.Sprintf("primary components %s and %s are not totally ordered (both=%v)",
						ix.cfgIDs[ids[a]], ix.cfgIDs[ids[b]], ab),
				})
			}
		}
	}
	// Continuity: sort by the order and require adjacent intersection.
	ordered := slices.Clone(ids)
	for i := 0; i < len(ordered); i++ {
		for j := i + 1; j < len(ordered); j++ {
			if before(ordered[j], ordered[i]) {
				ordered[i], ordered[j] = ordered[j], ordered[i]
			}
		}
	}
	for k := 0; k+1 < len(ordered); k++ {
		a, b := ordered[k], ordered[k+1]
		if !ix.members[a].Intersects(ix.members[b]) {
			out = append(out, Violation{
				Spec: "primary-continuity",
				Msg: fmt.Sprintf("consecutive primary components %s%s and %s%s share no member",
					ix.cfgIDs[a], ix.members[a], ix.cfgIDs[b], ix.members[b]),
			})
		}
	}
	return out
}
