package spec

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/model"
)

// Checker validates a history against the extended virtual synchrony
// specifications.
type Checker struct {
	ix   *index
	opts Options
}

// NewChecker builds a checker over the given events.
func NewChecker(events []model.Event, opts Options) *Checker {
	return &Checker{ix: buildIndex(events), opts: opts}
}

// Precedes reports whether event i precedes event j in the closure of the
// generating edges. Exported for differential testing against the
// reference bitset closure (package refcheck).
func (c *Checker) Precedes(i, j int) bool { return c.ix.precedes(i, j) }

// CheckAll runs every specification check and returns all violations.
// The index is fully precomputed and read-only, so the seven checks run
// concurrently; the combined result is sorted into the order of
// sortViolations.
func (c *Checker) CheckAll() []Violation {
	checks := []func() []Violation{
		c.CheckBasicDelivery,
		c.CheckConfigChanges,
		c.CheckSelfDelivery,
		c.CheckFailureAtomicity,
		c.CheckCausalDelivery,
		c.CheckTotalOrder,
		c.CheckSafeDelivery,
	}
	results := make([][]Violation, len(checks))
	var wg sync.WaitGroup
	for i, f := range checks {
		wg.Add(1)
		go func(i int, f func() []Violation) {
			defer wg.Done()
			results[i] = f()
		}(i, f)
	}
	wg.Wait()
	var out []Violation
	for _, r := range results {
		out = append(out, r...)
	}
	sortViolations(out)
	return out
}

// sortViolations orders violations deterministically: by clause, then by
// the offending event indices, then by message text.
func sortViolations(vs []Violation) {
	sort.SliceStable(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		if a.Spec != b.Spec {
			return a.Spec < b.Spec
		}
		for k := 0; k < len(a.Events) && k < len(b.Events); k++ {
			if a.Events[k] != b.Events[k] {
				return a.Events[k] < b.Events[k]
			}
		}
		if len(a.Events) != len(b.Events) {
			return len(a.Events) < len(b.Events)
		}
		return a.Msg < b.Msg
	})
}

// ---------------------------------------------------------------------------
// Specification 1: basic delivery.

// CheckBasicDelivery verifies Specifications 1.3 and 1.4 (1.1 and 1.2 are
// structural: the generating edges are acyclic by construction and each
// process's events are totally ordered by their position in the history).
func (c *Checker) CheckBasicDelivery() []Violation {
	var out []Violation
	ix := c.ix
	last := filled(ix.uni.Len(), -1) // per process: its latest delivery of m so far
	for m, mid := range ix.msgIDs {
		sIdxs, dIdxs := ix.sends.of(int32(m)), ix.delivers.of(int32(m))

		// 1.4: a message is sent exactly once, in a regular
		// configuration, and no process delivers it twice.
		if len(sIdxs) > 1 {
			out = append(out, Violation{
				Spec:   "1.4",
				Msg:    fmt.Sprintf("message %s sent %d times", mid, len(sIdxs)),
				Events: ints(sIdxs),
			})
		}
		for _, s := range sIdxs {
			if !ix.events[s].Config.IsRegular() {
				out = append(out, Violation{
					Spec:   "1.4",
					Msg:    fmt.Sprintf("message %s sent in non-regular configuration %s", mid, ix.events[s].Config),
					Events: []int{int(s)},
				})
			}
		}
		for _, d := range dIdxs {
			p := ix.procOf[d]
			if last[p] >= 0 {
				out = append(out, Violation{
					Spec:   "1.4",
					Msg:    fmt.Sprintf("process %s delivered message %s twice", ix.events[d].Proc, mid),
					Events: []int{int(last[p]), int(d)},
				})
			}
			last[p] = d
		}
		for _, d := range dIdxs {
			last[ix.procOf[d]] = -1
		}

		// 1.3: every delivery has a preceding send in the regular
		// configuration underlying the delivery configuration.
		for _, d := range dIdxs {
			de := &ix.events[d]
			if len(sIdxs) == 0 {
				out = append(out, Violation{
					Spec:   "1.3",
					Msg:    fmt.Sprintf("message %s delivered by %s but never sent", mid, de.Proc),
					Events: []int{int(d)},
				})
				continue
			}
			s := int(sIdxs[0])
			if ix.cfgOf[s] != ix.cfgPrev[ix.cfgOf[d]] {
				out = append(out, Violation{
					Spec: "1.3",
					Msg: fmt.Sprintf("message %s sent in %s but delivered by %s in %s",
						mid, ix.events[s].Config, de.Proc, de.Config),
					Events: []int{s, int(d)},
				})
			}
			if !ix.precedes(s, int(d)) {
				out = append(out, Violation{
					Spec:   "1.3",
					Msg:    fmt.Sprintf("delivery of %s by %s does not follow its send", mid, de.Proc),
					Events: []int{s, int(d)},
				})
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Specification 2: delivery of configuration changes.

// CheckConfigChanges verifies Specifications 2.1 (on settled histories) and
// 2.2; 2.3 and 2.4 are verified jointly with 6.1/6.2 by CheckTotalOrder via
// the condensation argument (see the package comment).
func (c *Checker) CheckConfigChanges() []Violation {
	var out []Violation
	ix := c.ix

	// A configuration must be delivered at most once per process, with
	// consistent membership, and the process must be a member.
	seen := filled(ix.uni.Len(), -1)
	for cfg, members := range ix.members {
		idxs := ix.confs.of(int32(cfg))
		for _, i := range idxs {
			e := &ix.events[i]
			if prev := seen[ix.procOf[i]]; prev >= 0 {
				out = append(out, Violation{
					Spec:   "2.1",
					Msg:    fmt.Sprintf("process %s delivered configuration %s twice", e.Proc, e.Config),
					Events: []int{int(prev), int(i)},
				})
			}
			seen[ix.procOf[i]] = i
			if !e.Members.Equal(members) {
				out = append(out, Violation{
					Spec:   "2.1",
					Msg:    fmt.Sprintf("configuration %s has inconsistent membership: %s vs %s", e.Config, e.Members, members),
					Events: []int{int(i)},
				})
			}
			if !e.Members.Contains(e.Proc) {
				out = append(out, Violation{
					Spec:   "2.2",
					Msg:    fmt.Sprintf("process %s installed configuration %s it is not a member of", e.Proc, e.Config),
					Events: []int{int(i)},
				})
			}
		}
		for _, i := range idxs {
			seen[ix.procOf[i]] = -1
		}
	}

	// 2.2: every send/deliver/fail occurs in the configuration initiated
	// by the most recent configuration change of that process, with no
	// intervening failure.
	for p := range seen {
		current := int32(0) // the zero configuration
		failed := false
		for _, i := range ix.byProc.of(int32(p)) {
			e := &ix.events[i]
			switch e.Type {
			case model.EventDeliverConf:
				current = ix.cfgOf[i]
				failed = false
			case model.EventFail:
				if ix.cfgOf[i] != current {
					out = append(out, Violation{
						Spec:   "2.2",
						Msg:    fmt.Sprintf("process %s failed in %s while its configuration is %s", e.Proc, e.Config, ix.cfgIDs[current]),
						Events: []int{int(i)},
					})
				}
				failed = true
			case model.EventSend, model.EventDeliver:
				if failed {
					out = append(out, Violation{
						Spec:   "2.2",
						Msg:    fmt.Sprintf("process %s has %s after failing without recovering", e.Proc, e.Type),
						Events: []int{int(i)},
					})
				}
				if ix.cfgOf[i] != current {
					out = append(out, Violation{
						Spec: "2.2",
						Msg: fmt.Sprintf("process %s has %s event in %s while its configuration is %s",
							e.Proc, e.Type, e.Config, ix.cfgIDs[current]),
						Events: []int{int(i)},
					})
				}
			}
		}
	}

	// 2.1 on settled histories: if p's final configuration is c and p
	// did not fail, every member of c finishes in c without failing.
	if c.opts.Settled {
		out = append(out, c.checkFinalAgreement()...)
	}
	return out
}

// checkFinalAgreement enforces the settled-history reading of 2.1.
func (c *Checker) checkFinalAgreement() []Violation {
	var out []Violation
	ix := c.ix
	// final returns p's final configuration (the zero one if it never
	// installed any) and whether p failed after installing it.
	final := func(p int32) (int32, bool) {
		seq, fails := ix.confSeqs.of(p), ix.fails.of(p)
		cfg, last := int32(0), int32(-1)
		if len(seq) > 0 {
			last = seq[len(seq)-1]
			cfg = ix.cfgOf[last]
		}
		return cfg, len(fails) > 0 && fails[len(fails)-1] > last
	}
	for p := 0; p < ix.uni.Len(); p++ {
		cfg, failed := final(int32(p))
		if len(ix.confSeqs.of(int32(p))) == 0 || failed {
			continue
		}
		for _, q := range ix.members[cfg].View() {
			qcfg, qfailed := final(ix.proc(q))
			if !qfailed && qcfg != cfg {
				out = append(out, Violation{
					Spec: "2.1",
					Msg: fmt.Sprintf("process %s finished in %s but member %s finished in %s",
						ix.uni.ID(p), ix.cfgIDs[cfg], q, ix.cfgIDs[qcfg]),
				})
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Specification 3: self-delivery.

// CheckSelfDelivery verifies that each process delivers its own messages
// unless it fails in the sending configuration or its transitional
// successor. Sends in a process's final configuration are checked only on
// settled histories.
func (c *Checker) CheckSelfDelivery() []Violation {
	var out []Violation
	ix := c.ix
	for m, mid := range ix.msgIDs {
		for _, s := range ix.sends.of(int32(m)) {
			p := ix.procOf[s]
			z := ix.comZone(p, ix.cfgOf[s])
			if ix.failedIn(p, z) {
				continue
			}
			movedOn := ix.leftZone(p, int(s), z)
			if !movedOn && !c.opts.Settled {
				continue
			}
			if !ix.deliveredIn(p, int32(m), z) {
				se := &ix.events[s]
				out = append(out, Violation{
					Spec:   "3",
					Msg:    fmt.Sprintf("process %s never delivered its own message %s sent in %s", se.Proc, mid, se.Config),
					Events: []int{int(s)},
				})
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Specification 4: failure atomicity.

// CheckFailureAtomicity verifies that two processes proceeding together
// from configuration c to the same next configuration delivered the same
// set of messages in c.
//
// The quadratic all-pairs set comparison is replaced by an equivalence
// test: within each (configuration, next-configuration) group every
// installer's delivered set is compared with the group's first, and only
// configurations where one differs — i.e. an actual violation — fall back
// to the original pairwise loop, reproducing the reference violations
// exactly.
func (c *Checker) CheckFailureAtomicity() []Violation {
	var out []Violation
	ix := c.ix
	P, C := ix.uni.Len(), len(ix.cfgIDs)

	// next[pc(p, cfg)] = the configuration p installed after (its last
	// installation of) cfg, or -1.
	next := filled(P*C, -1)
	for p := int32(0); int(p) < P; p++ {
		seq := ix.confSeqs.of(p)
		for k := 0; k+1 < len(seq); k++ {
			next[ix.pc(p, ix.cfgOf[seq[k]])] = ix.cfgOf[seq[k+1]]
		}
	}
	// delivered.of(pc(p, cfg)) = the sorted set of messages p delivered
	// in cfg.
	keys := make([]int32, len(ix.events))
	for i := range ix.events {
		keys[i] = -1
		if ix.events[i].Type == model.EventDeliver {
			keys[i] = int32(ix.pc(ix.procOf[i], ix.cfgOf[i]))
		}
	}
	delivered := group(P*C, keys, ix.msgOf)
	delivered.sortUnique()

	var slow []int32
	for cfg := int32(0); int(cfg) < C; cfg++ {
		idxs := ix.confs.of(cfg)
	classes:
		for a, i := range idxs {
			ka := ix.pc(ix.procOf[i], cfg)
			if next[ka] < 0 {
				continue
			}
			for _, j := range idxs[:a] {
				if kb := ix.pc(ix.procOf[j], cfg); next[kb] == next[ka] {
					if !slices.Equal(delivered.of(int32(ka)), delivered.of(int32(kb))) {
						slow = append(slow, cfg)
						break classes
					}
					break
				}
			}
		}
	}

	// Fallback: re-run the reference pairwise comparison for the
	// configurations where classes diverged, producing the exact
	// reference violations.
	for _, cfg := range slow {
		idxs := ix.confs.of(cfg)
		for a := 0; a < len(idxs); a++ {
			for b := a + 1; b < len(idxs); b++ {
				kp, kq := ix.pc(ix.procOf[idxs[a]], cfg), ix.pc(ix.procOf[idxs[b]], cfg)
				np := next[kp]
				if np < 0 || np != next[kq] {
					continue
				}
				if diff := ix.setDiff(delivered.of(int32(kp)), delivered.of(int32(kq))); diff != "" {
					out = append(out, Violation{
						Spec: "4",
						Msg: fmt.Sprintf("processes %s and %s proceeded from %s to %s but delivered different sets: %s",
							ix.events[idxs[a]].Proc, ix.events[idxs[b]].Proc, ix.cfgIDs[cfg], ix.cfgIDs[np], diff),
					})
				}
			}
		}
	}
	return out
}

// setDiff describes the symmetric difference of two sorted message sets
// ("" when equal).
func (ix *index) setDiff(a, b []int32) string {
	var onlyA, onlyB []string
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
			onlyA = append(onlyA, ix.msgIDs[a[0]].String())
			a = a[1:]
		case len(a) == 0 || b[0] < a[0]:
			onlyB = append(onlyB, ix.msgIDs[b[0]].String())
			b = b[1:]
		default:
			a, b = a[1:], b[1:]
		}
	}
	if len(onlyA) == 0 && len(onlyB) == 0 {
		return ""
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	return fmt.Sprintf("first-only=%v second-only=%v", onlyA, onlyB)
}

// ---------------------------------------------------------------------------
// Specification 5: causal delivery.

// CheckCausalDelivery verifies that when send(m) precedes send(m') within a
// configuration, any process delivering m' also delivered m, earlier.
//
// Instead of enumerating all ordered send pairs (quadratic) times their
// deliveries (cubic), a single pass over the history certifies each
// delivery directly: for a delivery of m' with send s, the causal
// predecessors of s among the configuration's sends form, per sending
// process, a prefix of that process's send list — the prefix of length
// vt(s)[p] in local coordinates. The receiver is certified when, for
// every sender, it has first-delivered that whole prefix strictly before
// this delivery. Certification fails exactly when a reference violation
// exists, and then the configuration falls back to the original
// triple loop, reproducing the reference violations verbatim.
func (c *Checker) CheckCausalDelivery() []Violation {
	var out []Violation
	ix := c.ix
	P, C := ix.uni.Len(), len(ix.cfgIDs)

	// bySender.of(cfg*P + p): p's sends in cfg in history order, so
	// their local indices ascend.
	keys := make([]int32, len(ix.events))
	for i := range ix.events {
		keys[i] = -1
		if ix.events[i].Type == model.EventSend {
			keys[i] = ix.cfgOf[i]*int32(P) + ix.procOf[i]
		}
	}
	bySender := group(C*P, keys, nil)

	slow := make([]bool, C)
	// Multiply-sent messages (a 1.4 violation) have no single send to
	// certify against; route their configurations through the fallback.
	for m := range ix.msgIDs {
		if sIdxs := ix.sends.of(int32(m)); len(sIdxs) > 1 {
			for _, s := range sIdxs {
				slow[ix.cfgOf[s]] = true
			}
		}
	}

	// The P counters at done[row[pc(r, cfg)]:] = per sender, how many of
	// that sender's sends the receiver r has first-delivered strictly
	// before the event currently being certified. Monotone in the scan,
	// so each position is verified at most once plus one failed probe
	// per certification.
	row := filled(P*C, -1)
	var done []int32
	for i := range ix.events {
		if ix.events[i].Type != model.EventDeliver {
			continue
		}
		sIdxs := ix.sends.of(ix.msgOf[i])
		if len(sIdxs) != 1 {
			continue // no send: no pairs; multi-send: already slow
		}
		s := int(sIdxs[0])
		cfg := ix.cfgOf[s]
		if slow[cfg] {
			continue
		}
		r := ix.procOf[i]
		k := ix.pc(r, cfg)
		if row[k] < 0 {
			row[k] = int32(len(done))
			done = append(done, make([]int32, P)...)
		}
		prefix := done[row[k] : int(row[k])+P]
		svt := ix.vtOf(s)
		for p := range prefix {
			sends := bySender.of(cfg*int32(P) + int32(p))
			// Sends by p causally preceding s: the prefix with
			// local index <= vt(s)[p]; s itself is excluded when
			// p is s's own process (its component equals s's
			// local index).
			n := int32(sort.Search(len(sends), func(x int) bool {
				return ix.local(int(sends[x])) > svt[p]
			}))
			if int32(p) == ix.procOf[s] {
				n--
			}
			for prefix[p] < n {
				d1 := ix.deliveryIndex(r, ix.msgOf[sends[prefix[p]]])
				if d1 < 0 || d1 >= i {
					break
				}
				prefix[p]++
			}
			if prefix[p] < n {
				slow[cfg] = true
				break
			}
		}
	}

	// Fallback: the reference triple loop, restricted to the slow
	// configurations (exactly those containing a violation).
	for cfg, isSlow := range slow {
		if !isSlow {
			continue
		}
		sends := bySender.item[bySender.start[cfg*P]:bySender.start[(cfg+1)*P]]
		for _, sa := range sends {
			for _, sb := range sends {
				if sa == sb || !ix.precedes(int(sa), int(sb)) {
					continue
				}
				m, m2 := ix.msgOf[sa], ix.msgOf[sb]
				for _, d2 := range ix.delivers.of(m2) {
					r := ix.events[d2].Proc
					d1 := ix.deliveryIndex(ix.procOf[d2], m)
					if d1 < 0 {
						out = append(out, Violation{
							Spec: "5",
							Msg: fmt.Sprintf("%s delivered %s but not its causal predecessor %s",
								r, ix.msgIDs[m2], ix.msgIDs[m]),
							Events: []int{int(sa), int(sb), int(d2)},
						})
						continue
					}
					if d1 > int(d2) {
						out = append(out, Violation{
							Spec: "5",
							Msg: fmt.Sprintf("%s delivered %s before its causal predecessor %s",
								r, ix.msgIDs[m2], ix.msgIDs[m]),
							Events: []int{d1, int(d2)},
						})
					}
				}
			}
		}
	}
	return out
}
