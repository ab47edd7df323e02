// Package refcheck is the reference implementation of the specification
// checker: the original O(n²)-memory bitset transitive closure over the
// generating edges of the precedes relation, and the original
// nested-loop forms of every check. It exists solely as a differential
// testing oracle for the scalable checker in package spec — the two must
// agree violation-for-violation on every history — and is imported only
// from test files and the inline oracle of every chaos run (chaos.Run
// samples certification windows through it; the windows are pruned and
// hence bounded). Do not use it in other production paths: checking a
// history of n events allocates n²/8 bytes here versus O(n·P) in package
// spec.
package refcheck

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/spec"
)

// CheckAll runs every specification check of spec.Checker.CheckAll in its
// original serial order and returns the violations found. The order of
// violations within one check follows Go map iteration and is therefore
// not deterministic; compare results as multisets.
func CheckAll(events []model.Event, opts spec.Options) []spec.Violation {
	c := &checker{ix: buildIndex(events), opts: opts}
	var out []spec.Violation
	out = append(out, c.checkBasicDelivery()...)
	out = append(out, c.checkConfigChanges()...)
	out = append(out, c.checkSelfDelivery()...)
	out = append(out, c.checkFailureAtomicity()...)
	out = append(out, c.checkCausalDelivery()...)
	out = append(out, c.checkTotalOrder()...)
	out = append(out, c.checkSafeDelivery()...)
	return out
}

// Closure computes the bitset transitive closure of the generating edges
// and returns the precedes predicate over event indices. It is the oracle
// for spec's vector-timestamp precedes.
func Closure(events []model.Event) func(i, j int) bool {
	ix := buildIndex(events)
	return ix.precedes
}

// index holds the derived structures every check shares.
type index struct {
	events   []model.Event
	byProc   map[model.ProcessID][]int
	sends    map[model.MessageID][]int
	delivers map[model.MessageID][]int
	confs    map[model.ConfigID][]int
	members  map[model.ConfigID]model.ProcessSet
	// reach is the transitive closure over the generating edges:
	// reach[i] bit j set means event i precedes event j.
	reach []bitset
}

func buildIndex(events []model.Event) *index {
	ix := &index{
		events:   events,
		byProc:   make(map[model.ProcessID][]int),
		sends:    make(map[model.MessageID][]int),
		delivers: make(map[model.MessageID][]int),
		confs:    make(map[model.ConfigID][]int),
		members:  make(map[model.ConfigID]model.ProcessSet),
	}
	for i, e := range events {
		ix.byProc[e.Proc] = append(ix.byProc[e.Proc], i)
		switch e.Type {
		case model.EventSend:
			ix.sends[e.Msg] = append(ix.sends[e.Msg], i)
		case model.EventDeliver:
			ix.delivers[e.Msg] = append(ix.delivers[e.Msg], i)
		case model.EventDeliverConf:
			ix.confs[e.Config] = append(ix.confs[e.Config], i)
			if _, ok := ix.members[e.Config]; !ok {
				ix.members[e.Config] = e.Members
			}
		}
	}
	ix.buildReach()
	return ix
}

// buildReach computes the transitive closure of the generating edges. All
// generating edges point forward in history order, so a single backward
// sweep suffices.
func (ix *index) buildReach() {
	n := len(ix.events)
	ix.reach = make([]bitset, n)
	words := (n + 63) / 64
	succ := make([][]int32, n)
	for _, idxs := range ix.byProc {
		for k := 0; k+1 < len(idxs); k++ {
			//lint:allow determinism successor lists feed an order-insensitive bitset closure
			succ[idxs[k]] = append(succ[idxs[k]], int32(idxs[k+1]))
		}
	}
	for m, sIdxs := range ix.sends {
		if len(sIdxs) == 0 {
			continue
		}
		s := sIdxs[0]
		for _, d := range ix.delivers[m] {
			if s < d {
				//lint:allow determinism successor lists feed an order-insensitive bitset closure
				succ[s] = append(succ[s], int32(d))
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		b := newBitset(words)
		for _, j := range succ[i] {
			b.set(int(j))
			b.orInto(ix.reach[j])
		}
		ix.reach[i] = b
	}
}

// precedes reports whether event i precedes event j in the closure.
func (ix *index) precedes(i, j int) bool {
	if i == j {
		return false
	}
	return ix.reach[i].get(j)
}

// confSeq returns the indices of p's deliver_conf events in order.
func (ix *index) confSeq(p model.ProcessID) []int {
	var out []int
	for _, i := range ix.byProc[p] {
		if ix.events[i].Type == model.EventDeliverConf {
			out = append(out, i)
		}
	}
	return out
}

// bitset is a fixed-size bit vector.
type bitset []uint64

func newBitset(words int) bitset { return make(bitset, words) }

func (b bitset) set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

func (b bitset) get(i int) bool {
	w := i / 64
	if w >= len(b) {
		return false
	}
	return b[w]&(1<<(uint(i)%64)) != 0
}

func (b bitset) orInto(o bitset) {
	for w := range o {
		b[w] |= o[w]
	}
}

type checker struct {
	ix   *index
	opts spec.Options
}

// ---------------------------------------------------------------------------
// Specification 1: basic delivery.

func (c *checker) checkBasicDelivery() []spec.Violation {
	var out []spec.Violation
	ix := c.ix

	for m, sIdxs := range ix.sends {
		if len(sIdxs) > 1 {
			//lint:allow determinism reference checker contract is multiset output (sorted by the differential harness); kept verbatim as the oracle
			out = append(out, spec.Violation{
				Spec:   "1.4",
				Msg:    fmt.Sprintf("message %s sent %d times", m, len(sIdxs)),
				Events: sIdxs,
			})
		}
		for _, s := range sIdxs {
			if !ix.events[s].Config.IsRegular() {
				out = append(out, spec.Violation{
					Spec:   "1.4",
					Msg:    fmt.Sprintf("message %s sent in non-regular configuration %s", m, ix.events[s].Config),
					Events: []int{s},
				})
			}
		}
	}
	perProcDeliver := make(map[model.ProcessID]map[model.MessageID]int)
	for m, dIdxs := range ix.delivers {
		for _, d := range dIdxs {
			p := ix.events[d].Proc
			if perProcDeliver[p] == nil {
				perProcDeliver[p] = make(map[model.MessageID]int)
			}
			if prev, dup := perProcDeliver[p][m]; dup {
				//lint:allow determinism reference checker contract is multiset output (sorted by the differential harness); kept verbatim as the oracle
				out = append(out, spec.Violation{
					Spec:   "1.4",
					Msg:    fmt.Sprintf("process %s delivered message %s twice", p, m),
					Events: []int{prev, d},
				})
			}
			perProcDeliver[p][m] = d
		}
	}

	for m, dIdxs := range ix.delivers {
		sIdxs := ix.sends[m]
		for _, d := range dIdxs {
			de := ix.events[d]
			if len(sIdxs) == 0 {
				//lint:allow determinism reference checker contract is multiset output (sorted by the differential harness); kept verbatim as the oracle
				out = append(out, spec.Violation{
					Spec:   "1.3",
					Msg:    fmt.Sprintf("message %s delivered by %s but never sent", m, de.Proc),
					Events: []int{d},
				})
				continue
			}
			s := sIdxs[0]
			se := ix.events[s]
			if se.Config != de.Config.Prev() {
				out = append(out, spec.Violation{
					Spec: "1.3",
					Msg: fmt.Sprintf("message %s sent in %s but delivered by %s in %s",
						m, se.Config, de.Proc, de.Config),
					Events: []int{s, d},
				})
			}
			if !ix.precedes(s, d) {
				out = append(out, spec.Violation{
					Spec:   "1.3",
					Msg:    fmt.Sprintf("delivery of %s by %s does not follow its send", m, de.Proc),
					Events: []int{s, d},
				})
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Specification 2: delivery of configuration changes.

func (c *checker) checkConfigChanges() []spec.Violation {
	var out []spec.Violation
	ix := c.ix

	for cfg, idxs := range ix.confs {
		seen := make(map[model.ProcessID]int)
		for _, i := range idxs {
			e := ix.events[i]
			if prev, dup := seen[e.Proc]; dup {
				//lint:allow determinism reference checker contract is multiset output (sorted by the differential harness); kept verbatim as the oracle
				out = append(out, spec.Violation{
					Spec:   "2.1",
					Msg:    fmt.Sprintf("process %s delivered configuration %s twice", e.Proc, cfg),
					Events: []int{prev, i},
				})
			}
			seen[e.Proc] = i
			if !e.Members.Equal(ix.members[cfg]) {
				out = append(out, spec.Violation{
					Spec:   "2.1",
					Msg:    fmt.Sprintf("configuration %s has inconsistent membership: %s vs %s", cfg, e.Members, ix.members[cfg]),
					Events: []int{i},
				})
			}
			if !e.Members.Contains(e.Proc) {
				out = append(out, spec.Violation{
					Spec:   "2.2",
					Msg:    fmt.Sprintf("process %s installed configuration %s it is not a member of", e.Proc, cfg),
					Events: []int{i},
				})
			}
		}
	}

	for p, idxs := range ix.byProc {
		var current model.ConfigID
		failed := false
		for _, i := range idxs {
			e := ix.events[i]
			switch e.Type {
			case model.EventDeliverConf:
				current = e.Config
				failed = false
			case model.EventFail:
				if e.Config != current {
					//lint:allow determinism reference checker contract is multiset output (sorted by the differential harness); kept verbatim as the oracle
					out = append(out, spec.Violation{
						Spec:   "2.2",
						Msg:    fmt.Sprintf("process %s failed in %s while its configuration is %s", p, e.Config, current),
						Events: []int{i},
					})
				}
				failed = true
			case model.EventSend, model.EventDeliver:
				if failed {
					out = append(out, spec.Violation{
						Spec:   "2.2",
						Msg:    fmt.Sprintf("process %s has %s after failing without recovering", p, e.Type),
						Events: []int{i},
					})
				}
				if e.Config != current {
					out = append(out, spec.Violation{
						Spec: "2.2",
						Msg: fmt.Sprintf("process %s has %s event in %s while its configuration is %s",
							p, e.Type, e.Config, current),
						Events: []int{i},
					})
				}
			}
		}
	}

	if c.opts.Settled {
		out = append(out, c.checkFinalAgreement()...)
	}
	return out
}

func (c *checker) checkFinalAgreement() []spec.Violation {
	var out []spec.Violation
	ix := c.ix
	finals := make(map[model.ProcessID]model.ConfigID)
	failedIn := make(map[model.ProcessID]bool)
	for p, idxs := range ix.byProc {
		for _, i := range idxs {
			e := ix.events[i]
			switch e.Type {
			case model.EventDeliverConf:
				finals[p] = e.Config
				failedIn[p] = false
			case model.EventFail:
				failedIn[p] = true
			}
		}
	}
	for p, cfg := range finals {
		if failedIn[p] {
			continue
		}
		for _, q := range ix.members[cfg].Members() {
			if failedIn[q] {
				continue
			}
			if finals[q] != cfg {
				//lint:allow determinism reference checker contract is multiset output (sorted by the differential harness); kept verbatim as the oracle
				out = append(out, spec.Violation{
					Spec: "2.1",
					Msg: fmt.Sprintf("process %s finished in %s but member %s finished in %s",
						p, cfg, q, finals[q]),
				})
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Specification 3: self-delivery.

func (c *checker) checkSelfDelivery() []spec.Violation {
	var out []spec.Violation
	ix := c.ix
	for m, sIdxs := range ix.sends {
		for _, s := range sIdxs {
			se := ix.events[s]
			p := se.Proc
			zone := c.comZone(p, se.Config)
			if c.failedIn(p, zone) {
				continue
			}
			movedOn := c.leftZone(p, s, zone)
			if !movedOn && !c.opts.Settled {
				continue
			}
			if !c.deliveredIn(p, m, zone) {
				//lint:allow determinism reference checker contract is multiset output (sorted by the differential harness); kept verbatim as the oracle
				out = append(out, spec.Violation{
					Spec:   "3",
					Msg:    fmt.Sprintf("process %s never delivered its own message %s sent in %s", p, m, se.Config),
					Events: []int{s},
				})
			}
		}
	}
	return out
}

func (c *checker) comZone(p model.ProcessID, cfg model.ConfigID) []model.ConfigID {
	zone := []model.ConfigID{cfg}
	if cfg.IsTransitional() {
		return zone
	}
	for _, i := range c.ix.confSeq(p) {
		e := c.ix.events[i]
		if e.Config.IsTransitional() && e.Config.Prev() == cfg {
			zone = append(zone, e.Config)
		}
	}
	return zone
}

func (c *checker) failedIn(p model.ProcessID, zone []model.ConfigID) bool {
	for _, i := range c.ix.byProc[p] {
		e := c.ix.events[i]
		if e.Type == model.EventFail {
			for _, z := range zone {
				if e.Config == z {
					return true
				}
			}
		}
	}
	return false
}

func (c *checker) leftZone(p model.ProcessID, idx int, zone []model.ConfigID) bool {
	for _, i := range c.ix.byProc[p] {
		if i <= idx {
			continue
		}
		e := c.ix.events[i]
		if e.Type != model.EventDeliverConf {
			continue
		}
		inZone := false
		for _, z := range zone {
			if e.Config == z {
				inZone = true
			}
		}
		if !inZone {
			return true
		}
	}
	return false
}

func (c *checker) deliveredIn(p model.ProcessID, m model.MessageID, zone []model.ConfigID) bool {
	for _, d := range c.ix.delivers[m] {
		e := c.ix.events[d]
		if e.Proc != p {
			continue
		}
		for _, z := range zone {
			if e.Config == z {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Specification 4: failure atomicity.

func (c *checker) checkFailureAtomicity() []spec.Violation {
	var out []spec.Violation
	ix := c.ix

	type procConf struct {
		p   model.ProcessID
		cfg model.ConfigID
	}
	next := make(map[procConf]model.ConfigID)
	for p := range ix.byProc {
		seq := ix.confSeq(p)
		for k := 0; k+1 < len(seq); k++ {
			cur := ix.events[seq[k]].Config
			nxt := ix.events[seq[k+1]].Config
			next[procConf{p, cur}] = nxt
		}
	}
	delivered := make(map[procConf]map[model.MessageID]bool)
	for m, dIdxs := range ix.delivers {
		for _, d := range dIdxs {
			e := ix.events[d]
			k := procConf{e.Proc, e.Config}
			if delivered[k] == nil {
				delivered[k] = make(map[model.MessageID]bool)
			}
			delivered[k][m] = true
		}
	}

	for cfg, idxs := range ix.confs {
		for a := 0; a < len(idxs); a++ {
			for b := a + 1; b < len(idxs); b++ {
				p := ix.events[idxs[a]].Proc
				q := ix.events[idxs[b]].Proc
				np, okp := next[procConf{p, cfg}]
				nq, okq := next[procConf{q, cfg}]
				if !okp || !okq || np != nq {
					continue
				}
				dp := delivered[procConf{p, cfg}]
				dq := delivered[procConf{q, cfg}]
				if diff := setDiff(dp, dq); diff != "" {
					//lint:allow determinism reference checker contract is multiset output (sorted by the differential harness); kept verbatim as the oracle
					out = append(out, spec.Violation{
						Spec: "4",
						Msg: fmt.Sprintf("processes %s and %s proceeded from %s to %s but delivered different sets: %s",
							p, q, cfg, np, diff),
					})
				}
			}
		}
	}
	return out
}

func setDiff(a, b map[model.MessageID]bool) string {
	var onlyA, onlyB []string
	for m := range a {
		if !b[m] {
			onlyA = append(onlyA, m.String())
		}
	}
	for m := range b {
		if !a[m] {
			onlyB = append(onlyB, m.String())
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

func (c *checker) checkCausalDelivery() []spec.Violation {
	var out []spec.Violation
	ix := c.ix

	sendsByCfg := make(map[model.ConfigID][]int)
	for _, sIdxs := range ix.sends {
		for _, s := range sIdxs {
			//lint:allow determinism each per-config send list is sorted with sort.Ints before use
			sendsByCfg[ix.events[s].Config] = append(sendsByCfg[ix.events[s].Config], s)
		}
	}
	for _, sends := range sendsByCfg {
		sort.Ints(sends)
		for a := 0; a < len(sends); a++ {
			for b := 0; b < len(sends); b++ {
				if a == b || !ix.precedes(sends[a], sends[b]) {
					continue
				}
				m := ix.events[sends[a]].Msg
				m2 := ix.events[sends[b]].Msg
				for _, d2 := range ix.delivers[m2] {
					r := ix.events[d2].Proc
					d1 := c.deliveryIndex(r, m)
					if d1 < 0 {
						//lint:allow determinism reference checker contract is multiset output (sorted by the differential harness); kept verbatim as the oracle
						out = append(out, spec.Violation{
							Spec: "5",
							Msg: fmt.Sprintf("%s delivered %s but not its causal predecessor %s",
								r, m2, m),
							Events: []int{sends[a], sends[b], d2},
						})
						continue
					}
					if d1 > d2 {
						out = append(out, spec.Violation{
							Spec: "5",
							Msg: fmt.Sprintf("%s delivered %s before its causal predecessor %s",
								r, m2, m),
							Events: []int{d1, d2},
						})
					}
				}
			}
		}
	}
	return out
}

func (c *checker) deliveryIndex(p model.ProcessID, m model.MessageID) int {
	for _, d := range c.ix.delivers[m] {
		if c.ix.events[d].Proc == p {
			return d
		}
	}
	return -1
}

// ---------------------------------------------------------------------------
// Specification 6: total order.

func (c *checker) checkTotalOrder() []spec.Violation {
	var out []spec.Violation
	if _, cyclic := c.buildOrd(); cyclic {
		out = append(out, spec.Violation{
			Spec: "6.1/6.2",
			Msg:  "no legal ord exists: the condensed event graph is cyclic",
		})
	}
	out = append(out, c.checkDeliveryPrefix()...)
	return out
}

func (c *checker) buildOrd() (map[int]uint64, bool) {
	ix := c.ix
	n := len(ix.events)

	super := make([]int, n)
	for i := range super {
		super[i] = -1
	}
	nextSuper := 0
	alloc := func(idxs []int) {
		s := nextSuper
		nextSuper++
		for _, i := range idxs {
			super[i] = s
		}
	}
	for _, dIdxs := range ix.delivers {
		alloc(dIdxs)
	}
	for _, cIdxs := range ix.confs {
		alloc(cIdxs)
	}
	for i := range super {
		if super[i] == -1 {
			alloc([]int{i})
		}
	}

	adj := make(map[int]map[int]bool, nextSuper)
	addEdge := func(a, b int) {
		sa, sb := super[a], super[b]
		if sa == sb {
			return
		}
		if adj[sa] == nil {
			adj[sa] = make(map[int]bool)
		}
		adj[sa][sb] = true
	}
	for _, idxs := range ix.byProc {
		for k := 0; k+1 < len(idxs); k++ {
			addEdge(idxs[k], idxs[k+1])
		}
	}
	for m, sIdxs := range ix.sends {
		if len(sIdxs) == 0 {
			continue
		}
		for _, d := range ix.delivers[m] {
			addEdge(sIdxs[0], d)
		}
	}

	indeg := make([]int, nextSuper)
	for _, ss := range adj {
		for b := range ss {
			indeg[b]++
		}
	}
	var queue []int
	for s := 0; s < nextSuper; s++ {
		if indeg[s] == 0 {
			queue = append(queue, s)
		}
	}
	rank := make([]uint64, nextSuper)
	var done int
	var t uint64
	for len(queue) > 0 {
		min := 0
		for k := 1; k < len(queue); k++ {
			if queue[k] < queue[min] {
				min = k
			}
		}
		s := queue[min]
		queue = append(queue[:min], queue[min+1:]...)
		t++
		rank[s] = t
		done++
		for b := range adj[s] {
			indeg[b]--
			if indeg[b] == 0 {
				//lint:allow determinism the topological sort extracts the minimum element each step; queue insertion order is irrelevant
				queue = append(queue, b)
			}
		}
	}
	if done != nextSuper {
		return nil, true
	}
	ord := make(map[int]uint64, n)
	for i := 0; i < n; i++ {
		ord[i] = rank[super[i]]
	}
	return ord, false
}

func (c *checker) checkDeliveryPrefix() []spec.Violation {
	var out []spec.Violation
	ix := c.ix

	type famKey struct {
		p   model.ProcessID
		reg model.ConfigID
	}
	famDeliveries := make(map[famKey][]int)
	for p, idxs := range ix.byProc {
		for _, i := range idxs {
			e := ix.events[i]
			if e.Type != model.EventDeliver {
				continue
			}
			k := famKey{p, e.Config.Prev()}
			//lint:allow determinism each famDeliveries key is owned by one process; entries arrive in idxs slice order
			famDeliveries[k] = append(famDeliveries[k], i)
		}
	}

	for key, dels := range famDeliveries {
		for a := 0; a < len(dels); a++ {
			for b := a + 1; b < len(dels); b++ {
				m := ix.events[dels[a]].Msg
				m2 := ix.events[dels[b]].Msg
				sender := m.Sender
				for _, d2 := range ix.delivers[m2] {
					q := ix.events[d2].Proc
					if q == key.p {
						continue
					}
					cPrime := ix.events[d2].Config
					if !ix.events[d2].Members.Contains(sender) {
						continue
					}
					if !c.deliveredIn(q, m, c.comZoneOf(q, cPrime)) {
						//lint:allow determinism reference checker contract is multiset output (sorted by the differential harness); kept verbatim as the oracle
						out = append(out, spec.Violation{
							Spec: "6.3",
							Msg: fmt.Sprintf("%s delivered %s (after %s at %s) in %s whose membership includes %s, but never delivered %s",
								q, m2, m, key.p, cPrime, sender, m),
							Events: []int{dels[a], dels[b], d2},
						})
					}
				}
			}
		}
	}
	return out
}

func (c *checker) comZoneOf(q model.ProcessID, cfg model.ConfigID) []model.ConfigID {
	if cfg.IsTransitional() {
		return c.comZone(q, cfg.Prev())
	}
	return c.comZone(q, cfg)
}

// ---------------------------------------------------------------------------
// Specification 7: safe delivery.

func (c *checker) checkSafeDelivery() []spec.Violation {
	var out []spec.Violation
	ix := c.ix

	for m, dIdxs := range ix.delivers {
		for _, d := range dIdxs {
			e := ix.events[d]
			if e.Service != model.Safe {
				continue
			}
			members := e.Members

			if e.Config.IsRegular() {
				for _, q := range members.Members() {
					if !c.installed(q, e.Config) {
						//lint:allow determinism reference checker contract is multiset output (sorted by the differential harness); kept verbatim as the oracle
						out = append(out, spec.Violation{
							Spec: "7.2",
							Msg: fmt.Sprintf("%s delivered safe message %s in %s but member %s never installed it",
								e.Proc, m, e.Config, q),
							Events: []int{d},
						})
					}
				}
			}

			for _, q := range members.Members() {
				if q == e.Proc {
					continue
				}
				zone := c.comZoneOf(q, e.Config)
				if c.deliveredIn(q, m, zone) || c.failedIn(q, zone) {
					continue
				}
				if !c.opts.Settled && c.inFinalZone(q, zone) {
					continue
				}
				out = append(out, spec.Violation{
					Spec: "7.1",
					Msg: fmt.Sprintf("%s delivered safe message %s in %s but member %s neither delivered nor failed",
						e.Proc, m, e.Config, q),
					Events: []int{d},
				})
			}
		}
	}
	return out
}

func (c *checker) installed(q model.ProcessID, cfg model.ConfigID) bool {
	for _, i := range c.ix.confs[cfg] {
		if c.ix.events[i].Proc == q {
			return true
		}
	}
	return false
}

func (c *checker) inFinalZone(q model.ProcessID, zone []model.ConfigID) bool {
	seq := c.ix.confSeq(q)
	if len(seq) == 0 {
		return true
	}
	last := c.ix.events[seq[len(seq)-1]].Config
	for _, z := range zone {
		if last == z {
			return true
		}
	}
	return false
}
