package main

import "fmt"

// markEvery is the digest checkpoint spacing: two processes that shared
// a configuration are compared at every markEvery-th delivery both
// reached, and at the end of the configuration when they delivered the
// same number.
const markEvery = 64

// orderLog checks one process's delivery stream from outside the
// program. It holds, per configuration the process delivered in, a
// rolling digest of the MessageID sequence with periodic checkpoints
// (compared across processes by compareOrders), and per sender the last
// sequence number seen, which catches duplicates, reordering within a
// sender and — on workloads with no partition (strict) — gaps. Observe
// is single-writer: the program delivers to one process from one
// goroutine at a time.
type orderLog struct {
	proc    string
	strict  bool
	lastSeq []uint64
	epochs  []*orderEpoch
	cur     *orderEpoch
	total   uint64
	bad     []string
	nBad    int
}

// orderEpoch is the digest of the deliveries made in one configuration.
type orderEpoch struct {
	cfg   configID
	n     uint64
	h     uint64
	marks []uint64
}

func newOrderLog(proc string, senders int, strict bool) *orderLog {
	return &orderLog{proc: proc, strict: strict, lastSeq: make([]uint64, senders)}
}

// violate records a violation, keeping the first few messages whole.
func (o *orderLog) violate(format string, args ...any) {
	o.nBad++
	if len(o.bad) < 4 {
		o.bad = append(o.bad, o.proc+": "+fmt.Sprintf(format, args...))
	}
}

// observe folds one delivery into the log. cfg names the configuration
// the program says it delivered the message in.
func (o *orderLog) observe(sender int, seq uint64, cfg configID) {
	o.total++
	if sender < 0 || sender >= len(o.lastSeq) {
		o.violate("delivery from unknown sender index %d", sender)
		return
	}
	switch last := o.lastSeq[sender]; {
	case seq <= last:
		o.violate("sender %d: seq %d delivered after %d (duplicate or reordered)", sender, seq, last)
	case o.strict && seq != last+1:
		o.violate("sender %d: seq %d delivered after %d (missing message)", sender, seq, last)
	}
	if seq > o.lastSeq[sender] {
		o.lastSeq[sender] = seq
	}
	if o.cur == nil || o.cur.cfg != cfg {
		o.cur = nil
		for _, e := range o.epochs {
			if e.cfg == cfg {
				o.cur = e
				break
			}
		}
		if o.cur == nil {
			o.cur = &orderEpoch{cfg: cfg, h: 14695981039346656037}
			o.epochs = append(o.epochs, o.cur)
		}
	}
	e := o.cur
	// FNV-1a over (sender, seq), chained: order-sensitive by construction.
	e.h = (e.h ^ uint64(sender+1)) * 1099511628211
	e.h = (e.h ^ seq) * 1099511628211
	e.n++
	if e.n%markEvery == 0 {
		e.marks = append(e.marks, e.h)
	}
}

// checkAccepted flags an invented message: a sender's highest delivered
// sequence number may not exceed what the generator had accepted there.
func (o *orderLog) checkAccepted(accepted []uint64) {
	for s, last := range o.lastSeq {
		if s < len(accepted) && last > accepted[s] {
			o.violate("sender %d: delivered seq %d but only %d were accepted (invented message)", s, last, accepted[s])
		}
	}
}

// compareOrders checks agreement between processes: within every
// configuration, any two processes' delivery sequences must be equal up
// to the shorter one (total order; a killed process holds a prefix). It
// returns the number of violations found across logs, including each
// log's own, and a few rendered ones.
func compareOrders(logs []*orderLog) (int, []string) {
	n := 0
	var msgs []string
	note := func(s string) {
		n++
		if len(msgs) < 8 {
			msgs = append(msgs, s)
		}
	}
	for _, o := range logs {
		n += o.nBad
		for _, b := range o.bad {
			if len(msgs) < 8 {
				msgs = append(msgs, b)
			}
		}
	}
	ref := map[configID]*orderEpoch{}
	refProc := map[configID]string{}
	for _, o := range logs {
		for _, e := range o.epochs {
			r, ok := ref[e.cfg]
			if !ok {
				ref[e.cfg], refProc[e.cfg] = e, o.proc
				continue
			}
			common := len(e.marks)
			if len(r.marks) < common {
				common = len(r.marks)
			}
			diverged := false
			for i := 0; i < common; i++ {
				if e.marks[i] != r.marks[i] {
					note(fmt.Sprintf("%s and %s diverge in %s before delivery %d", o.proc, refProc[e.cfg], e.cfg, (i+1)*markEvery))
					diverged = true
					break
				}
			}
			if !diverged && e.n == r.n && e.h != r.h {
				note(fmt.Sprintf("%s and %s diverge in %s within the last %d of %d deliveries", o.proc, refProc[e.cfg], e.cfg, e.n%markEvery, e.n))
			}
			// Keep the longer sequence as the reference so later
			// processes are checked against the most deliveries.
			if e.n > r.n {
				ref[e.cfg], refProc[e.cfg] = e, o.proc
			}
		}
	}
	return n, msgs
}
