package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/model"
)

// GenConfig tunes the schedule generator. The zero value is replaced by
// Defaults.
type GenConfig struct {
	// Procs is the cluster size (default 4-6, seed-dependent).
	Procs int
	// Duration is the fault-injection window (default 1s).
	Duration time.Duration
	// Settle is the post-heal quiet period (default 2.5s).
	Settle time.Duration
	// Faults is the number of fault events to inject (default
	// seed-dependent, 8-20).
	Faults int
	// Sends is the number of client submissions (default 16).
	Sends int
	// HealEvery, when positive, inserts a full heal boundary (merge,
	// heal links, clear drops, recover everyone) every HealEvery of
	// virtual time. Faults then damage the system only in bounded
	// episodes — the transient-fault shape the self-stabilization model
	// assumes — which in turn bounds how long the streaming checker's
	// configuration families stay open, and with them its retained
	// window: without boundaries a single unlucky crash can hold
	// families open for the rest of the run, growing the window with
	// run length instead of protocol concurrency.
	HealEvery time.Duration
}

// withDefaults fills unset fields; seed-dependent defaults come from rng.
func (g GenConfig) withDefaults(rng *rand.Rand) GenConfig {
	if g.Procs <= 0 {
		g.Procs = 4 + rng.Intn(3)
	}
	if g.Duration <= 0 {
		g.Duration = time.Second
	}
	if g.Settle <= 0 {
		g.Settle = 2500 * time.Millisecond
	}
	if g.Faults <= 0 {
		g.Faults = 8 + rng.Intn(13)
	}
	if g.Sends <= 0 {
		g.Sends = 16
	}
	return g
}

// kindTargets are the wire message classes the generator aims loss at:
// the ordering token, the membership protocol, and the recovery exchange —
// each one a distinct liveness artery of the stack.
var kindTargets = [][]string{
	{"token"},
	{"join"},
	{"commit", "commit_ack"},
	{"install"},
	{"exchange"},
	{"recovery_done"},
	{"token", "join"},
	{"data"},
	{"data_batch"},
}

// Generate derives a deterministic adversarial program from the seed. The
// same (seed, cfg) pair always yields the same program.
func Generate(seed int64, cfg GenConfig) Program {
	rng := rand.New(rand.NewSource(seed))
	cfg = cfg.withDefaults(rng)

	ids := make([]model.ProcessID, cfg.Procs)
	for i := range ids {
		ids[i] = model.ProcessID(fmt.Sprintf("p%02d", i+1))
	}
	p := Program{
		Seed:    seed,
		Procs:   cfg.Procs,
		Horizon: cfg.Duration,
		Settle:  cfg.Settle,
	}

	// Fault events. The generator tracks which processes it has crashed
	// so recoveries target down processes and crash storms cannot
	// silently no-op, but the executor is robust to any event sequence
	// (the minimizer produces arbitrary subsets).
	var down []model.ProcessID
	at := func() time.Duration {
		// Faults start after the first membership has formed (~100ms)
		// and stop at the horizon.
		return 100*time.Millisecond + time.Duration(rng.Int63n(int64(cfg.Duration-100*time.Millisecond)))
	}
	pick := func() model.ProcessID { return ids[rng.Intn(len(ids))] }
	for i := 0; i < cfg.Faults; i++ {
		switch rng.Intn(11) {
		case 0, 1: // crash, sometimes with storage corruption
			id := pick()
			e := Event{At: at(), Op: OpCrash, Proc: id}
			switch rng.Intn(8) {
			case 0:
				e.Mode = CorruptTornWrite
			case 1:
				e.Mode = CorruptLostSuffix
				e.N = 1 + rng.Intn(4)
			case 2:
				e.Mode = CorruptSeqWrap
			case 3:
				e.Mode = CorruptRingSeqRegress
			case 4:
				e.Mode = CorruptObligations
				e.N = 1 + rng.Intn(3)
			case 5:
				e.Mode = CorruptLogFlip
				e.N = 1 + rng.Intn(3)
			}
			down = append(down, id)
			p.Events = append(p.Events, e)
		case 2, 3: // recover a crashed process (or a random one)
			id := pick()
			if len(down) > 0 {
				id = down[0]
				down = down[1:]
			}
			p.Events = append(p.Events, Event{At: at(), Op: OpRecover, Proc: id})
		case 4: // symmetric partition into 2-3 groups
			p.Events = append(p.Events, Event{At: at(), Op: OpPartition, Groups: split(rng, ids)})
		case 5: // merge (flapping pressure together with partitions)
			p.Events = append(p.Events, Event{At: at(), Op: OpMerge})
		case 6: // asymmetric one-way cut
			from, to := bisect(rng, ids)
			p.Events = append(p.Events, Event{At: at(), Op: OpOneWay, From: from, To: to})
		case 7: // targeted message-class loss, sometimes sender-scoped
			e := Event{At: at(), Op: OpDropKinds, Kinds: kindTargets[rng.Intn(len(kindTargets))]}
			if rng.Intn(2) == 0 {
				e.Proc = pick()
			}
			p.Events = append(p.Events, e)
			// Class loss is lifted later in the window so the run can
			// make progress before the heal tail.
			p.Events = append(p.Events, Event{At: at(), Op: OpClearDrops})
		case 8: // latency/reorder burst, healed later
			p.Events = append(p.Events, Event{
				At: at(), Op: OpDelaySpike,
				Delay:  time.Duration(1+rng.Intn(10)) * time.Millisecond,
				Jitter: time.Duration(1+rng.Intn(20)) * time.Millisecond,
			})
			p.Events = append(p.Events, Event{At: at(), Op: OpHealLinks})
		case 9: // heal everything mid-run
			p.Events = append(p.Events, Event{At: at(), Op: OpMerge})
			p.Events = append(p.Events, Event{At: at(), Op: OpHealLinks})
		case 10: // live in-memory perturbation (self-stabilization model)
			e := Event{At: at(), Op: OpPerturb, Proc: pick()}
			switch rng.Intn(3) {
			case 0:
				e.Mode = CorruptSeqWrap
			case 1:
				e.Mode = CorruptRingSeqRegress
			case 2:
				e.Mode = CorruptObligations
				e.N = 1 + rng.Intn(3)
			}
			p.Events = append(p.Events, e)
		}
	}

	// Periodic heal boundaries (see GenConfig.HealEvery). Recovering an
	// already-operational process is a no-op, so boundaries compose with
	// whatever fault subset survives minimization.
	if cfg.HealEvery > 0 {
		for t := cfg.HealEvery; t < cfg.Duration; t += cfg.HealEvery {
			p.Events = append(p.Events,
				Event{At: t, Op: OpMerge},
				Event{At: t, Op: OpHealLinks},
				Event{At: t, Op: OpClearDrops})
			for _, id := range ids {
				p.Events = append(p.Events, Event{At: t, Op: OpRecover, Proc: id})
			}
		}
	}

	// Client traffic throughout the window, alternating services.
	for i := 0; i < cfg.Sends; i++ {
		svc := model.Safe
		if i%3 == 2 {
			svc = model.Agreed
		}
		p.Events = append(p.Events, Event{
			At:      at(),
			Op:      OpSend,
			Proc:    pick(),
			Payload: fmt.Sprintf("m%d", i),
			Service: svc,
		})
	}

	sortEvents(p.Events)
	return p
}

// split partitions ids into 2 or 3 random non-empty groups.
func split(rng *rand.Rand, ids []model.ProcessID) [][]model.ProcessID {
	k := 2 + rng.Intn(2)
	if k > len(ids) {
		k = len(ids)
	}
	groups := make([][]model.ProcessID, k)
	perm := rng.Perm(len(ids))
	// Guarantee non-empty groups, then scatter the rest.
	for i := 0; i < k; i++ {
		groups[i] = append(groups[i], ids[perm[i]])
	}
	for _, j := range perm[k:] {
		g := rng.Intn(k)
		groups[g] = append(groups[g], ids[j])
	}
	return groups
}

// bisect draws two disjoint non-empty process sets for a one-way cut.
func bisect(rng *rand.Rand, ids []model.ProcessID) (from, to []model.ProcessID) {
	perm := rng.Perm(len(ids))
	cut := 1 + rng.Intn(len(ids)-1)
	for i, j := range perm {
		if i < cut {
			from = append(from, ids[j])
		} else {
			to = append(to, ids[j])
		}
	}
	return from, to
}

// sortEvents orders events by time, breaking ties by generation order
// (stable sort), so the program listing reads chronologically and the
// executor's scheduling is independent of slice order.
func sortEvents(events []Event) {
	// Insertion sort keeps the dependency surface small and is stable.
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j-1].At > events[j].At; j-- {
			events[j-1], events[j] = events[j], events[j-1]
		}
	}
}
