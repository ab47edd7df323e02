package chaos

import (
	"slices"

	"repro/internal/model"
)

// Schedule minimization by delta debugging (Zeller & Hildebrandt's ddmin)
// over the fault-event list: given a failing program, find a small subset
// of its events that still fails. Because every program subset is itself
// a complete deterministic program (the executor appends the heal tail
// unconditionally), the reproducer replays exactly.

// MinimizeOptions tune the search.
type MinimizeOptions struct {
	// MaxRuns bounds the number of candidate executions (default 400).
	MaxRuns int
	// Failing overrides the failure predicate; the default is
	// Run(p).Failed().
	Failing func(Program) bool
}

// Minimize shrinks a failing program to a 1-minimal event subset: removing
// any single remaining event makes the failure disappear (or the run
// budget was exhausted first). It then simplifies the events that remain
// (see simpler). The returned program shares the original's seed, size
// and horizon, so it replays deterministically.
func Minimize(p Program, opts MinimizeOptions) Program {
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = 400
	}
	failing := opts.Failing
	if failing == nil {
		failing = func(q Program) bool { return Run(q).Failed() }
	}
	runs := 0
	tryFail := func(events []Event) bool {
		if runs >= opts.MaxRuns {
			return false
		}
		runs++
		q := p
		q.Events = events
		return failing(q)
	}

	events := p.Events
	if !tryFail(events) {
		// Not failing (or budget exhausted immediately): nothing to do.
		return p
	}

	// ddmin: try removing chunks at granularity n, doubling granularity
	// when no chunk (or complement) can be removed.
	n := 2
	for len(events) >= 2 && runs < opts.MaxRuns {
		chunk := (len(events) + n - 1) / n
		reduced := false
		for start := 0; start < len(events); start += chunk {
			end := start + chunk
			if end > len(events) {
				end = len(events)
			}
			complement := make([]Event, 0, len(events)-(end-start))
			complement = append(complement, events[:start]...)
			complement = append(complement, events[end:]...)
			if len(complement) > 0 && tryFail(complement) {
				events = complement
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(events) {
				break
			}
			n = min(2*n, len(events))
		}
	}

	// Final 1-minimality pass: greedily drop single events to a fixed
	// point. ddmin alone can leave removable events behind when chunks
	// straddle independent faults.
	for changed := true; changed && runs < opts.MaxRuns; {
		changed = false
		for i := 0; i < len(events); i++ {
			candidate := make([]Event, 0, len(events)-1)
			candidate = append(candidate, events[:i]...)
			candidate = append(candidate, events[i+1:]...)
			if len(candidate) == 0 {
				continue
			}
			if tryFail(candidate) {
				events = candidate
				changed = true
				i--
			}
		}
	}

	// Simplification pass: replace each remaining event by a simpler one
	// for as long as the program still fails.
	for i := 0; i < len(events) && runs < opts.MaxRuns; i++ {
		for changed := true; changed; {
			changed = false
			for _, e := range simpler(events[i]) {
				candidate := slices.Clone(events)
				candidate[i] = e
				if tryFail(candidate) {
					events = candidate
					changed = true
					break
				}
			}
		}
	}

	p.Events = events
	return p
}

// simpler returns the events one step simpler than e: a corrupting crash
// becomes a plain crash, and a partition merges two of its groups into
// one.
func simpler(e Event) []Event {
	var out []Event
	switch e.Op {
	case OpCrash:
		if e.Mode != CorruptNone {
			e.Mode, e.N = CorruptNone, 0
			out = append(out, e)
		}
	case OpPartition:
		for a := 0; a < len(e.Groups); a++ {
			for b := a + 1; b < len(e.Groups); b++ {
				merged := slices.Concat(e.Groups[a], e.Groups[b])
				slices.Sort(merged)
				q := e
				q.Groups = slices.Concat(e.Groups[:a], [][]model.ProcessID{merged}, e.Groups[a+1:b], e.Groups[b+1:])
				out = append(out, q)
			}
		}
	}
	return out
}
