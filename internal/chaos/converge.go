// Convergence judgment.
//
// Run judges every execution twice. The specification verdict is what
// the inline checker certifies. The convergence verdict is the
// self-stabilization claim: after the last transient fault (a corrupting
// crash or a live perturbation), the execution must re-enter the
// legal-history set within a bounded number of configuration changes.
// Concretely, the verdict marks the global event index of the last
// corrupting fault, counts the distinct regular configurations installed
// after it, and derives a boundary: the event index of the bound-th
// distinct post-fault install (or the last one, if fewer happen). The run
// converged iff
//
//  1. the cluster ends in a single operational regular configuration
//     containing every process (the heal tail guarantees the network
//     allows this),
//  2. the inline checker and the reference oracle never disagreed, and
//  3. every violation is anchored to events at or before the boundary.
//
// A run fails (Result.Failed) when it has any violation, any oracle
// disagreement, or did not converge. Condition 3 matters for the
// convergence verdict alone: a violation anchored before the boundary
// still fails the run.
package chaos

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/spec"
)

// bound is the number of distinct post-fault regular configuration
// installs the system is allowed before it must be legal again.
const bound = 8

// install is one regular configuration install at some process, with the
// event index it happened at.
type install struct {
	at int
	id model.ConfigID
}

// converge fills res's convergence verdict from the run's regular
// installs, in install order, and the operational configurations of its
// procs processes at the end. It reads res.LastFault, res.Events,
// res.Violations and res.Disagreements.
func converge(res *Result, installs []install, ops map[model.ConfigID]model.ProcessSet, procs int) {
	seen := make(map[model.ConfigID]bool)
	var distinct []int
	for _, in := range installs {
		if in.at <= res.LastFault || seen[in.id] {
			continue
		}
		seen[in.id] = true
		distinct = append(distinct, in.at)
	}
	res.Installs = len(distinct)
	res.Boundary = res.Events
	if len(distinct) > 0 {
		res.Boundary = distinct[min(bound, len(distinct))-1]
	}

	res.FinalConfigs = len(ops)
	covered := false
	if len(ops) == 1 {
		for _, members := range ops {
			covered = members.Size() == procs
		}
	}
	res.Converged = covered && len(res.Disagreements) == 0 && anchoredBy(res.Violations, res.Boundary)
}

// anchoredBy reports whether every violation is anchored to events at or
// before the boundary. A violation with no event anchors cannot be
// attributed to the faulty prefix and therefore fails the test.
func anchoredBy(vs []spec.Violation, boundary int) bool {
	for _, v := range vs {
		if len(v.Events) == 0 {
			return false
		}
		for _, e := range v.Events {
			if e > boundary {
				return false
			}
		}
	}
	return true
}

// firstDiff returns a description of the first element where the two
// sorted string slices differ, or "" when they are equal.
func firstDiff(a, b []string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("streaming %q vs reference %q", a[i], b[i])
		}
	}
	switch {
	case len(a) > len(b):
		return fmt.Sprintf("streaming extra %q", a[len(b)])
	case len(b) > len(a):
		return fmt.Sprintf("reference extra %q", b[len(a)])
	}
	return ""
}
