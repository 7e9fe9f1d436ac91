// Package cctest drives concurrency control managers from simulation
// processes in tests. In the model a cohort's owner is an event-driven
// continuation; Await stands in for it, so a test can issue a request and
// read its final verdict in straight-line process code.
package cctest

import (
	"ddbm/internal/cc"
	"ddbm/internal/sim"
)

// Await settles one Access outcome from process p the way an owner does:
// a Blocked outcome parks p until Grant or Deny wakes it, reports the
// blocking episode to co.OnBlocked and returns the verdict; any other
// outcome is returned as it is.
func Await(p *sim.Proc, co *cc.CohortMeta, out cc.Outcome) cc.Outcome {
	if out != cc.Blocked {
		return out
	}
	at := p.Sim().Now()
	co.Wake = p.Resume
	p.Suspend()
	if co.OnBlocked != nil {
		co.OnBlocked(co, p.Sim().Now()-at)
	}
	return co.Verdict()
}
