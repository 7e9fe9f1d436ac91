// Package insim stands in for the scheduler package: the fixture path
// fixture/internal/sim is exempt from event-retention, but its processes
// are coroutines, so a go statement is flagged here like anywhere else.
package insim

type resumable struct {
	wake chan struct{}
}

func spawn(f func()) {
	go f() // want "naked goroutine"
}

var _ = spawn
var _ = resumable{}
