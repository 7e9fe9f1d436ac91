// Package goroutine exercises the no-naked-goroutine check.
package goroutine

func Spawn(f func()) {
	go f() // want "naked goroutine"
}

func SpawnAudited(ch chan int) {
	//ddbmlint:allow no-naked-goroutine fixture: the result channel fully synchronizes the handoff
	go func() { ch <- 1 }()
}
