package sim

// eventQueue is a 4-ary min-heap of pending events ordered by (at, seq).
// It replaces container/heap to keep the kernel hot path free of interface
// dispatch and `any` boxing. Each slot holds the event's key inline beside
// its pointer, so sifting compares plain values in the slice and never
// dereferences an *Event; the pointer is touched only to keep Event.index
// pointing at the event's slot (Cancel and Reschedule find it there). A
// 4-ary layout halves the tree depth of a binary heap, trading a few extra
// comparisons per level for far fewer cache-missing levels — a net win at
// the queue sizes a busy machine sustains (one pending event per blocked
// process plus one per busy resource).
//
// Ordering is total: seq is unique per event, so identical timestamps break
// ties by scheduling order and the pop sequence is independent of heap
// arity and layout. That is what keeps the kernel rewrite bit-identical to
// the old container/heap binary-heap kernel for any fixed seed.
type eventQueue struct {
	items []entry
}

// entry is one heap slot: the event's (at, seq) key, copied in when the
// event is queued or re-keyed, and the event itself.
type entry struct {
	at  Time
	seq uint64
	ev  *Event
}

// before reports whether a fires before b: earlier time first, scheduling
// order (seq) breaking ties.
func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) len() int { return len(q.items) }

// min returns the earliest pending slot without removing it.
func (q *eventQueue) min() *entry { return &q.items[0] }

// push inserts e, keyed by its current (at, seq), and records its heap
// index for O(log n) removal and re-keying.
func (q *eventQueue) push(e *Event) {
	q.items = append(q.items, entry{e.at, e.seq, e}) //ddbmlint:allow hotpath-alloc event-heap backing array grows to its high-water mark
	q.siftUp(len(q.items) - 1)
}

// pop removes and returns the earliest event, marking it idle.
func (q *eventQueue) pop() *Event {
	items := q.items
	e := items[0].ev
	n := len(items) - 1
	last := items[n]
	items[n] = entry{}
	q.items = items[:n]
	e.index = idle
	if n > 0 {
		q.items[0] = last
		q.siftDown(0)
	}
	return e
}

// remove deletes the event at heap index i (used by Cancel), moving the
// tail element into the hole.
func (q *eventQueue) remove(i int) {
	items := q.items
	n := len(items) - 1
	items[i].ev.index = idle
	last := items[n]
	items[n] = entry{}
	q.items = items[:n]
	if i == n {
		return
	}
	q.items[i] = last
	q.fix(i)
}

// rekey gives the event at heap index i its current (at, seq) (used by
// Reschedule): one sift instead of a remove and a push.
func (q *eventQueue) rekey(i int) {
	it := &q.items[i]
	it.at, it.seq = it.ev.at, it.ev.seq
	q.fix(i)
}

// fix restores the heap property around slot i after its key changed,
// which may break it in either direction: up if the slot now sorts before
// its parent, otherwise down.
func (q *eventQueue) fix(i int) {
	if i > 0 && q.items[i].before(&q.items[(i-1)>>2]) {
		q.siftUp(i)
		return
	}
	q.siftDown(i)
}

func (q *eventQueue) siftUp(i int) {
	items := q.items
	x := items[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !x.before(&items[parent]) {
			break
		}
		items[i] = items[parent]
		items[i].ev.index = i
		i = parent
	}
	items[i] = x
	x.ev.index = i
}

func (q *eventQueue) siftDown(i int) {
	items := q.items
	n := len(items)
	x := items[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		// Find the earliest of up to four children.
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if items[c].before(&items[best]) {
				best = c
			}
		}
		if !items[best].before(&x) {
			break
		}
		items[i] = items[best]
		items[i].ev.index = i
		i = best
	}
	items[i] = x
	x.ev.index = i
}
