package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestEventQueuePopsInTotalOrder pushes events with heavily-colliding
// timestamps and checks pops come out in exact (at, seq) order — the total
// order that makes dispatch independent of heap arity.
func TestEventQueuePopsInTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var q eventQueue
		n := rng.Intn(200) + 1
		events := make([]*Event, n)
		for i := 0; i < n; i++ {
			events[i] = &Event{at: Time(rng.Intn(10)), seq: uint64(i + 1), index: -1}
			q.push(events[i])
		}
		want := append([]*Event(nil), events...)
		sort.Slice(want, func(i, j int) bool { return eventBefore(want[i], want[j]) })
		for i, w := range want {
			if q.len() != n-i {
				t.Fatalf("trial %d: len %d, want %d", trial, q.len(), n-i)
			}
			if got := q.min(); got.ev != w || got.at != w.at || got.seq != w.seq {
				t.Fatalf("trial %d pop %d: got (at=%v seq=%d), want (at=%v seq=%d)",
					trial, i, got.at, got.seq, w.at, w.seq)
			}
			e := q.pop()
			if e.index != -1 {
				t.Fatalf("popped event retains heap index %d", e.index)
			}
		}
	}
}

// TestEventQueueRemoveKeepsOrder removes random interior elements and
// checks the survivors still pop in total order with consistent indices.
func TestEventQueueRemoveKeepsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		var q eventQueue
		n := rng.Intn(150) + 2
		events := make([]*Event, n)
		for i := 0; i < n; i++ {
			events[i] = &Event{at: Time(rng.Intn(8)), seq: uint64(i + 1), index: -1}
			q.push(events[i])
		}
		removed := map[*Event]bool{}
		for i := 0; i < n/3; i++ {
			e := events[rng.Intn(n)]
			if removed[e] {
				continue
			}
			removed[e] = true
			q.remove(e.index)
			if e.index != -1 {
				t.Fatalf("removed event retains heap index %d", e.index)
			}
		}
		var survivors []*Event
		for _, e := range events {
			if !removed[e] {
				survivors = append(survivors, e)
			}
		}
		sort.Slice(survivors, func(i, j int) bool { return eventBefore(survivors[i], survivors[j]) })
		if q.len() != len(survivors) {
			t.Fatalf("trial %d: len %d after removals, want %d", trial, q.len(), len(survivors))
		}
		for i, w := range survivors {
			if got := q.pop(); got != w {
				t.Fatalf("trial %d pop %d: got seq %d, want seq %d", trial, i, got.seq, w.seq)
			}
		}
	}
}

// TestEventQueueIndexConsistency verifies the slot invariants — every
// queued event's index field points at its own slot, and every slot's
// inline key matches its event's (at, seq) — after a mixed
// push/pop/remove/rekey workload. Cancel and Reschedule depend on both.
func TestEventQueueIndexConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var q eventQueue
	var seq uint64
	live := map[*Event]bool{}
	for op := 0; op < 5000; op++ {
		switch {
		case q.len() == 0 || rng.Intn(3) == 0:
			seq++
			e := &Event{at: Time(rng.Intn(50)), seq: seq, index: -1}
			q.push(e)
			live[e] = true
		case rng.Intn(3) == 0:
			e := q.pop()
			delete(live, e)
		case rng.Intn(2) == 0:
			// rekey: move a random event to a random new key, earlier or
			// later, and check it pops in order later on.
			e := q.items[rng.Intn(q.len())].ev
			seq++
			e.at, e.seq = Time(rng.Intn(50)), seq
			q.rekey(e.index)
		default:
			e := q.items[rng.Intn(q.len())].ev
			q.remove(e.index)
			delete(live, e)
		}
		for i, it := range q.items {
			if it.ev.index != i {
				t.Fatalf("op %d: items[%d].index = %d", op, i, it.ev.index)
			}
			if it.at != it.ev.at || it.seq != it.ev.seq {
				t.Fatalf("op %d: items[%d] key (%v, %d), event (%v, %d)", op, i, it.at, it.seq, it.ev.at, it.ev.seq)
			}
			if !live[it.ev] {
				t.Fatalf("op %d: dead event in queue", op)
			}
			if p := (i - 1) >> 2; i > 0 && it.before(&q.items[p]) {
				t.Fatalf("op %d: items[%d] sorts before its parent", op, i)
			}
		}
	}
	for prev := (*Event)(nil); q.len() > 0; {
		e := q.pop()
		if prev != nil && eventBefore(e, prev) {
			t.Fatalf("pop order broken: (%v, %d) after (%v, %d)", e.at, e.seq, prev.at, prev.seq)
		}
		prev = e
	}
}

// eventBefore is the (at, seq) order on events, the reference the heap's
// inline keys must reproduce.
func eventBefore(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
