package resource

import (
	"testing"

	"ddbm/internal/sim"
)

func TestDiskReadServiceTimeBounds(t *testing.T) {
	s := sim.New(1)
	d := NewDiskArray(s, 1, 10, 30)
	var times []sim.Time
	var svc float64
	var start sim.Time
	var read func()
	read = func() {
		start = s.Now()
		d.ReadAsync(&svc, func() {
			dur := s.Now() - start
			if !almost(svc, dur, 1e-9) {
				t.Errorf("measured service %v ms, want the %v ms elapsed (no queueing)", svc, dur)
			}
			times = append(times, dur)
			if len(times) < 50 {
				read()
			}
		})
	}
	read()
	s.Run(1e6)
	if len(times) != 50 {
		t.Fatalf("completed %d reads, want 50", len(times))
	}
	for _, dur := range times {
		if dur < 10 || dur > 30 {
			t.Fatalf("disk access took %v ms, outside [10,30]", dur)
		}
	}
}

func TestDiskFixedServiceTime(t *testing.T) {
	s := sim.New(1)
	d := NewDiskArray(s, 1, 20, 20)
	var done sim.Time
	var svc float64
	d.ReadAsync(&svc, func() { done = s.Now() })
	s.Run(100)
	if done != 20 {
		t.Errorf("degenerate-uniform access finished at %v, want 20", done)
	}
}

func TestDiskQueueingFIFO(t *testing.T) {
	// Three reads on one disk with fixed 20 ms service: completions at 20,
	// 40, 60 in submission order.
	s := sim.New(1)
	d := NewDiskArray(s, 1, 20, 20)
	var order []int
	var times []sim.Time
	for i := 0; i < 3; i++ {
		i := i
		d.ReadAsync(nil, func() {
			order = append(order, i)
			times = append(times, s.Now())
		})
	}
	s.Run(1000)
	for i := range order {
		if order[i] != i {
			t.Fatalf("reads completed out of order: %v", order)
		}
		want := sim.Time(20 * (i + 1))
		if times[i] != want {
			t.Fatalf("completion %d at %v, want %v", i, times[i], want)
		}
	}
}

func TestDiskWritePriority(t *testing.T) {
	// One read in service; one read and one write queued. The write must be
	// served before the queued read.
	s := sim.New(1)
	d := NewDiskArray(s, 1, 20, 20)
	var order []string
	d.ReadAsync(nil, func() { order = append(order, "r1") })
	d.ReadAsync(nil, func() { order = append(order, "r2") })
	d.WriteAsync(func() { order = append(order, "w") })
	s.Run(1000)
	if len(order) != 3 || order[0] != "r1" || order[1] != "w" || order[2] != "r2" {
		t.Fatalf("service order %v, want [r1 w r2]", order)
	}
}

func TestDiskWritePriorityNonPreemptive(t *testing.T) {
	// A write arriving mid-read waits for the read to finish.
	s := sim.New(1)
	d := NewDiskArray(s, 1, 20, 20)
	var readDone, writeDone sim.Time
	d.ReadAsync(nil, func() { readDone = s.Now() })
	s.Schedule(5, func() {
		d.WriteAsync(func() { writeDone = s.Now() })
	})
	s.Run(1000)
	if readDone != 20 {
		t.Errorf("read done at %v, want 20 (no preemption)", readDone)
	}
	if writeDone != 40 {
		t.Errorf("write done at %v, want 40", writeDone)
	}
}

func TestDiskMultipleSpindlesParallel(t *testing.T) {
	// With enough disks, many requests proceed in parallel: 8 reads on 8
	// disks at fixed 20 ms should all finish by ~20-40 ms even if random
	// assignment doubles some up; with one disk they'd take 160.
	s := sim.New(1)
	d := NewDiskArray(s, 8, 20, 20)
	var last sim.Time
	n := 0
	for i := 0; i < 8; i++ {
		d.ReadAsync(nil, func() {
			n++
			if s.Now() > last {
				last = s.Now()
			}
		})
	}
	s.Run(1e6)
	if n != 8 {
		t.Fatalf("completed %d reads, want 8", n)
	}
	if last >= 160 {
		t.Errorf("8 disks behaved like 1: last completion at %v", last)
	}
}

func TestDiskCounts(t *testing.T) {
	s := sim.New(1)
	d := NewDiskArray(s, 2, 10, 30)
	for i := 0; i < 5; i++ {
		d.ReadAsync(nil, nil)
	}
	for i := 0; i < 3; i++ {
		d.WriteAsync(nil)
	}
	s.Run(1e6)
	r, w := d.Counts()
	if r != 5 || w != 3 {
		t.Errorf("counts %d/%d, want 5/3", r, w)
	}
}

func TestDiskUtilization(t *testing.T) {
	s := sim.New(1)
	d := NewDiskArray(s, 1, 20, 20)
	d.ReadAsync(nil, nil) // busy [0,20]
	s.Run(40)             // idle [20,40]
	if u := d.Utilization(); u < 0.49 || u > 0.51 {
		t.Errorf("utilization %v, want 0.5", u)
	}
}

func TestDiskUtilizationAveragesSpindles(t *testing.T) {
	// One busy disk of two: utilization = busy/2.
	s := sim.New(1)
	d := NewDiskArray(s, 2, 20, 20)
	d.ReadAsync(nil, nil)
	s.Run(21) // busy time is credited at completion (t=20)
	u := d.Utilization()
	if u < 0.45 || u > 0.55 {
		t.Errorf("2-spindle utilization %v, want ~0.5", u)
	}
}

func TestDiskMarkWarmup(t *testing.T) {
	s := sim.New(1)
	d := NewDiskArray(s, 1, 20, 20)
	d.ReadAsync(nil, nil) // [0,20] busy
	s.Schedule(30, func() {
		d.MarkWarmup()
		d.ReadAsync(nil, nil) // [30,50] busy
	})
	s.Run(70) // window [30,70]: 20/40 busy
	if u := d.Utilization(); u < 0.49 || u > 0.51 {
		t.Errorf("post-mark utilization %v, want 0.5", u)
	}
}

func TestDiskQueueLen(t *testing.T) {
	s := sim.New(1)
	d := NewDiskArray(s, 1, 20, 20)
	d.ReadAsync(nil, nil)
	d.ReadAsync(nil, nil)
	d.WriteAsync(nil)
	if d.QueueLen() != 2 {
		t.Errorf("queue len %d, want 2 (one in service)", d.QueueLen())
	}
	s.Run(1000)
	if d.QueueLen() != 0 {
		t.Errorf("queue len after drain %d", d.QueueLen())
	}
}

func TestDiskValidation(t *testing.T) {
	s := sim.New(1)
	for _, fn := range []func(){
		func() { NewDiskArray(s, 0, 10, 30) },
		func() { NewDiskArray(s, 1, 30, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid disk array did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestDiskRandomAssignmentUsesAllSpindles(t *testing.T) {
	s := sim.New(1)
	d := NewDiskArray(s, 4, 10, 30)
	n := 0
	var read func()
	read = func() {
		if n++; n <= 200 {
			d.ReadAsync(nil, read)
		}
	}
	read()
	s.Run(1e6)
	for i, dk := range d.disks {
		if dk.nReads == 0 {
			t.Errorf("spindle %d never used over 200 requests", i)
		}
	}
}
