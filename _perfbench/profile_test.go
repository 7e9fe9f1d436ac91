package main

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// spin burns CPU for d so the profiler has something to sample.
//
//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

var sink int

// TestDecodeProfile decodes a CPU profile that runtime/pprof writes here:
// the samples must carry stacks with the spinning function on them, CPU
// time consistent with the tick count, and the pprof labels they ran
// under.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels(benchLabel, "setup"), func(context.Context) {
		sink += spin(150 * time.Millisecond)
	})
	sink += spin(250 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatalf("decodeProfile: %v", err)
	}
	var ticks, labelled, spinning int64
	for _, s := range samples {
		if s.count <= 0 || s.cpuNs <= 0 {
			t.Fatalf("sample with count %d and cpu %d ns", s.count, s.cpuNs)
		}
		if len(s.stack) == 0 {
			t.Fatal("sample with an empty stack")
		}
		ticks += s.count
		if s.labels[benchLabel] == "setup" {
			labelled += s.count
		}
		for _, f := range s.stack {
			if strings.HasSuffix(f.fn, ".spin") {
				spinning += s.count
				if !strings.HasSuffix(f.file, "profile_test.go") {
					t.Errorf("spin frame has file %q", f.file)
				}
				break
			}
		}
	}
	// 400 ms of spinning at the default 100 Hz gives about 40 ticks; allow
	// for a loaded host and for other goroutines of the test binary.
	if spinning < 10 {
		t.Errorf("got %d ticks, %d of them in spin", ticks, spinning)
	}
	if labelled == 0 || labelled == ticks {
		t.Errorf("got %d of %d ticks labelled; want some but not all", labelled, ticks)
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("decodeProfile accepted bytes that are not gzip")
	}
}
