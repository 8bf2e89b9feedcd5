package par

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachBoundsConcurrency: no more than Workers bodies run at once,
// and with enough items the bound is reached.
func TestForEachBoundsConcurrency(t *testing.T) {
	const workers, n = 3, 24
	var running, peak atomic.Int64
	arrived := make(chan struct{}, n)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		New(workers).ForEach(n, func(int) {
			now := running.Add(1)
			for {
				p := peak.Load()
				if now <= p || peak.CompareAndSwap(p, now) {
					break
				}
			}
			arrived <- struct{}{}
			<-release
			running.Add(-1)
		})
	}()
	// Wait until every worker is parked inside a body, then let them all go:
	// had a fourth body started, it would have raised the peak first.
	for i := 0; i < workers; i++ {
		select {
		case <-arrived:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d workers started", i, workers)
		}
	}
	close(release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ForEach did not return")
	}
	if got := peak.Load(); got != workers {
		t.Errorf("peak concurrency = %d, want %d", got, workers)
	}
}

// TestForEachSlotResults: under the slot discipline (fn(i) writes only slot
// i) the result does not depend on the worker count — nil pool included —
// and every index runs exactly once.
func TestForEachSlotResults(t *testing.T) {
	const n = 1000
	run := func(p *Pool) []int {
		out := make([]int, n)
		p.ForEach(n, func(i int) { out[i] += i*i + 1 })
		return out
	}
	want := run(nil)
	for i, v := range want {
		if v != i*i+1 {
			t.Fatalf("serial slot %d = %d, want %d", i, v, i*i+1)
		}
	}
	for _, w := range []int{1, 2, 7, 64} {
		got := run(New(w))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d slot %d = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
	New(4).ForEach(0, func(int) { t.Error("body ran for n = 0") })
}

// TestWorkers pins the defaults: nil is serial, non-positive means
// GOMAXPROCS (at least one).
func TestWorkers(t *testing.T) {
	if w := (*Pool)(nil).Workers(); w != 1 {
		t.Errorf("nil pool Workers = %d, want 1", w)
	}
	if w := New(5).Workers(); w != 5 {
		t.Errorf("New(5).Workers = %d", w)
	}
	if w := New(0).Workers(); w < 1 {
		t.Errorf("New(0).Workers = %d, want GOMAXPROCS", w)
	}
}

// TestWorkerPanicSurfaces: a panicking body reaches the caller as a
// WorkerPanic naming the item — on the serial and the parallel path alike —
// instead of killing the process from a worker goroutine, and the other
// items still run.
func TestWorkerPanicSurfaces(t *testing.T) {
	for _, p := range []*Pool{nil, New(1), New(4)} {
		var ran atomic.Int64
		got := func() (v any) {
			defer func() { v = recover() }()
			p.ForEach(16, func(i int) {
				if i == 5 {
					panic("boom")
				}
				ran.Add(1)
			})
			return nil
		}()
		wp, ok := got.(WorkerPanic)
		if !ok {
			t.Fatalf("workers=%d: recovered %#v, want a WorkerPanic", p.Workers(), got)
		}
		if wp.Index != 5 || wp.Value != "boom" {
			t.Errorf("workers=%d: WorkerPanic = %+v, want index 5 value boom", p.Workers(), wp)
		}
		// The serial path stops at the panic; the parallel one drains the rest.
		if p.Workers() > 1 && ran.Load() != 15 {
			t.Errorf("workers=%d: %d other items ran, want 15", p.Workers(), ran.Load())
		}
	}
}
