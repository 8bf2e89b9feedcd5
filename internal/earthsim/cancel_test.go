package earthsim

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/threaded"
)

// TestCancel: cancelling the run context stops the event loop promptly with
// ErrCanceled — on a guest that would otherwise loop forever in simulated
// time — whether the windows run inline (where one node's window is
// unbounded, so only the in-window polls can see it) or on a worker pool.
func TestCancel(t *testing.T) {
	for _, tc := range []struct {
		name           string
		nodes, workers int
	}{
		{"inline-1node", 1, 0},
		{"inline-4nodes", 4, 1},
		{"pool-4nodes", 4, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(10*time.Millisecond, cancel)
			cfg := DefaultConfig(tc.nodes)
			cfg.SimWorkers = tc.workers
			m := New(loopProg(), cfg).SetContext(ctx)
			done := make(chan error, 1)
			go func() {
				_, err := m.Run()
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("want ErrCanceled, got %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("run did not stop after cancellation")
			}
		})
	}
}

// TestCancelAlreadyDone: a context cancelled before Run stops the machine
// on the first check without meaningful work.
func TestCancelAlreadyDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New(loopProg(), DefaultConfig(1)).SetContext(ctx).Run()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestNilContextUnchanged: without SetContext a normal program completes
// exactly as before (the zero-cost guard for the cancellation hooks).
func TestNilContextUnchanged(t *testing.T) {
	prog := &threaded.Program{
		Funcs: map[string]*threaded.FnCode{"main": {Name: "main", NSlots: 1,
			Code: []threaded.Instr{{Op: threaded.OpRet, A: -1}}}},
	}
	prog.Main = prog.Funcs["main"]
	if _, err := New(prog, DefaultConfig(1)).Run(); err != nil {
		t.Fatal(err)
	}
}
