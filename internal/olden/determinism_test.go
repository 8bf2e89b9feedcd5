package olden

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/threaded"
)

// disasmAll renders the threaded code of every function in deterministic
// name order — the byte-level fingerprint of a compile.
func disasmAll(t *testing.T, u *core.Unit) string {
	t.Helper()
	tp, err := u.Threaded(threaded.Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(tp.Funcs))
	for n := range tp.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	var out string
	for _, n := range names {
		out += tp.Funcs[n].Disasm() + "\n"
	}
	return out
}

// sameResult compares the observable fields of two simulator results.
func sameResult(a, b *earthsim.Result) bool {
	return a.Time == b.Time && a.Counts == b.Counts &&
		a.Output == b.Output && a.MainRet == b.MainRet
}

// TestSharedPipelineConcurrency drives one Pipeline — and one compiled
// Unit — from 8 goroutines at once: concurrent Compiles of the same
// source must agree with a sequential reference, and concurrent Runs of
// the shared unit must all return the same result. Run under -race by
// scripts/check.sh.
func TestSharedPipelineConcurrency(t *testing.T) {
	b := ByName("power")
	src := b.Source(small(b))
	p := core.NewPipeline(core.Options{Optimize: true})

	refU, err := p.Compile(b.Name+".ec", src)
	if err != nil {
		t.Fatal(err)
	}
	refCode := disasmAll(t, refU)
	refRes, err := p.Run(refU, core.RunConfig{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, 2*goroutines)
	codes := make([]string, goroutines)
	results := make([]*earthsim.Result, goroutines)
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			u, err := p.Compile(b.Name+".ec", src)
			if err != nil {
				errs <- err
				return
			}
			codes[i] = disasmAll(t, u)
			// Exercise the shared unit's cached threaded code from all
			// goroutines at once.
			res, err := p.Run(refU, core.RunConfig{Nodes: 4})
			if err != nil {
				errs <- err
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < goroutines; i++ {
		if codes[i] != refCode {
			t.Errorf("goroutine %d: concurrent compile produced different threaded code", i)
		}
		if !sameResult(results[i], refRes) {
			t.Errorf("goroutine %d: concurrent run result differs: %+v != %+v",
				i, results[i], refRes)
		}
	}
}
