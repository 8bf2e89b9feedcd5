package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/olden"
)

// TestCompilePhaseSpans: a compile that misses the cache records every
// phase it ran, in pipeline order, without overlaps and inside the wall
// interval of its Do call; a hit ran no phase and records none, so it never
// hands back the timings of the compile that filled the cache.
func TestCompilePhaseSpans(t *testing.T) {
	front := []string{"parse", "inline", "restructure", "sema", "lower", "locality"}
	analyses := []string{"pointsto", "rwsets"}
	for _, tc := range []struct {
		name string
		opt  Options
		want []string
	}{
		{"simple", Options{},
			slices.Concat(front, analyses)},
		{"optimized", Options{Optimize: true},
			slices.Concat(front, []string{"layout"}, analyses, []string{"placement", "commsel"})},
		{"declared-layout", Options{Optimize: true, DeclaredLayout: true},
			slices.Concat(front, analyses, []string{"placement", "commsel"})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.Cache = cache.New(0, "")
			p := NewPipeline(opt)
			req := CompileRequest{Name: "list.ec", Source: remoteListSrc}

			before := time.Now()
			miss, err := p.Do(req)
			after := time.Now()
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			prevEnd := before
			for _, ph := range miss.Phases {
				names = append(names, ph.Name)
				if ph.Start.Before(prevEnd) {
					t.Errorf("phase %s starts before the previous phase (or Do) ends", ph.Name)
				}
				if ph.End.Before(ph.Start) {
					t.Errorf("phase %s ends before it starts", ph.Name)
				}
				prevEnd = ph.End
			}
			if prevEnd.After(after) {
				t.Errorf("last phase ends after Do returned")
			}
			if !slices.Equal(names, tc.want) {
				t.Errorf("miss recorded phases %v, want %v", names, tc.want)
			}

			hit, err := p.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if !hit.Hit || hit.Unit != miss.Unit {
				t.Fatalf("second Do: hit=%t, same unit=%t; want a hit on the first compile's unit", hit.Hit, hit.Unit == miss.Unit)
			}
			if hit.Phases != nil {
				t.Errorf("hit recorded %d phases, want none", len(hit.Phases))
			}
		})
	}
}

// TestCompileResultPhases: a compile that misses the cache carries its
// per-phase timings on its CompileResult, and the optimized unit holds the
// placement and selection counts; a plain (unoptimized) unit has none of
// the latter, and a hit on the same pipeline carries no phase timings.
func TestCompileResultPhases(t *testing.T) {
	b := olden.ByName("tsp")
	params := b.DefaultParams
	params.Size = 32
	name, src := "tsp.ec", b.Source(params)
	p := NewPipeline(Options{Optimize: true, Cache: cache.New(0, "")})
	req := CompileRequest{Name: name, Source: src}
	res, err := p.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) == 0 {
		t.Fatal("compile recorded no phase timings")
	}
	seen := map[string]bool{}
	var total time.Duration
	for _, ph := range res.Phases {
		seen[ph.Name] = true
		total += ph.End.Sub(ph.Start)
	}
	if total <= 0 {
		t.Errorf("phase timings sum to %v: %+v", total, res.Phases)
	}
	for _, want := range []string{"parse", "sema", "commsel"} {
		if !seen[want] {
			t.Errorf("phase %q missing from %+v", want, res.Phases)
		}
	}
	u := res.Unit
	if u.Placement == nil || u.Report == nil {
		t.Fatal("optimized unit carries no placement or selection report")
	}
	sel := u.Report.Totals()
	if u.Placement.CandidateReads == 0 || sel.PipelinedReads+sel.BlockedReads == 0 {
		t.Errorf("selection counters empty: %d read candidates, %+v", u.Placement.CandidateReads, sel)
	}

	hit, err := p.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Hit || hit.Phases != nil {
		t.Errorf("second Do: hit=%t with %d phases; want a hit with none", hit.Hit, len(hit.Phases))
	}

	plain, err := NewPipeline(Options{}).Compile(name, src)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Placement != nil || plain.Report != nil {
		t.Error("unoptimized unit carries placement or selection counts")
	}
}
