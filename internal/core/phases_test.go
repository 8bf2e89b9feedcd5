package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/cache"
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
