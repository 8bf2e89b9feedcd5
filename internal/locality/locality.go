// Package locality determines which pointer variables are known to refer to
// the executing node's local memory, so dereferences through them are not
// remote operations. It reproduces, in simplified form, the locality
// analysis of Zhu & Hendren (PACT'97) that the paper's compiler pipeline
// runs immediately before communication analysis.
//
// Locality facts come from three sources:
//
//  1. explicit EARTH-C `local` qualifiers on pointer declarations (the
//     programmer's assertion, honored unconditionally, exactly as in the
//     paper);
//  2. allocation: a pointer assigned only from alloc() (current node)
//     cannot refer to remote memory;
//  3. frame addresses: &v of a frame variable is always local, and &p->f
//     inherits p's locality.
//
// A pointer is local only if *every* value source is local; the analysis is
// an optimistic greatest-fixpoint over the per-function assignment graph.
// Parallel constructs never migrate a fiber mid-function (migration happens
// only at @OWNER_OF/@ON/@HOME call boundaries, where the callee's own
// parameter qualifiers apply), so intra-function locality is stable.
package locality

import (
	"repro/internal/par"
	"repro/internal/pointsto"
	"repro/internal/simple"
)

// Result reports pointer locality for a whole program.
type Result struct {
	local map[*simple.Var]bool
}

// IsLocal reports whether dereferences through v are known local.
func (r *Result) IsLocal(v *simple.Var) bool { return r.local[v] }

// RemoteLoad reports whether a LoadRV through p is a remote operation.
func (r *Result) RemoteLoad(p *simple.Var) bool { return !r.local[p] }

// AnalyzeP runs locality analysis, with per-function scanning fanned across
// pool (nil pool runs inline). Each fixpoint pass reads the candidate set
// concurrently and collects per-function demotion lists; demotions apply
// sequentially between passes (Jacobi iteration). The greatest fixpoint is
// unique, so the result is identical to the sequential (Gauss-Seidel) run.
func AnalyzeP(prog *simple.Program, pt *pointsto.Result, pool *par.Pool) *Result {
	res := &Result{local: make(map[*simple.Var]bool)}

	// Candidate set: every pointer variable starts optimistic-local except
	// unqualified parameters and globals; qualified pointers are pinned
	// local.
	pinned := make(map[*simple.Var]bool)
	candidate := make(map[*simple.Var]bool)
	for _, f := range prog.Funcs {
		vars := append(append([]*simple.Var{}, f.Params...), f.Locals...)
		for _, v := range vars {
			if !v.IsPtr() {
				continue
			}
			if v.IsLocalPtr() {
				pinned[v] = true
				candidate[v] = true
				continue
			}
			if v.Kind == simple.VarParam {
				continue // callers may pass remote pointers
			}
			if pt.AddressTaken(v) {
				continue // may be overwritten through an alias
			}
			candidate[v] = true
		}
	}
	for _, g := range prog.Globals {
		if g.IsPtr() && g.IsLocalPtr() {
			pinned[g] = true
			candidate[g] = true
		}
	}

	// Iteratively remove candidates with a non-local source. Within a pass
	// every function is scanned against the same candidate snapshot (no
	// writes happen until the pass completes), so functions can scan in
	// parallel.
	n := len(prog.Funcs)
	demoted := make([][]*simple.Var, n)
	for {
		pool.ForEach(n, func(i int) {
			var out []*simple.Var
			simple.WalkBasics(prog.Funcs[i].Body, func(b *simple.Basic) {
				if v, lcl := defSource(b, candidate); v != nil && !lcl {
					if candidate[v] && !pinned[v] {
						out = append(out, v)
					}
				}
			})
			demoted[i] = out
		})
		changed := false
		for _, ds := range demoted {
			for _, v := range ds {
				if candidate[v] {
					delete(candidate, v)
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	for v := range candidate {
		res.local[v] = true
	}
	return res
}

// defSource inspects a basic statement for a definition of a pointer
// variable, returning the defined variable and whether the source is local
// given the current candidate set. Returns (nil, _) when the statement does
// not define a pointer variable.
func defSource(b *simple.Basic, candidate map[*simple.Var]bool) (*simple.Var, bool) {
	switch b.Kind {
	case simple.KAssign:
		lv, ok := b.Lhs.(simple.VarLV)
		if !ok || !lv.V.IsPtr() {
			return nil, false
		}
		switch rhs := b.Rhs.(type) {
		case simple.AtomRV:
			if w := simple.AtomVar(rhs.A); w != nil {
				return lv.V, candidate[w]
			}
			// NULL or constant: locality-neutral.
			return lv.V, true
		case simple.AddrRV:
			return lv.V, true // frame addresses are local
		case simple.FieldAddrRV:
			return lv.V, candidate[rhs.P]
		case simple.LoadRV, simple.LocalLoadRV:
			// Pointer fetched from memory: unknown origin.
			return lv.V, false
		default:
			return lv.V, false
		}
	case simple.KAlloc:
		if b.Dst == nil || !b.Dst.IsPtr() {
			return nil, false
		}
		// alloc() is on the executing node; alloc_on may be elsewhere.
		return b.Dst, b.Node == nil
	case simple.KCall, simple.KBuiltin:
		if b.Dst != nil && b.Dst.IsPtr() {
			return b.Dst, false // returned pointers are of unknown origin
		}
	case simple.KGetF:
		if b.Dst != nil && b.Dst.IsPtr() {
			return b.Dst, false
		}
	}
	return nil, false
}
