package rwsets

import (
	"repro/internal/pointsto"
	"repro/internal/simple"
)

// Access is one memory access a statement may make: a word and the
// provenance it is reached through.
type Access struct {
	Loc pointsto.Loc
	Via Via
}

// Accesses lists the memory reads (write=false) or writes statement s may
// make, one per (word, provenance) pair; ok is false when s has no
// recorded effects.
func (r *Result) Accesses(s simple.Stmt, write bool) (out []Access, ok bool) {
	eff, ok := r.stmt[s]
	if !ok {
		return nil, false
	}
	locs := make([]pointsto.Loc, len(r.locFn))
	for l, id := range r.locID {
		locs[id] = l
	}
	vias := make([]Via, len(r.targets))
	for v, id := range r.viaID {
		vias[id] = v
	}
	for _, k := range eff.mem {
		if (k>>32&1 == 1) == write {
			out = append(out, Access{Loc: locs[k>>33], Via: vias[uint32(k)]})
		}
	}
	return out, true
}

// VarAccesses lists the variables statement s reads (write=false) or
// writes by name, once each.
func (r *Result) VarAccesses(s simple.Stmt, write bool) []*simple.Var {
	vars := make([]*simple.Var, len(r.varFn))
	for v, id := range r.varID {
		vars[id] = v
	}
	var out []*simple.Var
	for _, k := range r.stmt[s].vars {
		if (k&1 == 1) == write {
			out = append(out, vars[k>>1])
		}
	}
	return out
}
