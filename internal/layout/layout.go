// Package layout decides where each struct's fields sit in memory, the
// extension the paper leaves as further work (§7): a blocked transfer moves
// the contiguous span from its lowest to its highest needed field, so fields
// that are accessed remotely together should sit together.
//
// Cluster counts the remote accesses to each top-level field from the
// program's own locality verdicts and moves the hot fields of a struct to
// its front, most-accessed first and ties in declared order. It re-lays out
// a struct only when some function reads at least threshold distinct fields
// of it remotely through one pointer variable, or writes that many: the
// shape a blocked transfer needs. Every other struct keeps its declared
// layout, so a program whose structs are never blocked compiles exactly as
// declared.
//
// The decision is made on freshly lowered SIMPLE and applied by rewriting
// every word offset in place: field loads and stores, field addresses,
// fields of frame structs and of arrays of structs, &v offsets and block
// copies. A struct nested in another moves as one unit, and its own fields
// move inside it as its own layout says.
package layout

import (
	"sort"

	"repro/internal/earthc"
	"repro/internal/locality"
	"repro/internal/simple"
)

// Cluster re-lays out prog's structs as the package comment describes and
// rewrites prog to match. loc must be the locality verdicts of prog as
// lowered; they do not depend on field offsets, so they stay valid.
func Cluster(prog *simple.Program, loc *locality.Result, threshold int) {
	ix := index{structs: prog.Structs, fields: make(map[string][]int, len(prog.Structs))}
	orders := decide(prog, ix, loc, threshold)
	if len(orders) == 0 {
		return
	}
	m := &mapper{index: ix, moved: make(map[string][]int, len(orders))}
	for name, order := range orders {
		lay := prog.Structs[name]
		offs := make([]int, len(lay.Fields))
		off := 0
		for _, f := range order {
			offs[f] = off
			off += lay.FieldSizes[lay.Fields[f]]
		}
		m.moved[name] = offs
	}
	for _, f := range prog.Funcs {
		simple.WalkBasics(f.Body, m.basic)
	}
	for name, order := range orders {
		lay := prog.Structs[name]
		fields := make([]string, len(order))
		for i, f := range order {
			fields[i] = lay.Fields[f]
			lay.Offsets[fields[i]] = m.moved[name][f]
		}
		lay.Fields = fields
	}
}

// index finds the top-level field holding a word of a struct, in the
// layouts as lowered.
type index struct {
	structs map[string]*simple.StructLayout
	fields  map[string][]int // struct -> word -> index into its Fields
}

// field returns the index in lay.Fields of the field holding word off, or
// -1.
func (ix index) field(lay *simple.StructLayout, off int) int {
	words, ok := ix.fields[lay.Name]
	if !ok {
		words = make([]int, lay.Size)
		for i := range words {
			words[i] = -1
		}
		for i, f := range lay.Fields {
			for w := lay.Offsets[f]; w < lay.Offsets[f]+lay.FieldSizes[f] && w < lay.Size; w++ {
				words[w] = i
			}
		}
		ix.fields[lay.Name] = words
	}
	if off < 0 || off >= len(words) {
		return -1
	}
	return words[off]
}

// decide returns, for every struct whose layout changes, its new field
// order as indices into its declared Fields.
func decide(prog *simple.Program, ix index, loc *locality.Result, threshold int) map[string][]int {
	type ptrUse struct {
		p     *simple.Var
		write bool
	}
	type fieldUse struct {
		ptrUse
		field int
	}
	counts := make(map[string][]int) // struct -> field -> remote accesses
	blocked := make(map[string]bool) // structs accessed in the shape of a blocked transfer
	seen := make(map[fieldUse]bool)
	distinct := make(map[ptrUse]int)
	note := func(p *simple.Var, off int, write bool) {
		if !loc.RemoteLoad(p) {
			return
		}
		lay := pointee(prog, p)
		if lay == nil {
			return
		}
		f := ix.field(lay, off)
		if f < 0 {
			return
		}
		c := counts[lay.Name]
		if c == nil {
			c = make([]int, len(lay.Fields))
			counts[lay.Name] = c
		}
		c[f]++
		u := fieldUse{ptrUse{p, write}, f}
		if !seen[u] {
			seen[u] = true
			if distinct[u.ptrUse]++; distinct[u.ptrUse] >= threshold {
				blocked[lay.Name] = true
			}
		}
	}
	for _, fn := range prog.Funcs {
		clear(seen)
		clear(distinct)
		simple.WalkBasics(fn.Body, func(b *simple.Basic) {
			if b.Kind != simple.KAssign {
				return
			}
			if ld, ok := b.Rhs.(simple.LoadRV); ok {
				note(ld.P, ld.Off, false)
			}
			if st, ok := b.Lhs.(simple.StoreLV); ok {
				note(st.P, st.Off, true)
			}
		})
	}
	orders := make(map[string][]int)
	for name := range blocked {
		c := counts[name]
		order := make([]int, len(c))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool { return c[order[i]] > c[order[j]] })
		for i, f := range order {
			if f != i {
				orders[name] = order
				break
			}
		}
	}
	return orders
}

// pointee returns the layout of the struct p points to, or nil.
func pointee(prog *simple.Program, p *simple.Var) *simple.StructLayout {
	pt, ok := p.Type.(*earthc.PtrType)
	if !ok {
		return nil
	}
	sr, ok := pt.Elem.(*earthc.StructRef)
	if !ok {
		return nil
	}
	return prog.Structs[sr.Name]
}

// mapper rewrites offsets from the lowered layouts (still in structs) to
// the new ones (moved, by struct and field index; a struct absent from moved
// keeps its field offsets, though a struct nested in it may still move
// inside).
type mapper struct {
	index
	moved map[string][]int
}

// at returns the new offset of the size-word object at old offset off in an
// object of type t that is tsize words long. The object is found by
// descending through struct fields and array elements until it is a whole
// field, element or the object itself: its start then moves with it, which
// for a nested struct differs from where its first word went.
func (m *mapper) at(t earthc.Type, tsize, off, size int) int {
	base := 0
	for off != 0 || size != tsize {
		switch tt := t.(type) {
		case *earthc.StructRef:
			lay := m.structs[tt.Name]
			f := -1
			if lay != nil {
				f = m.field(lay, off)
			}
			if f < 0 {
				return base + off
			}
			name := lay.Fields[f]
			fo := lay.Offsets[name]
			if offs, ok := m.moved[tt.Name]; ok {
				base += offs[f]
			} else {
				base += fo
			}
			off -= fo
			t, tsize = lay.FieldTypes[name], lay.FieldSizes[name]
		case *earthc.ArrayType:
			if tt.Len == 0 || tsize%tt.Len != 0 {
				return base + off
			}
			es := tsize / tt.Len
			base += off / es * es
			off %= es
			t, tsize = tt.Elem, es
		default:
			return base + off
		}
	}
	return base
}

// via maps the size-word object at off through pointer p.
func (m *mapper) via(p *simple.Var, off, size int) int {
	pt, ok := p.Type.(*earthc.PtrType)
	if !ok {
		return off
	}
	return m.at(pt.Elem, m.sizeOf(pt.Elem), off, size)
}

// in maps the size-word object at off inside variable v.
func (m *mapper) in(v *simple.Var, off, size int) int {
	return m.at(v.Type, v.Size, off, size)
}

// sizeOf is t's size in words, as sema sizes it.
func (m *mapper) sizeOf(t earthc.Type) int {
	switch tt := t.(type) {
	case *earthc.StructRef:
		if lay := m.structs[tt.Name]; lay != nil {
			return lay.Size
		}
	case *earthc.ArrayType:
		return tt.Len * m.sizeOf(tt.Elem)
	}
	return 1
}

// addrSize is the size of what an address assigned to lhs points at.
func (m *mapper) addrSize(lhs simple.Lvalue) int {
	if lv, ok := lhs.(simple.VarLV); ok {
		if pt, ok := lv.V.Type.(*earthc.PtrType); ok {
			return m.sizeOf(pt.Elem)
		}
	}
	return 1
}

// basic rewrites the offsets of one statement. Lowered SIMPLE reaches
// memory only through assignments and block copies.
func (m *mapper) basic(b *simple.Basic) {
	switch b.Kind {
	case simple.KAssign:
		switch l := b.Lhs.(type) {
		case simple.StoreLV:
			if o := m.via(l.P, l.Off, 1); o != l.Off {
				l.Off = o
				b.Lhs = l
			}
		case simple.LocalStoreLV:
			if o := m.in(l.Base, l.Off, 1); o != l.Off {
				l.Off = o
				b.Lhs = l
			}
		}
		switch r := b.Rhs.(type) {
		case simple.LoadRV:
			if o := m.via(r.P, r.Off, 1); o != r.Off {
				r.Off = o
				b.Rhs = r
			}
		case simple.LocalLoadRV:
			if o := m.in(r.Base, r.Off, 1); o != r.Off {
				r.Off = o
				b.Rhs = r
			}
		case simple.FieldAddrRV:
			if o := m.via(r.P, r.Off, m.addrSize(b.Lhs)); o != r.Off {
				r.Off = o
				b.Rhs = r
			}
		case simple.AddrRV:
			if o := m.in(r.X, r.Off, m.addrSize(b.Lhs)); o != r.Off {
				r.Off = o
				b.Rhs = r
			}
		}
	case simple.KBlkCopy:
		if b.P != nil {
			b.Off = m.via(b.P, b.Off, b.Size)
		} else if b.Local != nil {
			b.Off = m.in(b.Local, b.Off, b.Size)
		}
		if b.P2 != nil {
			b.Off2 = m.via(b.P2, b.Off2, b.Size)
		} else if b.Dst != nil {
			b.Off2 = m.in(b.Dst, b.Off2, b.Size)
		}
	}
}
