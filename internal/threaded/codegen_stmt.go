package threaded

import (
	"fmt"
	"slices"

	"repro/internal/earthc"
	"repro/internal/sema"
	"repro/internal/simple"
)

func (g *gen) seq(fc *FnCode, s *simple.Seq) {
	for _, st := range s.Stmts {
		g.stmt(fc, st)
	}
}

// probe emits a profiling probe for a compound-statement site (no-op unless
// profiling is on and the statement carries a site ID).
func (g *gen) probe(fc *FnCode, kind int, site int, aux int) {
	if !g.opt.Profile || site == 0 {
		return
	}
	g.emit(fc, Instr{Op: OpProbe, C: kind, D: aux,
		Site: simple.CompoundSiteKey(g.fn.Name, site)})
}

func (g *gen) stmt(fc *FnCode, st simple.Stmt) {
	if g.err != nil {
		return
	}
	switch c := st.(type) {
	case *simple.Basic:
		g.basic(fc, c)
	case *simple.Seq:
		g.seq(fc, c)
	case *simple.If:
		g.probe(fc, ProbeBranchEnter, c.Site, 0)
		cond := g.cond(fc, c.Cond)
		jElse := g.emit(fc, Instr{Op: OpJmpIfNot, A: cond})
		g.probe(fc, ProbeBranchThen, c.Site, 0)
		g.seq(fc, c.Then)
		if len(c.Else.Stmts) == 0 {
			fc.Code[jElse].C = len(fc.Code)
			return
		}
		jEnd := g.emit(fc, Instr{Op: OpJmp})
		fc.Code[jElse].C = len(fc.Code)
		g.seq(fc, c.Else)
		fc.Code[jEnd].C = len(fc.Code)
	case *simple.Switch:
		g.switchStmt(fc, c)
	case *simple.While:
		g.probe(fc, ProbeLoopEnter, c.Site, 0)
		top := len(fc.Code)
		g.seq(fc, c.Eval)
		cond := g.cond(fc, c.Cond)
		jEnd := g.emit(fc, Instr{Op: OpJmpIfNot, A: cond})
		g.probe(fc, ProbeLoopTrip, c.Site, 0)
		g.seq(fc, c.Body)
		g.emit(fc, Instr{Op: OpJmp, C: top})
		fc.Code[jEnd].C = len(fc.Code)
	case *simple.Do:
		g.probe(fc, ProbeLoopEnter, c.Site, 0)
		top := len(fc.Code)
		g.probe(fc, ProbeLoopTrip, c.Site, 0)
		g.seq(fc, c.Body)
		g.seq(fc, c.Eval)
		cond := g.cond(fc, c.Cond)
		g.emit(fc, Instr{Op: OpJmpIf, A: cond, C: top})
	case *simple.Forall:
		g.forall(fc, c)
	case *simple.Par:
		g.par(fc, c)
	default:
		g.errorf("cannot generate code for %T", st)
	}
}

// cond evaluates a condition into a 0/1 slot.
func (g *gen) cond(fc *FnCode, c simple.Cond) int {
	if c.Op == simple.TruthTest {
		return g.atom(fc, c.X)
	}
	in := g.bin(fc, c.Op, c.X, c.Y)
	in.A = g.scratch()
	g.emit(fc, in)
	return in.A
}

func (g *gen) switchStmt(fc *FnCode, c *simple.Switch) {
	g.probe(fc, ProbeSwitchEnter, c.Site, 0)
	tag := g.atom(fc, c.Tag)
	type caseRef struct {
		jumps []int // OpJmpEq indices
		body  *simple.Seq
	}
	var refs []caseRef
	defaultIdx := -1
	for i, cc := range c.Cases {
		if cc.Vals == nil {
			defaultIdx = i
			refs = append(refs, caseRef{body: cc.Body})
			continue
		}
		r := caseRef{body: cc.Body}
		for _, v := range cc.Vals {
			r.jumps = append(r.jumps, g.emit(fc, Instr{Op: OpJmpEq, A: tag, Imm: v}))
		}
		refs = append(refs, r)
	}
	jDefault := g.emit(fc, Instr{Op: OpJmp}) // falls to default or end
	var ends []int
	for i, r := range refs {
		start := len(fc.Code)
		g.probe(fc, ProbeSwitchCase, c.Site, i) // jumps land on the probe
		for _, j := range r.jumps {
			fc.Code[j].C = start
		}
		if i == defaultIdx {
			fc.Code[jDefault].C = start
		}
		g.seq(fc, r.body)
		ends = append(ends, g.emit(fc, Instr{Op: OpJmp}))
	}
	end := len(fc.Code)
	if defaultIdx == -1 {
		fc.Code[jDefault].C = end
	}
	for _, e := range ends {
		fc.Code[e].C = end
	}
}

// forall compiles a parallel loop: each iteration is spawned as a fiber
// whose frame starts with the body's live-ins (see livein.go), after the
// Head has issued the step's early reads, and all are joined at the end. In
// sequential mode the loop is serialized (serialForall).
func (g *gen) forall(fc *FnCode, c *simple.Forall) {
	if g.opt.Sequential {
		g.serialForall(fc, c)
		return
	}
	if simple.HasReturn(c.Body) {
		g.errorf("return inside a forall body is not supported")
		return
	}
	body := &FnCode{Name: fmt.Sprintf("%s$forall%d", g.fn.Name, len(g.out.Funcs))}
	g.out.Funcs[body.Name] = body
	g.family = append(g.family, body)
	saved := g.fc
	g.fc = body
	g.open(body)
	body.NSlots = saved.NSlots // shares the frame layout (live-ins copied at spawn)
	g.seq(body, c.Body)
	g.emit(body, Instr{Op: OpRet, A: -1})
	g.close(body)
	// Body codegen may have allocated scratch past the parent's count; the
	// family's frames are unified to the largest.
	if body.NSlots > saved.NSlots {
		saved.NSlots = body.NSlots
	}
	g.fc = saved

	g.probe(fc, ProbeLoopEnter, c.Site, 0)
	top := len(fc.Code)
	g.seq(fc, c.Eval)
	cond := g.cond(fc, c.Cond)
	jEnd := g.emit(fc, Instr{Op: OpJmpIfNot, A: cond})
	g.probe(fc, ProbeLoopTrip, c.Site, 0)
	g.seq(fc, c.Head)
	g.emit(fc, Instr{Op: OpSpawnIter, Fn: body, Args: g.liveInSlots(c.Body)})
	g.seq(fc, c.Step)
	g.emit(fc, Instr{Op: OpJmp, C: top})
	fc.Code[jEnd].C = len(fc.Code)
	g.emit(fc, Instr{Op: OpJoin})
}

// serialForall compiles a forall as a loop in the spawner's frame. The body
// gets a slot of its own for each variable it writes (bodyWrites), as a
// spawned iteration's frame gives it, so no write leaks past its iteration;
// each iteration loads that slot from the spawner's only where the body may
// read the variable before writing it (a live-in). A coalesced comm temp
// moves with the variable whose slot it shares.
func (g *gen) serialForall(fc *FnCode, c *simple.Forall) {
	if g.live == nil {
		g.live = newLiveness(g.fn)
	}
	writes, in := g.live.bodyWrites(c.Body), g.live.bodyIn(c.Body)
	outer := slices.Clone(g.slots)
	own := map[int]int{} // spawner slot -> the body's
	for id, s := range outer {
		if _, ok := own[s]; writes.has(id) && !ok {
			own[s] = g.fc.NSlots
			g.fc.NSlots += max(1, g.fn.VarByID(id).Size)
		}
	}

	g.probe(fc, ProbeLoopEnter, c.Site, 0)
	top := len(fc.Code)
	g.seq(fc, c.Eval)
	cond := g.cond(fc, c.Cond)
	jEnd := g.emit(fc, Instr{Op: OpJmpIfNot, A: cond})
	g.probe(fc, ProbeLoopTrip, c.Site, 0)
	g.seq(fc, c.Head)
	loaded := map[int]bool{}
	for id, s := range outer {
		b, ok := own[s]
		if !ok {
			continue
		}
		g.slots[id] = b
		if !in.has(id) || loaded[s] {
			continue
		}
		loaded[s] = true
		if n := g.fn.VarByID(id).Size; n > 1 {
			g.emit(fc, Instr{Op: OpMemCopyLocal, A: b, B: s, D: n})
		} else {
			g.emit(fc, Instr{Op: OpMove, A: b, B: s})
		}
	}
	g.seq(fc, c.Body)
	copy(g.slots, outer)
	g.seq(fc, c.Step)
	g.emit(fc, Instr{Op: OpJmp, C: top})
	fc.Code[jEnd].C = len(fc.Code)
}

// par compiles a parallel statement sequence: arms run as fibers sharing the
// parent frame (the parent is suspended at the join, and EARTH-C requires
// arms not to interfere on ordinary variables).
func (g *gen) par(fc *FnCode, c *simple.Par) {
	if g.opt.Sequential {
		for _, arm := range c.Arms {
			g.seq(fc, arm)
		}
		return
	}
	var armFns []*FnCode
	for i, arm := range c.Arms {
		if simple.HasReturn(arm) {
			g.errorf("return inside a parallel sequence arm is not supported")
			return
		}
		af := &FnCode{Name: fmt.Sprintf("%s$arm%d_%d", g.fn.Name, len(g.out.Funcs), i), IsArm: true}
		g.out.Funcs[af.Name] = af
		g.family = append(g.family, af)
		saved := g.fc
		g.fc = af
		g.open(af)
		af.NSlots = saved.NSlots
		g.seq(af, arm)
		g.emit(af, Instr{Op: OpRet, A: -1})
		g.close(af)
		if af.NSlots > saved.NSlots {
			saved.NSlots = af.NSlots
		}
		g.fc = saved
		armFns = append(armFns, af)
	}
	// Arm frames alias the parent frame, so the parent frame must cover the
	// largest arm (scratch growth above already ensured that); arms also
	// must not reuse each other's scratch slots, which holds because every
	// scratch allocation is fresh.
	for _, af := range armFns {
		g.emit(fc, Instr{Op: OpSpawnArm, Fn: af})
	}
	g.emit(fc, Instr{Op: OpJoin})
}

// ------------------------------------------------------------------ basics ---

func (g *gen) basic(fc *FnCode, b *simple.Basic) {
	// Remote-access instructions emitted for this statement report under
	// its Si label; profile keys (internal/profile) and trace attribution
	// (internal/trace) share the same site namespace.
	g.label, g.curSite = b.Label, ""
	defer func() { g.label, g.curSite = -1, "" }()
	switch b.Kind {
	case simple.KAssign:
		g.assign(fc, b)
	case simple.KCall:
		g.call(fc, b)
	case simple.KBuiltin:
		g.builtin(fc, b)
	case simple.KAlloc:
		node := -1
		if b.Node != nil {
			node = g.atom(fc, b.Node)
		}
		dst := g.dstSlot(fc, b.Dst)
		g.emit(fc, Instr{Op: OpAlloc, A: dst, B: node, C: b.AllocSize, Site: g.site()})
	case simple.KReturn:
		val := -1
		if b.Val != nil {
			val = g.atom(fc, b.Val)
		}
		g.emit(fc, Instr{Op: OpRet, A: val})
	case simple.KBlkCopy:
		g.blkCopy(fc, b)
	case simple.KGetF:
		dst := g.dstSlot(fc, b.Dst)
		p := g.slot(b.P)
		if g.remotePtr(b.P) {
			g.emit(fc, Instr{Op: OpGet, A: dst, B: p, C: b.Off, Site: g.site()})
		} else {
			g.emit(fc, Instr{Op: OpMemLoad, A: dst, B: p, C: b.Off, Site: g.site()})
		}
	case simple.KPutF:
		var val int
		if b.Val != nil {
			val = g.atom(fc, b.Val)
		} else {
			val = g.scratch()
			g.emit(fc, Instr{Op: OpLocalLoad, A: val, B: g.slot(b.Local), C: b.Off2})
		}
		p := g.slot(b.P)
		if g.remotePtr(b.P) {
			g.emit(fc, Instr{Op: OpPut, A: val, B: p, C: b.Off, Site: g.site()})
		} else {
			g.emit(fc, Instr{Op: OpMemStore, A: val, B: p, C: b.Off, Site: g.site()})
		}
	case simple.KBlkRead:
		// The buffer slot is offset by the span base so buffer field
		// offsets stay aligned with the struct's.
		p := g.slot(b.P)
		local := g.slot(b.Local) + b.Off
		if g.remotePtr(b.P) {
			g.emit(fc, Instr{Op: OpBlkGet, A: local, B: p, C: b.Off, D: b.Size, Site: g.site()})
		} else {
			g.emit(fc, Instr{Op: OpMemToFrame, A: local, B: p, C: b.Off, D: b.Size})
		}
	case simple.KBlkWrite:
		p := g.slot(b.P)
		local := g.slot(b.Local) + b.Off
		if g.remotePtr(b.P) {
			g.emit(fc, Instr{Op: OpBlkPut, A: local, B: p, C: b.Off, D: b.Size, Site: g.site()})
		} else {
			g.emit(fc, Instr{Op: OpFrameToMem, A: local, B: p, C: b.Off, D: b.Size})
		}
	default:
		g.errorf("cannot generate basic kind %d", b.Kind)
	}
}

// site returns the profiling site key of the basic statement being compiled
// ("" between statements), building it on first use.
func (g *gen) site() string {
	if g.curSite == "" && g.label >= 0 {
		g.curSite = simple.BasicSiteKey(g.fn.Name, g.label)
	}
	return g.curSite
}

// dstSlot returns the slot for a destination variable (creating a scratch
// slot for a discarded destination, and handling global destinations via a
// post-store).
func (g *gen) dstSlot(fc *FnCode, v *simple.Var) int {
	if v == nil {
		return g.scratch()
	}
	if g.isGlobal(v) {
		// Rare: a call/alloc result stored to a global; stage via scratch.
		s := g.scratch()
		// The caller must emit the store afterwards; keep it simple by
		// disallowing (benchmarks do not do this).
		g.errorf("storing results directly into global %s is not supported", v.Name)
		return s
	}
	return g.slot(v)
}

func (g *gen) assign(fc *FnCode, b *simple.Basic) {
	// Destination: variable, remote store, or local aggregate store.
	switch lhs := b.Lhs.(type) {
	case simple.VarLV:
		if g.isGlobal(lhs.V) {
			val := g.rvalue(fc, b.Rhs, lhs.V)
			g.globalWrite(fc, lhs.V, val)
			return
		}
		val := g.rvalueInto(fc, b.Rhs, g.slot(lhs.V), lhs.V)
		_ = val
	case simple.StoreLV:
		val := g.rvalue(fc, b.Rhs, nil)
		p := g.slot(lhs.P)
		if g.remotePtr(lhs.P) {
			g.emit(fc, Instr{Op: OpPut, A: val, B: p, C: lhs.Off, Site: g.site()})
		} else {
			g.emit(fc, Instr{Op: OpMemStore, A: val, B: p, C: lhs.Off, Site: g.site()})
		}
	case simple.LocalStoreLV:
		val := g.rvalue(fc, b.Rhs, nil)
		base := g.slot(lhs.Base)
		if lhs.Idx != nil {
			idx := g.atom(fc, lhs.Idx)
			g.emit(fc, Instr{Op: OpLocalStoreIdx, A: val, B: base, C: lhs.Off,
				D: idx, Imm: int64(max(1, lhs.Scale))})
		} else {
			g.emit(fc, Instr{Op: OpLocalStore, A: val, B: base, C: lhs.Off})
		}
	default:
		g.errorf("unknown lvalue %T", b.Lhs)
	}
}

// rvalue evaluates an rvalue into a (possibly fresh) slot and returns it.
// dstVar, when non-nil, is the variable being assigned (used for float
// typing of unary/binary ops).
func (g *gen) rvalue(fc *FnCode, rv simple.Rvalue, dstVar *simple.Var) int {
	return g.rvalueInto(fc, rv, -1, dstVar)
}

// rvalueInto evaluates rv into the given slot (or a fresh one when slot is
// -1) and returns the slot used.
func (g *gen) rvalueInto(fc *FnCode, rv simple.Rvalue, slot int, dstVar *simple.Var) int {
	dst := func() int {
		if slot >= 0 {
			return slot
		}
		return g.scratch()
	}
	switch x := rv.(type) {
	case simple.AtomRV:
		if bits, ok := constBits(x.A); ok && slot >= 0 {
			g.emit(fc, Instr{Op: OpLoadImm, A: slot, Imm: bits})
			return slot
		}
		src := g.atom(fc, x.A)
		if slot < 0 {
			return src
		}
		if src != slot {
			g.emit(fc, Instr{Op: OpMove, A: slot, B: src})
		}
		return slot
	case simple.UnaryRV:
		d := dst()
		g.emit(fc, Instr{Op: OpUn, A: d, B: g.atom(fc, x.X), UOp: x.Op,
			Flt: atomIsDouble(x.X) || isDoubleVar2(dstVar)})
		return d
	case simple.BinaryRV:
		in := g.bin(fc, x.Op, x.X, x.Y)
		in.A = dst()
		g.emit(fc, in)
		return in.A
	case simple.LoadRV:
		d := dst()
		p := g.slot(x.P)
		if g.remotePtr(x.P) {
			g.emit(fc, Instr{Op: OpGet, A: d, B: p, C: x.Off, Site: g.site()})
		} else {
			g.emit(fc, Instr{Op: OpMemLoad, A: d, B: p, C: x.Off, Site: g.site()})
		}
		return d
	case simple.LocalLoadRV:
		d := dst()
		base := g.slot(x.Base)
		if x.Idx != nil {
			idx := g.atom(fc, x.Idx)
			g.emit(fc, Instr{Op: OpLocalLoadIdx, A: d, B: base, C: x.Off,
				D: idx, Imm: int64(max(1, x.Scale))})
		} else {
			g.emit(fc, Instr{Op: OpLocalLoad, A: d, B: base, C: x.Off})
		}
		return d
	case simple.AddrRV:
		d := dst()
		if g.isGlobal(x.X) {
			g.emit(fc, Instr{Op: OpLoadImm, A: d,
				Imm: GlobalAddress(g.globalOff[x.X.ID] + x.Off)})
		} else {
			g.emit(fc, Instr{Op: OpAddrLocal, A: d, B: g.slot(x.X), C: x.Off})
		}
		return d
	case simple.FieldAddrRV:
		d := dst()
		g.emit(fc, Instr{Op: OpFieldAddr, A: d, B: g.slot(x.P), C: x.Off})
		return d
	}
	g.errorf("unknown rvalue %T", rv)
	return 0
}

func isDoubleVar2(v *simple.Var) bool { return v != nil && isDoubleVar(v) }

func (g *gen) blkCopy(fc *FnCode, b *simple.Basic) {
	switch {
	case b.P != nil && b.Dst != nil: // memory -> frame
		p := g.slot(b.P)
		if g.remotePtr(b.P) {
			g.emit(fc, Instr{Op: OpBlkGet, A: g.slot(b.Dst) + b.Off2, B: p, C: b.Off, D: b.Size, Site: g.site()})
		} else {
			g.emit(fc, Instr{Op: OpMemToFrame, A: g.slot(b.Dst) + b.Off2, B: p, C: b.Off, D: b.Size})
		}
	case b.Local != nil && b.P2 != nil: // frame -> memory
		p := g.slot(b.P2)
		if g.remotePtr(b.P2) {
			g.emit(fc, Instr{Op: OpBlkPut, A: g.slot(b.Local) + b.Off, B: p, C: b.Off2, D: b.Size, Site: g.site()})
		} else {
			g.emit(fc, Instr{Op: OpFrameToMem, A: g.slot(b.Local) + b.Off, B: p, C: b.Off2, D: b.Size})
		}
	case b.Local != nil && b.Dst != nil: // frame -> frame
		g.emit(fc, Instr{Op: OpMemCopyLocal,
			A: g.slot(b.Dst) + b.Off2, B: g.slot(b.Local) + b.Off, D: b.Size})
	case b.P != nil && b.P2 != nil:
		// Lowering stages remote-to-remote copies through a frame buffer;
		// reaching here means both pointers are local.
		g.emit(fc, Instr{Op: OpMemCopyMem, A: g.slot(b.P2), D: b.Off2,
			B: g.slot(b.P), C: b.Off, Imm: int64(b.Size)})
	default:
		g.errorf("unsupported block copy combination")
	}
}

func (g *gen) call(fc *FnCode, b *simple.Basic) {
	callee := g.out.Funcs[b.Fun]
	if callee == nil {
		g.errorf("call to unknown function %s", b.Fun)
		return
	}
	args := make([]int, len(b.Args))
	for i, a := range b.Args {
		args[i] = g.atom(fc, a)
	}
	dst := -1
	if b.Dst != nil {
		dst = g.slot(b.Dst)
	}
	if b.Place == nil || g.opt.Sequential {
		g.emit(fc, Instr{Op: OpCall, A: dst, Fn: callee, Args: args})
		return
	}
	in := Instr{Op: OpCallAt, A: dst, Fn: callee, Args: args, Site: g.site()}
	switch b.Place.Kind {
	case earthc.PlaceOwnerOf:
		in.B = 0
		in.C = g.atom(fc, b.Place.Arg)
	case earthc.PlaceOn:
		in.B = 1
		in.C = g.atom(fc, b.Place.Arg)
	case earthc.PlaceHome:
		in.B = 2
	}
	g.emit(fc, in)
}

func (g *gen) builtin(fc *FnCode, b *simple.Basic) {
	bi := sema.Builtin(b.BFun)
	switch bi {
	case sema.BWriteTo, sema.BAddTo, sema.BValueOf:
		sv := b.ArgVars[0]
		var addr int
		if g.isGlobal(sv) {
			addr = g.globalAddr(fc, sv)
		} else {
			// Shared locals hold the address of their heap cell in the
			// frame slot (see codegen.go prologue).
			addr = g.slot(sv)
		}
		switch bi {
		case sema.BWriteTo:
			val := g.atom(fc, b.Args[0])
			g.emit(fc, Instr{Op: OpSharedWrite, A: val, B: addr, Site: g.site()})
		case sema.BAddTo:
			val := g.atom(fc, b.Args[0])
			g.emit(fc, Instr{Op: OpSharedAdd, A: val, B: addr, Flt: isDoubleVar(sv), Site: g.site()})
		case sema.BValueOf:
			g.emit(fc, Instr{Op: OpSharedRead, A: g.dstSlot(fc, b.Dst), B: addr, Site: g.site()})
		}
	case sema.BSqrt:
		g.emit(fc, Instr{Op: OpBuiltin, A: g.dstSlot(fc, b.Dst),
			B: g.atom(fc, b.Args[0]), C: BSqrt})
	case sema.BFabs:
		g.emit(fc, Instr{Op: OpBuiltin, A: g.dstSlot(fc, b.Dst),
			B: g.atom(fc, b.Args[0]), C: BFabs})
	case sema.BDbl:
		g.emit(fc, Instr{Op: OpConvIF, A: g.dstSlot(fc, b.Dst), B: g.atom(fc, b.Args[0])})
	case sema.BTrunc:
		g.emit(fc, Instr{Op: OpConvFI, A: g.dstSlot(fc, b.Dst), B: g.atom(fc, b.Args[0])})
	case sema.BPrintInt:
		g.emit(fc, Instr{Op: OpPrint, B: g.atom(fc, b.Args[0]), C: PrintInt})
	case sema.BPrintDouble:
		g.emit(fc, Instr{Op: OpPrint, B: g.atom(fc, b.Args[0]), C: PrintDouble})
	case sema.BPrintChar:
		g.emit(fc, Instr{Op: OpPrint, B: g.atom(fc, b.Args[0]), C: PrintChar})
	case sema.BPrintStr:
		g.emit(fc, Instr{Op: OpPrint, C: PrintStr, Str: b.StrArg})
	case sema.BOwnerOf:
		g.emit(fc, Instr{Op: OpOwnerOf, A: g.dstSlot(fc, b.Dst), B: g.atom(fc, b.Args[0])})
	case sema.BMyNode:
		g.emit(fc, Instr{Op: OpMyNode, A: g.dstSlot(fc, b.Dst)})
	case sema.BNumNodes:
		g.emit(fc, Instr{Op: OpNumNodes, A: g.dstSlot(fc, b.Dst)})
	default:
		g.errorf("unknown builtin %d", b.BFun)
	}
}
