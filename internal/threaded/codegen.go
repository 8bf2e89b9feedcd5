package threaded

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/earthc"
	"repro/internal/locality"
	"repro/internal/simple"
)

// Options control code generation.
type Options struct {
	// Sequential produces the paper's "truly sequential" baseline: parallel
	// constructs are serialized, placed calls become plain calls, and every
	// memory access is a direct local access with no EARTH runtime calls.
	// Such code is only valid on a 1-node machine.
	Sequential bool
	// Profile emits profiling probes at compound statements and tags
	// remote-access instructions with their site keys, so a simulator run
	// collects a profile.Data (see internal/profile) alongside Counts.
	Profile bool
}

// Additional direct-memory opcodes used for local (or sequential-mode)
// accesses: these bypass the EARTH runtime and cost only a local memory
// access.
const (
	OpMemLoad    Op = 100 + iota // frame[A] = mem[frame[B]+C] (must be local)
	OpMemStore                   // mem[frame[B]+C] = frame[A]
	OpMemToFrame                 // frame[A..A+D) = mem[frame[B]+C..]
	OpFrameToMem                 // mem[frame[B]+C..] = frame[A..A+D)
	OpMemCopyMem                 // mem[frame[B]+C..] -> mem[frame[A]+D..), Imm words
)

func init() {
	opNames[OpMemLoad] = "mload"
	opNames[OpMemStore] = "mstore"
	opNames[OpMemToFrame] = "m2f"
	opNames[OpFrameToMem] = "f2m"
	opNames[OpMemCopyMem] = "m2m"
}

// Generate compiles a SIMPLE program to threaded code. loc may be nil (all
// pointers treated as possibly remote).
func Generate(prog *simple.Program, loc *locality.Result, opt Options) (*Program, error) {
	g := &gen{prog: prog, loc: loc, opt: opt, label: -1,
		globalOff: make([]int, len(prog.Globals)),
		out: &Program{
			Funcs:         make(map[string]*FnCode),
			GlobalSlot:    make(map[string]int),
			SharedGlobals: make(map[string]bool),
			Profiled:      opt.Profile,
		}}
	for i, gv := range prog.Globals {
		g.out.GlobalSlot[gv.Name] = g.out.GlobalWords
		g.globalOff[i] = g.out.GlobalWords
		if bits, ok := prog.GlobalInit[gv]; ok {
			g.out.GlobalInit = append(g.out.GlobalInit,
				[2]int64{int64(g.out.GlobalWords), bits})
		}
		g.out.GlobalWords += max(1, gv.Size)
		if gv.Shared {
			g.out.SharedGlobals[gv.Name] = true
		}
	}
	// Pre-create FnCode shells so calls can reference them.
	for _, f := range prog.Funcs {
		g.out.Funcs[f.Name] = &FnCode{Name: f.Name}
	}
	spare := spareCode.Get().(*[][]Instr)
	g.spare = *spare
	defer func() {
		*spare = g.spare
		spareCode.Put(spare)
	}()
	for _, f := range prog.Funcs {
		if err := g.fun(f); err != nil {
			return nil, err
		}
	}
	g.out.Main = g.out.Funcs["main"]
	if g.out.Main == nil {
		return nil, fmt.Errorf("threaded: program has no main function")
	}
	return g.out, nil
}

type gen struct {
	prog *simple.Program
	loc  *locality.Result
	opt  Options
	out  *Program
	// globalOff holds each global's word offset in the global segment
	// (resident on node 0), indexed by its Var.ID.
	globalOff []int

	fn *simple.Func
	fc *FnCode
	// slots holds the frame slot of each of fn's variables, indexed by
	// Var.ID.
	slots []int
	// label is the Si label of the basic statement being compiled (-1
	// between statements), and curSite its profiling site key, built by
	// site on first use: remote-access instructions emitted for the
	// statement carry the key so the simulator can attribute ops.
	label   int
	curSite string
	// spare holds emptied code buffers: each function and fiber body is
	// generated into one, then copied out at its final length (see open
	// and close).
	spare [][]Instr
	// family collects the fiber bodies (forall iterations, parallel arms)
	// created while compiling the current function; they share the
	// function's frame layout, so their NSlots are unified to the final
	// frame size at the end of fun().
	family []*FnCode
	// co picks the comm temps that share another variable's slot.
	co coalescer
	// live computes the function's forall live-ins on first use.
	live *liveness
	err  error
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (g *gen) errorf(format string, args ...any) {
	if g.err == nil {
		g.err = fmt.Errorf("threaded: %s: %s", g.fn.Name, fmt.Sprintf(format, args...))
	}
}

// spareCode recycles gen.spare between Generate calls.
var spareCode = sync.Pool{New: func() any { return new([][]Instr) }}

// open starts fc's code in a spare buffer when there is one.
func (g *gen) open(fc *FnCode) {
	if n := len(g.spare); n > 0 {
		fc.Code = g.spare[n-1]
		g.spare = g.spare[:n-1]
	}
}

// close copies fc's finished code out at its final length and keeps the
// buffer it was generated into for the next function.
func (g *gen) close(fc *FnCode) {
	buf := fc.Code
	fc.Code = make([]Instr, len(buf))
	copy(fc.Code, buf)
	clear(buf)
	g.spare = append(g.spare, buf[:0])
}

func (g *gen) fun(f *simple.Func) error {
	g.fn = f
	g.fc = g.out.Funcs[f.Name]
	g.open(g.fc)
	g.slots = slices.Grow(g.slots[:0], f.NumVars())[:f.NumVars()]
	clear(g.slots)
	n := 0
	for _, p := range f.Params {
		g.slots[p.ID] = n
		g.fc.Params = append(g.fc.Params, n)
		n += max(1, p.Size)
	}
	// A coalesced comm temp has no slot of its own (see coalesce.go).
	g.co.run(f)
	for _, p := range g.co.pairs {
		g.slots[p[0].ID] = -1
	}
	var sharedLocals []*simple.Var
	for _, l := range f.Locals {
		if g.slots[l.ID] < 0 {
			continue
		}
		g.slots[l.ID] = n
		if l.Shared {
			// Shared locals live in node heap storage so that fibers
			// holding frame copies (forall iterations) still reach the one
			// shared cell; the frame slot holds its address.
			n++
			sharedLocals = append(sharedLocals, l)
		} else {
			n += max(1, l.Size)
		}
	}
	g.fc.NSlots = n
	for _, p := range g.co.pairs {
		g.slots[p[0].ID] = g.slots[p[1].ID]
	}
	for _, l := range sharedLocals {
		g.emit(g.fc, Instr{Op: OpAlloc, A: g.slots[l.ID], B: -1, C: max(1, l.Size)})
	}
	g.family, g.live = nil, nil
	g.seq(g.fc, f.Body)
	// Implicit return at end.
	g.emit(g.fc, Instr{Op: OpRet, A: -1})
	g.close(g.fc)
	// Spawned bodies share this function's frame layout; unify sizes so
	// frame copies and aliases cover the whole final frame.
	for _, child := range g.family {
		child.NSlots = g.fc.NSlots
	}
	return g.err
}

func (g *gen) emit(fc *FnCode, in Instr) int {
	fc.Code = append(fc.Code, in)
	return len(fc.Code) - 1
}

// scratch allocates a fresh frame slot.
func (g *gen) scratch() int {
	s := g.fc.NSlots
	g.fc.NSlots++
	return s
}

// slot returns the frame slot of a variable; globals have no slot.
func (g *gen) slot(v *simple.Var) int {
	if g.fn.VarByID(v.ID) == v {
		return g.slots[v.ID]
	}
	g.errorf("variable %s has no frame slot (global used as ordinary operand?)", v.Name)
	return 0
}

func (g *gen) isGlobal(v *simple.Var) bool {
	return v.Kind == simple.VarGlobal && v.ID < len(g.prog.Globals) && g.prog.Globals[v.ID] == v
}

// atom materializes an atom into a frame slot of fc.
func (g *gen) atom(fc *FnCode, a simple.Atom) int {
	if bits, ok := constBits(a); ok {
		s := g.scratch()
		g.emit(fc, Instr{Op: OpLoadImm, A: s, Imm: bits})
		return s
	}
	if x, ok := a.(simple.VarAtom); ok {
		if g.isGlobal(x.V) {
			return g.globalRead(fc, x.V)
		}
		return g.slot(x.V)
	}
	g.errorf("unknown atom %T", a)
	return 0
}

// constBits returns the raw word of a constant atom (a double as its bits,
// null as 0); ok is false for a variable.
func constBits(a simple.Atom) (bits int64, ok bool) {
	switch x := a.(type) {
	case simple.IntAtom:
		return x.Val, true
	case simple.FloatAtom:
		return int64(math.Float64bits(x.Val)), true
	case simple.NullAtom:
		return 0, true
	}
	return 0, false
}

// bin materializes the operands of x op y and returns the instruction that
// computes it, its destination A left for the caller. A constant operand
// rides in the instruction, as the i860's integer instructions take
// immediates: bini with Imm, and D == 1 when the constant is the left
// operand. When both are constants the left one is loaded.
func (g *gen) bin(fc *FnCode, op earthc.BinOp, x, y simple.Atom) Instr {
	flt := atomIsDouble(x) || atomIsDouble(y)
	if bits, ok := constBits(y); ok {
		return Instr{Op: OpBinImm, B: g.atom(fc, x), Imm: bits, BOp: op, Flt: flt}
	}
	if bits, ok := constBits(x); ok {
		return Instr{Op: OpBinImm, B: g.atom(fc, y), Imm: bits, D: 1, BOp: op, Flt: flt}
	}
	return Instr{Op: OpBin, B: g.atom(fc, x), C: g.atom(fc, y), BOp: op, Flt: flt}
}

// globalAddr emits code producing the global segment address of v.
func (g *gen) globalAddr(fc *FnCode, v *simple.Var) int {
	s := g.scratch()
	g.emit(fc, Instr{Op: OpLoadImm, A: s, Imm: GlobalAddress(g.globalOff[v.ID])})
	return s
}

// globalRead loads an ordinary global (resident on node 0; remote from
// other nodes, synchronizing at first use).
func (g *gen) globalRead(fc *FnCode, v *simple.Var) int {
	addr := g.globalAddr(fc, v)
	dst := g.scratch()
	if g.opt.Sequential {
		g.emit(fc, Instr{Op: OpMemLoad, A: dst, B: addr, C: 0})
	} else {
		g.emit(fc, Instr{Op: OpGet, A: dst, B: addr, C: 0})
	}
	return dst
}

func (g *gen) globalWrite(fc *FnCode, v *simple.Var, val int) {
	addr := g.globalAddr(fc, v)
	if g.opt.Sequential {
		g.emit(fc, Instr{Op: OpMemStore, A: val, B: addr, C: 0})
	} else {
		g.emit(fc, Instr{Op: OpPut, A: val, B: addr, C: 0})
	}
}

// remotePtr reports whether dereferences through p use the EARTH runtime.
func (g *gen) remotePtr(p *simple.Var) bool {
	if g.opt.Sequential {
		return false
	}
	if g.loc == nil {
		return true
	}
	return g.loc.RemoteLoad(p)
}

func isDoubleVar(v *simple.Var) bool {
	pt, ok := v.Type.(*earthc.PrimType)
	return ok && pt.Kind == earthc.Double
}

func atomIsDouble(a simple.Atom) bool {
	switch x := a.(type) {
	case simple.VarAtom:
		return isDoubleVar(x.V)
	case simple.FloatAtom:
		return true
	}
	return false
}
