// Package threaded defines the low-level threaded code this compiler
// generates (the analog of the paper's Threaded-C target) and the code
// generator from SIMPLE form. The code is a flat register/frame bytecode
// with split-phase EARTH operations: remote reads and writes are issued
// asynchronously (get/put/blkmov), a frame slot filled by a get carries a
// presence bit, and an instruction that consumes a pending slot suspends its
// fiber until the reply arrives — exactly the fetch-and-continue model of
// EARTH, which is what lets early-issued communication overlap computation.
package threaded

import (
	"fmt"
	"strings"

	"repro/internal/earthc"
)

// Op is a bytecode opcode.
type Op int

// Opcodes.
const (
	OpNop Op = iota
	// Local data movement and arithmetic.
	OpMove    // frame[A] = frame[B]
	OpLoadImm // frame[A] = Imm (raw bits)
	OpBin     // frame[A] = frame[B] <BOp> frame[C]; Flt selects float semantics
	OpBinImm  // frame[A] = frame[B] <BOp> Imm (raw bits); D == 1: Imm <BOp> frame[B]
	OpUn      // frame[A] = <UOp> frame[B]
	OpConvIF  // frame[A] = double(int frame[B])
	OpConvFI  // frame[A] = int(double frame[B]) (truncation)
	// Control flow.
	OpJmp      // pc = C
	OpJmpIf    // if frame[A] != 0: pc = C
	OpJmpIfNot // if frame[A] == 0: pc = C
	OpJmpEq    // if frame[A] == Imm: pc = C (switch dispatch)
	// Frame-local aggregate access (struct/array locals).
	OpLocalLoad     // frame[A] = frame[B+C]
	OpLocalStore    // frame[B+C] = frame[A]
	OpLocalLoadIdx  // frame[A] = frame[B + C + frame[D]*Imm]
	OpLocalStoreIdx // frame[B + C + frame[D]*Imm] = frame[A]
	OpMemCopyLocal  // frame[A..A+D) = frame[B..B+D)
	OpAddrLocal     // frame[A] = global address of frame slot B+C
	OpFieldAddr     // frame[A] = frame[B] + C (pointer arithmetic)
	// EARTH split-phase operations.
	OpGet    // frame[A] <- mem[frame[B] + C], split-phase (A becomes pending)
	OpPut    // mem[frame[B] + C] <- frame[A], split-phase (outstanding write)
	OpBlkGet // frame[A..A+D) <- mem[frame[B]+C ..], split-phase block read
	OpBlkPut // mem[frame[B]+C ..] <- frame[A..A+D), split-phase block write
	OpFence  // wait until all outstanding writes/acks of this fiber arrive
	// Memory management.
	OpAlloc // frame[A] = allocate C words on node frame[B] (B == -1: here)
	// Calls and parallelism.
	OpCall   // frame[A] = Fn(Args...); local, same fiber (A == -1: void)
	OpCallAt // like OpCall but runs at a remote node (split-phase RPC):
	//            B = placement kind (0 owner-of, 1 on, 2 home), C = place reg
	OpSpawnArm  // spawn Fn as a fiber sharing this frame (parallel sequence arm)
	OpSpawnIter // spawn Fn as a fiber whose frame starts with copies of slots Args (forall body)
	OpJoin      // wait until all spawned children have completed
	OpRet       // return frame[A] (A == -1: void); fences, notifies waiter
	// Shared-variable atomic operations (serviced by the owner's SU).
	OpSharedRead  // frame[A] = atomic load  mem[frame[B]]
	OpSharedWrite // atomic store mem[frame[B]] = frame[A]
	OpSharedAdd   // atomic add   mem[frame[B]] += frame[A]; Flt for doubles
	// Builtins and environment.
	OpBuiltin // frame[A] = builtin(C)(frame[B]) — sqrt, fabs
	OpPrint   // print kind C of frame[B] (or Str)
	OpOwnerOf // frame[A] = node id owning address frame[B]
	OpMyNode  // frame[A] = executing node
	OpNumNodes
	// Profiling.
	OpProbe // record event kind C (site Site, aux D) in the run profile
)

// Probe kinds (OpProbe.C) recorded against the instruction's Site key.
const (
	ProbeLoopEnter   = iota // arrival at a loop statement
	ProbeLoopTrip           // one loop body execution
	ProbeBranchEnter        // arrival at an if statement
	ProbeBranchThen         // then-alternative taken
	ProbeSwitchEnter        // arrival at a switch statement
	ProbeSwitchCase         // case D (declaration order) taken
)

var opNames = map[Op]string{
	OpNop: "nop", OpMove: "move", OpLoadImm: "imm", OpBin: "bin", OpBinImm: "bini", OpUn: "un",
	OpConvIF: "convif", OpConvFI: "convfi",
	OpJmp: "jmp", OpJmpIf: "jif", OpJmpIfNot: "jifn", OpJmpEq: "jeq",
	OpLocalLoad: "lload", OpLocalStore: "lstore",
	OpLocalLoadIdx: "lloadx", OpLocalStoreIdx: "lstorex",
	OpMemCopyLocal: "lcopy", OpAddrLocal: "addrl", OpFieldAddr: "faddr",
	OpGet: "get", OpPut: "put", OpBlkGet: "blkget", OpBlkPut: "blkput",
	OpFence: "fence", OpAlloc: "alloc",
	OpCall: "call", OpCallAt: "callat",
	OpSpawnArm: "spawnarm", OpSpawnIter: "spawniter", OpJoin: "join",
	OpRet: "ret", OpSharedRead: "shread", OpSharedWrite: "shwrite",
	OpSharedAdd: "shadd", OpBuiltin: "builtin", OpPrint: "print",
	OpOwnerOf: "ownerof", OpMyNode: "mynode", OpNumNodes: "numnodes",
	OpProbe: "probe",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op%d", int(o))
}

// carriesImm reports whether Imm is an operand of op, so that a zero Imm is
// still printed.
func (o Op) carriesImm() bool {
	switch o {
	case OpLoadImm, OpBinImm, OpJmpEq, OpLocalLoadIdx, OpLocalStoreIdx:
		return true
	}
	return false
}

// Builtin codes for OpBuiltin.
const (
	BSqrt = iota
	BFabs
)

// Print kinds for OpPrint.
const (
	PrintInt = iota
	PrintDouble
	PrintChar
	PrintStr
)

// Instr is one bytecode instruction.
type Instr struct {
	Op   Op
	A    int // usually the destination frame slot
	B    int
	C    int
	D    int
	Imm  int64
	BOp  earthc.BinOp
	UOp  earthc.UnOp
	Flt  bool
	Fn   *FnCode
	Args []int
	Str  string
	// Site is the profiling site key this instruction reports under (probes
	// and instrumented remote accesses; "" otherwise). See internal/profile.
	Site string
}

// String disassembles the instruction.
func (in Instr) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", in.Op)
	fmt.Fprintf(&b, " A=%d B=%d C=%d D=%d", in.A, in.B, in.C, in.D)
	if in.Imm != 0 || in.Op.carriesImm() {
		fmt.Fprintf(&b, " imm=%d", in.Imm)
	}
	if in.Fn != nil {
		fmt.Fprintf(&b, " fn=%s", in.Fn.Name)
	}
	if len(in.Args) > 0 {
		fmt.Fprintf(&b, " args=%v", in.Args)
	}
	if in.Str != "" {
		fmt.Fprintf(&b, " str=%q", in.Str)
	}
	if in.Site != "" {
		fmt.Fprintf(&b, " site=%s", in.Site)
	}
	return b.String()
}

// FnCode is a compiled function (or compiler-generated fiber body for a
// parallel-sequence arm or forall iteration).
type FnCode struct {
	Name   string
	NSlots int   // frame size in words
	Params []int // parameter slot indices, in order
	Code   []Instr
	IsArm  bool // shares the spawner's frame
}

// Disasm renders the function's code.
func (f *FnCode) Disasm() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (slots=%d params=%v)\n", f.Name, f.NSlots, f.Params)
	for i, in := range f.Code {
		fmt.Fprintf(&b, "  %4d: %s\n", i, in.String())
	}
	return b.String()
}

// Program is a compiled threaded program.
type Program struct {
	Funcs map[string]*FnCode
	Main  *FnCode
	// GlobalWords is the size of the global segment (resident on node 0).
	GlobalWords int
	// GlobalInit lists (offset, raw word) pairs applied at load time.
	GlobalInit [][2]int64
	// GlobalSlot maps global variable names to offsets in the segment.
	GlobalSlot map[string]int
	// SharedGlobals marks globals that are EARTH-C shared variables.
	SharedGlobals map[string]bool
	// Profiled records that the code carries profiling probes and site
	// tags; the simulator then collects a Profile alongside Counts.
	Profiled bool
}
