package earthsim

import (
	"fmt"
	"math"

	"repro/internal/earthc"
	"repro/internal/threaded"
)

// runEU handles the node's one pending EU wake-up (see node.euWake): when
// the EU is free and a fiber is ready, run it until it suspends or
// completes, then wake again if another fiber is ready.
func (m *Machine) runEU(n *node, t int64) {
	if t < n.euFree {
		m.schedule(n.euFree, evEURun, n.id, nil)
		return
	}
	if n.readyLen() == 0 {
		n.euWake = false
		return
	}
	f := n.popReady()
	for f.done {
		// A second wake-up of a fiber the first one ran to completion.
		m.recycleFiber(f)
		if n.readyLen() == 0 {
			n.euWake = false
			return
		}
		f = n.popReady()
	}
	t += m.cfg.CtxSwitch
	if m.tr != nil {
		start, name, fid := t, f.code.Name, f.id
		m.execFiber(f, &t)
		m.tr.EUSpan(n.id, fid, name, start, t)
	} else {
		m.execFiber(f, &t)
	}
	n.euFree = t
	if n.readyLen() > 0 {
		m.schedule(t, evEURun, n.id, nil)
	} else {
		n.euWake = false
	}
}

// execFiber interprets instructions until the fiber suspends, completes, or
// traps. *t advances with each instruction's cost.
func (m *Machine) execFiber(f *fiber, t *int64) {
	n := f.node
	cfg := &m.cfg
	// From here f.blocked() means "blocked by this invocation": a fiber woken
	// twice for one wait arrives the second time still marked.
	f.waitSlot = -1
	rd := func(slot int) int64 { return m.operand(f, n, f.base+int64(slot)) }
	wr := func(slot int, v int64) { n.mem[f.base+int64(slot)] = v }
	for m.trap == nil {
		if !generalStepOnly && uint(f.pc) < uint(len(f.code.Code)) && localOp(f.code.Code[f.pc].Op) {
			m.execLocal(f, t)
		}
		// The general step: one instruction, with every check.
		if f.pc < 0 || f.pc >= len(f.code.Code) {
			m.trapf("%s: pc %d out of range", f.code.Name, f.pc)
			return
		}
		in := &f.code.Code[f.pc]
		m.counts.Instructions++
		if m.counts.Instructions >= m.nextLimitCheck {
			m.limitCheck()
			if m.trap != nil {
				return
			}
		}
		f.ninstr++
		if f.ninstr > m.maxFiberInstr {
			m.trapf("fiber runaway: %s@%d executed %d instructions (infinite loop?)",
				f.code.Name, f.pc, f.ninstr)
			return
		}
		*t += cfg.InstrCost

		// Writing a slot that has a fill in flight must wait for the fill
		// (sync-slot semantics): otherwise the late reply would clobber the
		// newer value. Check the common destination operands up front.
		switch in.Op {
		case threaded.OpMove, threaded.OpLoadImm, threaded.OpBin, threaded.OpBinImm,
			threaded.OpUn, threaded.OpConvIF, threaded.OpConvFI, threaded.OpLocalLoad,
			threaded.OpLocalLoadIdx, threaded.OpAddrLocal, threaded.OpFieldAddr,
			threaded.OpMemLoad, threaded.OpBuiltin, threaded.OpOwnerOf,
			threaded.OpMyNode, threaded.OpNumNodes, threaded.OpGet,
			threaded.OpSharedRead, threaded.OpAlloc:
			abs := f.base + int64(in.A)
			if n.pending[abs] > 0 {
				m.block(f, abs)
				return
			}
		case threaded.OpLocalStore:
			abs := f.base + int64(in.B+in.C)
			if n.pending[abs] > 0 {
				m.block(f, abs)
				return
			}
		case threaded.OpMemCopyLocal, threaded.OpMemToFrame, threaded.OpBlkGet:
			for i := 0; i < in.D; i++ {
				abs := f.base + int64(in.A+i)
				if n.pending[abs] > 0 {
					m.block(f, abs)
					return
				}
			}
		}

		switch in.Op {
		case threaded.OpNop:

		case threaded.OpProbe:
			if m.prof != nil && in.Site != "" {
				switch in.C {
				case threaded.ProbeLoopEnter:
					m.prof.LoopEnter(in.Site)
				case threaded.ProbeLoopTrip:
					m.prof.LoopTrip(in.Site)
				case threaded.ProbeBranchEnter:
					m.prof.BranchEnter(in.Site)
				case threaded.ProbeBranchThen:
					m.prof.BranchThen(in.Site)
				case threaded.ProbeSwitchEnter:
					m.prof.SwitchEnter(in.Site)
				case threaded.ProbeSwitchCase:
					m.prof.SwitchCase(in.Site, in.D)
				}
			}

		case threaded.OpMove:
			v := rd(in.B)
			if f.blocked() {
				return
			}
			wr(in.A, v)

		case threaded.OpLoadImm:
			wr(in.A, in.Imm)

		case threaded.OpBin:
			x := rd(in.B)
			y := rd(in.C)
			if f.blocked() {
				return
			}
			v, err := binOp(in.BOp, x, y, in.Flt)
			if err != nil {
				m.trapf("%s@%d: %v", f.code.Name, f.pc, err)
				return
			}
			wr(in.A, v)

		case threaded.OpBinImm:
			x, y := rd(in.B), in.Imm
			if f.blocked() {
				return
			}
			if in.D == 1 {
				x, y = y, x
			}
			v, err := binOp(in.BOp, x, y, in.Flt)
			if err != nil {
				m.trapf("%s@%d: %v", f.code.Name, f.pc, err)
				return
			}
			wr(in.A, v)

		case threaded.OpUn:
			x := rd(in.B)
			if f.blocked() {
				return
			}
			switch in.UOp {
			case earthc.Neg:
				if in.Flt {
					wr(in.A, int64(math.Float64bits(-math.Float64frombits(uint64(x)))))
				} else {
					wr(in.A, -x)
				}
			case earthc.BNot:
				wr(in.A, ^x)
			default:
				m.trapf("bad unary op %v", in.UOp)
				return
			}

		case threaded.OpConvIF:
			x := rd(in.B)
			if f.blocked() {
				return
			}
			wr(in.A, int64(math.Float64bits(float64(x))))

		case threaded.OpConvFI:
			x := rd(in.B)
			if f.blocked() {
				return
			}
			wr(in.A, int64(math.Float64frombits(uint64(x))))

		case threaded.OpJmp:
			f.pc = in.C
			continue

		case threaded.OpJmpIf:
			v := rd(in.A)
			if f.blocked() {
				return
			}
			if v != 0 {
				f.pc = in.C
				continue
			}

		case threaded.OpJmpIfNot:
			v := rd(in.A)
			if f.blocked() {
				return
			}
			if v == 0 {
				f.pc = in.C
				continue
			}

		case threaded.OpJmpEq:
			v := rd(in.A)
			if f.blocked() {
				return
			}
			if v == in.Imm {
				f.pc = in.C
				continue
			}

		case threaded.OpLocalLoad:
			v := rd(in.B + in.C)
			if f.blocked() {
				return
			}
			wr(in.A, v)

		case threaded.OpLocalStore:
			v := rd(in.A)
			if f.blocked() {
				return
			}
			wr(in.B+in.C, v)

		case threaded.OpLocalLoadIdx:
			idx := rd(in.D)
			if f.blocked() {
				return
			}
			slot := in.B + in.C + int(idx)*int(in.Imm)
			if slot < 0 || slot >= f.size {
				m.trapf("%s@%d: array index out of range (slot %d of %d)", f.code.Name, f.pc, slot, f.size)
				return
			}
			v := rd(slot)
			if f.blocked() {
				return
			}
			wr(in.A, v)

		case threaded.OpLocalStoreIdx:
			idx := rd(in.D)
			v := rd(in.A)
			if f.blocked() {
				return
			}
			slot := in.B + in.C + int(idx)*int(in.Imm)
			if slot < 0 || slot >= f.size {
				m.trapf("%s@%d: array index out of range (slot %d of %d)", f.code.Name, f.pc, slot, f.size)
				return
			}
			if n.pending[f.base+int64(slot)] > 0 {
				m.block(f, f.base+int64(slot))
				return
			}
			wr(slot, v)

		case threaded.OpMemCopyLocal:
			for i := 0; i < in.D; i++ {
				v := rd(in.B + i)
				if f.blocked() {
					return
				}
				wr(in.A+i, v)
			}
			*t += int64(in.D) * 8

		case threaded.OpAddrLocal:
			wr(in.A, threaded.PackAddr(n.id, f.base+int64(in.B+in.C)))

		case threaded.OpFieldAddr:
			p := rd(in.B)
			if f.blocked() {
				return
			}
			if p == 0 {
				m.trapf("%s@%d: field address of null pointer", f.code.Name, f.pc)
				return
			}
			wr(in.A, p+int64(in.C))

		case threaded.OpMemLoad:
			p := rd(in.B)
			if f.blocked() {
				return
			}
			v, ok := m.localWord(f, p, in.C)
			if !ok {
				return
			}
			if m.prof != nil && in.Site != "" {
				m.prof.RecordAccess(in.Site, false)
			}
			*t += cfg.LocalMemCost
			wr(in.A, v)

		case threaded.OpMemStore:
			p := rd(in.B)
			v := rd(in.A)
			if f.blocked() {
				return
			}
			if !m.localWordStore(f, p, in.C, v) {
				return
			}
			if m.prof != nil && in.Site != "" {
				m.prof.RecordAccess(in.Site, false)
			}
			*t += cfg.LocalMemCost

		case threaded.OpMemToFrame:
			p := rd(in.B)
			if f.blocked() {
				return
			}
			for i := 0; i < in.D; i++ {
				v, ok := m.localWord(f, p, in.C+i)
				if !ok {
					return
				}
				wr(in.A+i, v)
			}
			*t += cfg.LocalMemCost + int64(in.D)*8

		case threaded.OpFrameToMem:
			p := rd(in.B)
			if f.blocked() {
				return
			}
			for i := 0; i < in.D; i++ {
				v := rd(in.A + i)
				if f.blocked() {
					return
				}
				if !m.localWordStore(f, p, in.C+i, v) {
					return
				}
			}
			*t += cfg.LocalMemCost + int64(in.D)*8

		case threaded.OpMemCopyMem:
			src := rd(in.B)
			dst := rd(in.A)
			if f.blocked() {
				return
			}
			for i := 0; i < int(in.Imm); i++ {
				v, ok := m.localWord(f, src, in.C+i)
				if !ok {
					return
				}
				if !m.localWordStore(f, dst, in.D+i, v) {
					return
				}
			}
			*t += cfg.LocalMemCost + in.Imm*8

		case threaded.OpGet:
			p := rd(in.B)
			if f.blocked() {
				return
			}
			if p == 0 {
				m.trapf("%s@%d: remote read through null pointer", f.code.Name, f.pc)
				return
			}
			if m.prof != nil && in.Site != "" {
				m.prof.RecordAccess(in.Site, threaded.AddrNode(p) != n.id)
			}
			if threaded.AddrNode(p) == n.id {
				*t += cfg.LocalRTCost
			} else {
				*t += cfg.EUIssue
			}
			m.issueGet(f, *t, p+int64(in.C), f.base+int64(in.A), in.Site)

		case threaded.OpPut:
			p := rd(in.B)
			v := rd(in.A)
			if f.blocked() {
				return
			}
			if p == 0 {
				m.trapf("%s@%d: remote write through null pointer", f.code.Name, f.pc)
				return
			}
			if m.prof != nil && in.Site != "" {
				m.prof.RecordAccess(in.Site, threaded.AddrNode(p) != n.id)
			}
			if threaded.AddrNode(p) == n.id {
				*t += cfg.LocalRTCost
			} else {
				*t += cfg.EUIssue
			}
			m.issuePut(f, *t, p+int64(in.C), v, in.Site)

		case threaded.OpBlkGet:
			p := rd(in.B)
			if f.blocked() {
				return
			}
			if p == 0 {
				m.trapf("%s@%d: blkmov read through null pointer", f.code.Name, f.pc)
				return
			}
			if threaded.AddrNode(p) == n.id {
				*t += cfg.LocalRTCost + cfg.LocalRTWord*int64(in.D)
			} else {
				*t += cfg.EUIssue
			}
			m.issueBlkGet(f, *t, p+int64(in.C), f.base+int64(in.A), in.D, in.Site)

		case threaded.OpBlkPut:
			p := rd(in.B)
			if f.blocked() {
				return
			}
			m.scratch = m.scratch[:0]
			for i := 0; i < in.D; i++ {
				v := rd(in.A + i)
				if f.blocked() {
					return
				}
				m.scratch = append(m.scratch, v)
			}
			if p == 0 {
				m.trapf("%s@%d: blkmov write through null pointer", f.code.Name, f.pc)
				return
			}
			if threaded.AddrNode(p) == n.id {
				*t += cfg.LocalRTCost + cfg.LocalRTWord*int64(in.D)
			} else {
				*t += cfg.EUIssue
			}
			m.issueBlkPut(f, *t, p+int64(in.C), m.scratch, in.Site)

		case threaded.OpFence:
			if f.outstanding > 0 {
				f.waitFence = true
				m.park(f)
				return
			}

		case threaded.OpAlloc:
			nodeSel := -1
			if in.B >= 0 {
				v := rd(in.B)
				if f.blocked() {
					return
				}
				nodeSel = int(v)
			}
			m.counts.Allocs++
			if nodeSel < 0 || nodeSel == n.id {
				*t += cfg.AllocCost
				base := n.allocWords(in.C)
				if base < 0 {
					m.trapf("%s@%d: node %d out of memory (budget %d words)",
						f.code.Name, f.pc, n.id, n.maxWords)
					return
				}
				wr(in.A, threaded.PackAddr(n.id, base))
			} else {
				if nodeSel >= len(m.nodes) {
					m.trapf("%s@%d: alloc_on node %d out of range (machine has %d)",
						f.code.Name, f.pc, nodeSel, len(m.nodes))
					return
				}
				*t += cfg.EUIssue
				m.issueAlloc(f, *t, nodeSel, in.C, f.base+int64(in.A), in.Site)
			}

		case threaded.OpCall:
			m.scratch = m.scratch[:0]
			for _, s := range in.Args {
				v := rd(s)
				if f.blocked() {
					return
				}
				m.scratch = append(m.scratch, v)
			}
			*t += cfg.CallCost
			callee := in.Fn
			base := n.allocFrame(callee.NSlots)
			if base < 0 {
				m.trapf("%s: node %d out of memory calling %s (deep recursion?)",
					f.code.Name, n.id, callee.Name)
				return
			}
			for i, a := range m.scratch {
				if i < len(callee.Params) {
					n.mem[base+int64(callee.Params[i])] = a
				}
			}
			f.stack = append(f.stack, frameRec{
				code: f.code, pc: f.pc + 1, base: f.base, size: f.size, retSlot: in.A,
			})
			f.code = callee
			f.pc = 0
			f.base = base
			f.size = callee.NSlots
			continue

		case threaded.OpCallAt:
			if !m.execCallAt(f, t, in) {
				return
			}

		case threaded.OpSpawnArm:
			*t += cfg.SpawnCost
			m.counts.Spawns++
			f.children++
			child := m.newSharedFiber(n.id, in.Fn, f.base, replyRoute{kind: 1, parent: f})
			m.enqueueReady(n, child, *t)

		case threaded.OpSpawnIter:
			// The iteration is invoked with its live-ins (Args, ascending):
			// a fill in flight to one must land first, lowest first, so
			// the copy is coherent; fills to other words stay in flight.
			for _, s := range in.Args {
				if abs := f.base + int64(s); n.pending[abs] > 0 {
					m.block(f, abs)
					return
				}
			}
			*t += cfg.SpawnCost + cfg.FrameCopyPerWord*int64(len(in.Args))
			m.counts.Spawns++
			f.children++
			child := m.newFiber(n.id, in.Fn, nil, replyRoute{kind: 1, parent: f})
			for _, s := range in.Args {
				child.node.mem[child.base+int64(s)] = n.mem[f.base+int64(s)]
			}
			m.enqueueReady(n, child, *t)

		case threaded.OpJoin:
			if f.children > 0 {
				f.waitJoin = true
				m.park(f)
				return
			}

		case threaded.OpRet:
			val := int64(0)
			if in.A >= 0 {
				val = rd(in.A)
				if f.blocked() {
					return
				}
			}
			// Drain split-phase reads targeting this frame before it can
			// be freed or its results consumed (thread-level sync), lowest
			// offset first so the wake/re-execute count is reproducible.
			for _, abs := range f.pending {
				if abs >= f.base && abs < f.base+int64(f.size) {
					m.block(f, abs)
					return
				}
			}
			if len(f.stack) > 0 {
				rec := f.stack[len(f.stack)-1]
				if rec.retSlot >= 0 {
					abs := rec.base + int64(rec.retSlot)
					if n.pending[abs] > 0 {
						m.block(f, abs)
						return
					}
				}
				f.stack = f.stack[:len(f.stack)-1]
				n.freeFrame(f.base, f.size)
				f.code = rec.code
				f.pc = rec.pc
				f.base = rec.base
				f.size = rec.size
				if rec.retSlot >= 0 {
					n.mem[f.base+int64(rec.retSlot)] = val
				}
				continue
			}
			// Fiber end: fence outstanding communication, then report.
			if f.outstanding > 0 {
				f.waitFence = true
				m.park(f)
				return
			}
			m.finishFiber(f, *t, val)
			return

		case threaded.OpSharedRead, threaded.OpSharedWrite, threaded.OpSharedAdd:
			if !m.execShared(f, t, in) {
				return
			}

		case threaded.OpBuiltin:
			x := rd(in.B)
			if f.blocked() {
				return
			}
			fx := math.Float64frombits(uint64(x))
			var r float64
			switch in.C {
			case threaded.BSqrt:
				r = math.Sqrt(fx)
			case threaded.BFabs:
				r = math.Abs(fx)
			}
			*t += cfg.InstrCost * 4
			wr(in.A, int64(math.Float64bits(r)))

		case threaded.OpPrint:
			var text string
			switch in.C {
			case threaded.PrintInt:
				v := rd(in.B)
				if f.blocked() {
					return
				}
				text = fmt.Sprintf("%d\n", v)
			case threaded.PrintDouble:
				v := rd(in.B)
				if f.blocked() {
					return
				}
				text = fmt.Sprintf("%.6f\n", math.Float64frombits(uint64(v)))
			case threaded.PrintChar:
				v := rd(in.B)
				if f.blocked() {
					return
				}
				text = string(rune(v))
			case threaded.PrintStr:
				text = in.Str
			}
			n.outSeq++
			m.output = append(m.output, outItem{time: *t, seq: n.outSeq, text: text})

		case threaded.OpOwnerOf:
			p := rd(in.B)
			if f.blocked() {
				return
			}
			if p == 0 {
				m.trapf("%s@%d: owner_of(NULL)", f.code.Name, f.pc)
				return
			}
			wr(in.A, int64(threaded.AddrNode(p)))

		case threaded.OpMyNode:
			wr(in.A, int64(n.id))

		case threaded.OpNumNodes:
			wr(in.A, int64(len(m.nodes)))

		default:
			m.trapf("%s@%d: unknown opcode %v", f.code.Name, f.pc, in.Op)
			return
		}
		f.pc++
	}
}

// generalStepOnly sends every instruction through execFiber's general step
// and never into execLocal. Only tests set it: the golden cells must come out
// the same either way, which checks the fast path against the general step on
// every opcode the matrix executes.
var generalStepOnly bool

// localOp reports whether execLocal runs op: the frame-local opcodes, and
// loads and stores of the executing node's own memory.
func localOp(op threaded.Op) bool {
	switch op {
	case threaded.OpLoadImm, threaded.OpMove, threaded.OpBin, threaded.OpBinImm,
		threaded.OpJmp, threaded.OpJmpIf, threaded.OpJmpIfNot, threaded.OpJmpEq,
		threaded.OpLocalLoad, threaded.OpLocalStore, threaded.OpFieldAddr,
		threaded.OpMemLoad, threaded.OpMemStore:
		return true
	}
	return false
}

// execLocal runs f from f.pc in a tight loop for as long as the instructions
// are localOp ones and can finish exactly. It stops before the first one that
// could block, trap or need a check, and execFiber's general step then runs
// that instruction: another opcode, a pc out of range, a word with a fill in
// flight, a binOp error, faddr of null, a profiled mload/mstore, one through
// a null or remote pointer, beyond the node's memory or to a word with a fill
// in flight, or the instruction that would reach the next limit check or the
// fiber's runaway limit.
// Instructions, f.ninstr and EU time are charged once for the whole run.
func (m *Machine) execLocal(f *fiber, t *int64) {
	n := f.node
	code, mem, pending, base := f.code.Code, n.mem, n.pending, f.base
	// A word at or past maxWords may already be in the slice (ensure grows
	// it 1,024 words at a time); the general step traps on it.
	memLimit := min(uint64(len(mem)), uint64(n.maxWords))
	profiled := m.prof != nil
	budget := min(m.nextLimitCheck-1-m.counts.Instructions, m.maxFiberInstr-f.ninstr)
	pc, k, memOps := f.pc, int64(0), int64(0)
run:
	for ; k < budget && uint(pc) < uint(len(code)); k++ {
		in := &code[pc]
		switch in.Op {
		case threaded.OpLoadImm:
			a := base + int64(in.A)
			if pending[a] > 0 {
				break run
			}
			mem[a] = in.Imm
		case threaded.OpMove:
			a, b := base+int64(in.A), base+int64(in.B)
			if pending[a]|pending[b] > 0 {
				break run
			}
			mem[a] = mem[b]
		case threaded.OpBin:
			a, b, c := base+int64(in.A), base+int64(in.B), base+int64(in.C)
			if pending[a]|pending[b]|pending[c] > 0 {
				break run
			}
			v, err := binOp(in.BOp, mem[b], mem[c], in.Flt)
			if err != nil {
				break run
			}
			mem[a] = v
		case threaded.OpBinImm:
			a, b := base+int64(in.A), base+int64(in.B)
			if pending[a]|pending[b] > 0 {
				break run
			}
			x, y := mem[b], in.Imm
			if in.D == 1 {
				x, y = y, x
			}
			v, err := binOp(in.BOp, x, y, in.Flt)
			if err != nil {
				break run
			}
			mem[a] = v
		case threaded.OpJmp:
			pc = in.C
			continue
		case threaded.OpJmpIf:
			a := base + int64(in.A)
			if pending[a] > 0 {
				break run
			}
			if mem[a] != 0 {
				pc = in.C
				continue
			}
		case threaded.OpJmpIfNot:
			a := base + int64(in.A)
			if pending[a] > 0 {
				break run
			}
			if mem[a] == 0 {
				pc = in.C
				continue
			}
		case threaded.OpJmpEq:
			a := base + int64(in.A)
			if pending[a] > 0 {
				break run
			}
			if mem[a] == in.Imm {
				pc = in.C
				continue
			}
		case threaded.OpLocalLoad:
			a, b := base+int64(in.A), base+int64(in.B+in.C)
			if pending[a]|pending[b] > 0 {
				break run
			}
			mem[a] = mem[b]
		case threaded.OpLocalStore:
			a, b := base+int64(in.B+in.C), base+int64(in.A)
			if pending[a]|pending[b] > 0 {
				break run
			}
			mem[a] = mem[b]
		case threaded.OpFieldAddr:
			a, b := base+int64(in.A), base+int64(in.B)
			if pending[a]|pending[b] > 0 || mem[b] == 0 {
				break run
			}
			mem[a] = mem[b] + int64(in.C)
		case threaded.OpMemLoad:
			a, b := base+int64(in.A), base+int64(in.B)
			if profiled || pending[a]|pending[b] > 0 {
				break run
			}
			p := mem[b]
			o := threaded.AddrOff(p) + int64(in.C)
			if threaded.AddrNode(p) != n.id || uint64(o) >= memLimit || pending[o] > 0 { // null is node -1
				break run
			}
			mem[a] = mem[o]
			memOps++
		case threaded.OpMemStore:
			a, b := base+int64(in.A), base+int64(in.B)
			if profiled || pending[a]|pending[b] > 0 {
				break run
			}
			p := mem[b]
			o := threaded.AddrOff(p) + int64(in.C)
			if threaded.AddrNode(p) != n.id || uint64(o) >= memLimit || pending[o] > 0 {
				break run
			}
			mem[o] = mem[a]
			memOps++
		default:
			break run
		}
		pc++
	}
	f.pc = pc
	m.counts.Instructions += k
	f.ninstr += k
	*t += k*m.cfg.InstrCost + memOps*m.cfg.LocalMemCost
}

// operand reads frame word abs of f (running on n) for the executing
// instruction. A word with a fill in flight is not present: the fiber blocks
// on it and the instruction, seeing f.blocked(), re-executes after the wake.
// An instruction reads all its operands before testing blocked, so it can
// come to wait on several words at once. (Kept within the inlining budget:
// this is the interpreter's hottest path.)
func (m *Machine) operand(f *fiber, n *node, abs int64) int64 {
	if n.pending[abs] > 0 {
		m.block(f, abs)
	}
	return n.mem[abs]
}

// localWord reads mem[p+off] which must reside on the executing node. A word
// with a fill in flight (a frame slot whose address was taken) blocks the
// fiber, as an operand does, and the instruction re-executes after the wake;
// localWordStore waits the same way.
func (m *Machine) localWord(f *fiber, p int64, off int) (int64, bool) {
	if p == 0 {
		m.trapf("%s: local access through null pointer", f.code.Name)
		return 0, false
	}
	nid := threaded.AddrNode(p)
	if nid != f.node.id {
		m.trapf("%s: 'local' access to address on node %d from node %d (locality violation)",
			f.code.Name, nid, f.node.id)
		return 0, false
	}
	o := threaded.AddrOff(p) + int64(off)
	if !f.node.ensure(o, 1) {
		m.trapf("%s: local access beyond the node's memory budget", f.code.Name)
		return 0, false
	}
	if f.node.pending[o] > 0 { // a frame word reached through its address
		m.block(f, o)
		return 0, false
	}
	return f.node.mem[o], true
}

func (m *Machine) localWordStore(f *fiber, p int64, off int, v int64) bool {
	if p == 0 {
		m.trapf("%s: local store through null pointer", f.code.Name)
		return false
	}
	nid := threaded.AddrNode(p)
	if nid != f.node.id {
		m.trapf("%s: 'local' store to address on node %d from node %d (locality violation)",
			f.code.Name, nid, f.node.id)
		return false
	}
	o := threaded.AddrOff(p) + int64(off)
	if !f.node.ensure(o, 1) {
		m.trapf("%s: local store beyond the node's memory budget", f.code.Name)
		return false
	}
	if f.node.pending[o] > 0 { // the late fill would clobber the store
		m.block(f, o)
		return false
	}
	f.node.mem[o] = v
	return true
}

// execCallAt handles OpCallAt; returns false when the fiber suspended.
func (m *Machine) execCallAt(f *fiber, t *int64, in *threaded.Instr) bool {
	n := f.node
	rd := func(slot int) int64 { return m.operand(f, n, f.base+int64(slot)) }
	target := n.id
	switch in.B {
	case 0: // @OWNER_OF(ptr)
		p := rd(in.C)
		if f.blocked() {
			return false
		}
		if p == 0 {
			m.trapf("%s@%d: @OWNER_OF(NULL)", f.code.Name, f.pc)
			return false
		}
		target = threaded.AddrNode(p)
	case 1: // @ON(node)
		v := rd(in.C)
		if f.blocked() {
			return false
		}
		target = int(v)
		if target < 0 || target >= len(m.nodes) {
			m.trapf("%s@%d: @ON(%d) out of range", f.code.Name, f.pc, target)
			return false
		}
	case 2: // @HOME
		target = n.id
	}
	m.scratch = m.scratch[:0]
	for _, s := range in.Args {
		v := rd(s)
		if f.blocked() {
			return false
		}
		m.scratch = append(m.scratch, v)
	}
	if target == n.id {
		// Local placement: run as a plain call.
		*t += m.cfg.CallCost
		callee := in.Fn
		base := n.allocFrame(callee.NSlots)
		if base < 0 {
			m.trapf("%s: node %d out of memory calling %s", f.code.Name, n.id, callee.Name)
			return false
		}
		for i, a := range m.scratch {
			if i < len(callee.Params) {
				n.mem[base+int64(callee.Params[i])] = a
			}
		}
		f.stack = append(f.stack, frameRec{
			code: f.code, pc: f.pc + 1, base: f.base, size: f.size, retSlot: in.A,
		})
		f.code = callee
		f.pc = -1 // pc++ in the main loop brings it to 0
		f.base = base
		f.size = callee.NSlots
		return true
	}
	retSlot := int64(-1)
	if in.A >= 0 {
		// The result is a second fill of the slot: it must wait for one
		// already in flight, or the two replies could land in either order
		// (a local call's return waits the same way).
		retSlot = f.base + int64(in.A)
		if n.pending[retSlot] > 0 {
			m.block(f, retSlot)
			return false
		}
	}
	*t += m.cfg.EUIssue
	m.counts.RPCs++
	if retSlot >= 0 {
		f.addPending(retSlot)
	} else {
		f.outstanding++
	}
	m.issueInvoke(f, *t, target, in.Fn, m.scratch, retSlot, in.Site)
	return true
}

// execShared handles the atomic shared-variable operations; returns false
// when the fiber suspended.
func (m *Machine) execShared(f *fiber, t *int64, in *threaded.Instr) bool {
	n := f.node
	rd := func(slot int) int64 { return m.operand(f, n, f.base+int64(slot)) }
	addr := rd(in.B)
	var val int64
	if in.Op != threaded.OpSharedRead {
		val = rd(in.A)
	}
	if f.blocked() {
		return false
	}
	if addr == 0 {
		m.trapf("%s@%d: shared op on null address", f.code.Name, f.pc)
		return false
	}
	m.counts.SharedOps++
	owner := threaded.AddrNode(addr)
	if owner == n.id {
		// Local atomic: EU performs it via the local SU path cheaply.
		*t += m.cfg.LocalMemCost * 2
		off := threaded.AddrOff(addr)
		if !n.ensure(off, 1) {
			m.trapf("shared op beyond the node's memory budget")
			return false
		}
		switch in.Op {
		case threaded.OpSharedRead:
			n.mem[f.base+int64(in.A)] = n.mem[off]
		case threaded.OpSharedWrite:
			n.mem[off] = val
		case threaded.OpSharedAdd:
			if in.Flt {
				sum := math.Float64frombits(uint64(n.mem[off])) + math.Float64frombits(uint64(val))
				n.mem[off] = int64(math.Float64bits(sum))
			} else {
				n.mem[off] += val
			}
		}
		return true
	}
	*t += m.cfg.EUIssue
	switch in.Op {
	case threaded.OpSharedRead:
		slot := f.base + int64(in.A)
		f.addPending(slot)
		m.issueShared(f, *t, addr, 0, 0, slot, false, in.Site)
	case threaded.OpSharedWrite:
		f.outstanding++
		m.issueShared(f, *t, addr, 1, val, -1, false, in.Site)
	case threaded.OpSharedAdd:
		f.outstanding++
		m.issueShared(f, *t, addr, 2, val, -1, in.Flt, in.Site)
	}
	return true
}

// binOp evaluates a binary operation on raw words.
func binOp(op earthc.BinOp, x, y int64, flt bool) (int64, error) {
	if flt {
		a := math.Float64frombits(uint64(x))
		b := math.Float64frombits(uint64(y))
		switch op {
		case earthc.Add:
			return int64(math.Float64bits(a + b)), nil
		case earthc.Sub:
			return int64(math.Float64bits(a - b)), nil
		case earthc.Mul:
			return int64(math.Float64bits(a * b)), nil
		case earthc.Div:
			return int64(math.Float64bits(a / b)), nil
		case earthc.Lt:
			return b2i(a < b), nil
		case earthc.Gt:
			return b2i(a > b), nil
		case earthc.Le:
			return b2i(a <= b), nil
		case earthc.Ge:
			return b2i(a >= b), nil
		case earthc.Eq:
			return b2i(a == b), nil
		case earthc.Ne:
			return b2i(a != b), nil
		}
		return 0, fmt.Errorf("bad float op %v", op)
	}
	switch op {
	case earthc.Add:
		return x + y, nil
	case earthc.Sub:
		return x - y, nil
	case earthc.Mul:
		return x * y, nil
	case earthc.Div:
		if y == 0 {
			return 0, fmt.Errorf("integer division by zero")
		}
		return x / y, nil
	case earthc.Rem:
		if y == 0 {
			return 0, fmt.Errorf("integer modulo by zero")
		}
		return x % y, nil
	case earthc.And:
		return x & y, nil
	case earthc.Or:
		return x | y, nil
	case earthc.Xor:
		return x ^ y, nil
	case earthc.Shl:
		return x << uint(y&63), nil
	case earthc.Shr:
		return x >> uint(y&63), nil
	case earthc.Lt:
		return b2i(x < y), nil
	case earthc.Gt:
		return b2i(x > y), nil
	case earthc.Le:
		return b2i(x <= y), nil
	case earthc.Ge:
		return b2i(x >= y), nil
	case earthc.Eq:
		return b2i(x == y), nil
	case earthc.Ne:
		return b2i(x != y), nil
	}
	return 0, fmt.Errorf("bad int op %v", op)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
