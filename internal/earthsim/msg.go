package earthsim

import (
	"math"
	"slices"

	"repro/internal/threaded"
	"repro/internal/trace"
)

// msg is one split-phase message moving through the machine. Instead of a
// chain of heap-allocated closures (one per SU/network hop), a message is a
// single pooled record advanced through numbered lifecycle stages by
// msgAdvance:
//
//	issue:   request queued on the issuing node's SU          (stage 1 next)
//	stage 1: SU done — request crosses the network            (stage 2 next)
//	stage 2: arrived — queued on the serviced node's SU       (stage 3 next)
//	stage 3: serviced — memory effect; reply crosses back     (stage 4 next)
//	stage 4: reply arrived — queued on the issuing node's SU  (stage 5 next)
//	stage 5: delivered — frame slot filled / write acked
//
// ClassRPC and ClassReply messages are one-way: they terminate at stage 3
// (the callee fiber is spawned / the return value lands at the requester).
//
// The schedule() call sequence is hop-for-hop identical to the old closure
// chains, so event sequence numbers — and with them the (time, seq) total
// order and every simulated Result — are bit-identical to the unpooled
// implementation.
type msg struct {
	class   trace.Class
	stage   int              // stage the next scheduled event will run
	f       *fiber           // fiber to fill/ack on completion (RPC: the requester)
	src     *node            // issuing node
	dst     *node            // serviced node
	off     int64            // serviced node's memory offset
	abs     int64            // issuing fiber's absolute fill slot (RPC/Reply: ret slot, -1 void)
	val     int64            // scalar payload (Put value, Get/Alloc/Shared result, Reply value)
	op      int              // shared op: 0 read, 1 write, 2 add
	flt     bool             // shared add on float bits
	size    int              // block payload words / remote allocation size
	mid     int64            // trace message id (0 when tracing is off)
	seq     uint64           // reliable-messaging transaction number (fault mode)
	lseq    uint64           // per-(src,dst)-link request order (fault mode)
	attempt int              // transmission attempt this copy belongs to (fault mode)
	copy    uint8            // duplication label: bit s set where an ancestor hop at stage s duplicated (fault mode)
	fn      *threaded.FnCode // RPC callee
	args    []int64          // RPC arguments (capacity retained across reuse)
	vals    []int64          // block payload (capacity retained across reuse)
	free    *msg             // freelist link
}

// msgLabels names each hop per class for the trace sink, indexed by the
// stage being scheduled (stage-1): SU request, forward wire, SU service,
// backward wire, SU reply.
var msgLabels = [trace.ClassShared + 1][5]string{
	trace.ClassGet:    {"get.req", "get", "get.svc", "get.reply", "get.reply"},
	trace.ClassPut:    {"put.req", "put", "put.svc", "put.ack", "put.ack"},
	trace.ClassBlkGet: {"blkget.req", "blkget", "blkget.svc", "blkget.reply", "blkget.reply"},
	trace.ClassBlkPut: {"blkput.req", "blkput", "blkput.svc", "blkput.ack", "blkput.ack"},
	trace.ClassAlloc:  {"alloc.req", "alloc", "alloc.svc", "alloc.reply", "alloc.reply"},
	trace.ClassRPC:    {"rpc.req", "rpc", "rpc.svc", "rpc.ack", "rpc.ack"},
	trace.ClassReply:  {"reply.req", "reply", "reply.svc", "reply.ack", "reply.ack"},
	trace.ClassShared: {"shared.req", "shared", "shared.svc", "shared.reply", "shared.reply"},
}

// getMsg takes a message record off the freelist (or allocates one),
// retaining the args/vals buffer capacity of its previous life.
func (m *Machine) getMsg() *msg {
	g := m.msgFree
	if g == nil {
		return &msg{}
	}
	m.msgFree = g.free
	g.free = nil
	return g
}

// putMsg clears a completed message and returns it to the freelist. Only
// terminal lifecycle steps may call this — the record must not be reachable
// from any scheduled event.
func (m *Machine) putMsg(g *msg) {
	args, vals := g.args[:0], g.vals[:0]
	*g = msg{args: args, vals: vals, free: m.msgFree}
	m.msgFree = g
}

// suSched queues the message's next hop on a node's SU: the SU is a serial
// resource, so the hop completes at max(suFree, t) + svc. The caller sets
// g.stage to the hop being scheduled first. Trace spans never influence the
// schedule. In fault mode the SU may first stall, pushing its free time.
func (m *Machine) suSched(n *node, t, svc int64, g *msg) {
	if m.flt != nil && m.chance(g, n, drawStall, m.flt.Stall) {
		m.fstats.Stalls++
		m.tr.Fault(trace.FaultStall, g.class, g.mid, n.id, 0, t)
		n.suFree = max(n.suFree, t) + m.flt.stallNs()
	}
	start := max(n.suFree, t)
	done := start + svc
	n.suFree = done
	m.tr.SUSpan(n.id, msgLabels[g.class][g.stage-1], g.mid, t, start, done)
	m.schedule(done, evSUEffect, n.id, g)
}

// netSched sends the message's next hop over the point-to-point link:
// per-message latency plus per-word transfer time, FIFO per (src, dst)
// pair. The traced span covers send to arrival (wire time plus queuing).
//
// In fault mode the hop runs the injection gauntlet: drop, delay and
// duplicate, each decided by its own keyed draw. A dropped hop vanishes
// without advancing the link's FIFO clock; a duplicated hop delivers a
// cloned copy one ns behind the original on the same link, labelled with
// this hop's stage so its later hops draw apart from the original's.
func (m *Machine) netSched(src, dst *node, t int64, words int, g *msg) {
	lat := m.cfg.NetLatency + m.cfg.NetPerWord*int64(words)
	var dup *msg
	if m.flt != nil {
		f := m.flt
		drop := m.chance(g, src, drawDrop, f.Drop)
		if dropLog != nil {
			dropLog(hopKey{g.seq, g.attempt, g.stage, g.copy}, drop)
		}
		if drop {
			m.fstats.Drops++
			m.tr.Fault(trace.FaultDrop, g.class, g.mid, src.id, 0, t)
			m.putMsg(g)
			return
		}
		if f.Delay > 0 {
			if extra := int64(m.draw(g, src, drawDelay) % uint64(f.Delay+1)); extra > 0 {
				m.fstats.Delayed++
				lat += extra * m.cfg.NetLatency
			}
		}
		if m.chance(g, src, drawDup, f.Dup) {
			m.fstats.Dups++
			m.tr.Fault(trace.FaultDup, g.class, g.mid, src.id, 0, t)
			dup = m.cloneMsg(g)
			dup.copy |= 1 << g.stage
		}
	}
	arrive := t + lat
	if arrive <= src.netLast[dst.id] {
		arrive = src.netLast[dst.id] + 1
	}
	src.netLast[dst.id] = arrive
	m.tr.NetSpan(src.id, dst.id, msgLabels[g.class][g.stage-1], g.mid, words, t, arrive)
	m.schedule(arrive, evNetArrive, dst.id, g)
	if dup != nil {
		arrive++
		src.netLast[dst.id] = arrive
		m.tr.NetSpan(src.id, dst.id, msgLabels[dup.class][dup.stage-1], dup.mid, words, t, arrive)
		m.schedule(arrive, evNetArrive, dst.id, dup)
	}
}

// netWords is the wire payload of the request (fwd) or reply (back) leg.
func (g *msg) netWords(back bool) int {
	switch g.class {
	case trace.ClassGet, trace.ClassAlloc:
		if back {
			return 1
		}
		return 0
	case trace.ClassPut:
		if back {
			return 0
		}
		return 1
	case trace.ClassBlkGet:
		if back {
			return g.size
		}
		return 0
	case trace.ClassBlkPut:
		if back {
			return 0
		}
		return g.size
	case trace.ClassShared:
		return 1
	case trace.ClassRPC:
		if back {
			return 0 // ack leg (fault mode only)
		}
		return len(g.args)
	case trace.ClassReply:
		if back {
			return 0 // ack leg (fault mode only)
		}
		return 1
	}
	return 0
}

// svcRemote is the serviced node's SU cost (stage 3).
func (m *Machine) svcRemote(g *msg) int64 {
	switch g.class {
	case trace.ClassPut:
		return m.cfg.SUWriteSvc
	case trace.ClassBlkGet, trace.ClassBlkPut:
		return m.cfg.SUBlockSvc
	case trace.ClassShared:
		return m.cfg.SUShared
	}
	return m.cfg.SUService
}

// svcReply is the issuing node's SU cost for the reply/ack (stage 5).
func (m *Machine) svcReply(g *msg) int64 {
	switch g.class {
	case trace.ClassPut, trace.ClassBlkPut, trace.ClassShared:
		return m.cfg.SUAck
	case trace.ClassBlkGet:
		return m.cfg.SUBlock + m.cfg.SUBlockWord*int64(g.size-1)
	case trace.ClassRPC, trace.ClassReply:
		return m.cfg.SUAck // protocol ack leg (fault mode only)
	}
	return m.cfg.SUService
}

// msgAdvance runs the lifecycle step the popped event scheduled.
func (m *Machine) msgAdvance(g *msg, t int64) {
	switch g.stage {
	case 1: // request left the issuing SU; forward over the wire
		g.stage = 2
		m.netSched(g.src, g.dst, t, g.netWords(false), g)
	case 2: // request arrived; queue on the serviced node's SU
		g.stage = 3
		m.suSched(g.dst, t, m.svcRemote(g), g)
	case 3: // serviced: apply the memory effect, send the reply
		m.msgService(g, t)
	case 4: // reply arrived; queue on the issuing node's SU
		g.stage = 5
		m.suSched(g.src, t, m.svcReply(g), g)
	case 5: // delivered
		m.msgComplete(g, t)
	}
}

// msgService applies the serviced node's memory effect (stage 3) and, for
// round-trip classes, sends the reply. Without a fault model RPC and Reply
// terminate here (one-way); with one they continue into an ack leg, and
// duplicate request copies skip the effect, replaying the cached reply
// instead (exactly-once semantics for non-idempotent effects like
// allocation, shared-add and fiber spawn).
func (m *Machine) msgService(g *msg, t int64) {
	dstID := g.dst.id
	if m.flt != nil {
		if c, dup := m.seen[g.seq]; dup {
			m.fstats.DupSuppressed++
			m.tr.Fault(trace.FaultDupSuppress, g.class, g.mid, dstID, 0, t)
			g.val = c.val
			g.vals = append(g.vals[:0], c.vals...)
			g.stage = 4
			m.netSched(g.dst, g.src, t, g.netWords(true), g)
			return
		}
		// In-order delivery: a request that arrives ahead of a gap in its
		// link's sequence (an earlier request was dropped and is still being
		// retried) parks in the reorder buffer; the gap-filler drains it.
		key := linkKey(g.src, g.dst)
		if g.lseq != m.linkExpect[key] {
			pos := linkPos{key, g.lseq}
			if _, held := m.linkHold[pos]; held {
				// A duplicate copy of an already-parked request.
				m.fstats.DupSuppressed++
				m.tr.Fault(trace.FaultDupSuppress, g.class, g.mid, dstID, 0, t)
				m.putMsg(g)
			} else {
				m.linkHold[pos] = g
			}
			return
		}
	}
	switch g.class {
	case trace.ClassGet:
		g.val = m.memWord(dstID, g.off)
	case trace.ClassPut:
		m.memStore(dstID, g.off, g.val)
	case trace.ClassBlkGet:
		g.vals = m.readBlock(g.dst, g.off, g.size, g.vals[:0])
	case trace.ClassBlkPut:
		m.writeBlock(g.dst, g.off, g.vals)
	case trace.ClassAlloc:
		base := g.dst.allocWords(g.size)
		if base < 0 {
			m.trapf("node %d out of memory for a remote allocation", dstID)
			return
		}
		g.val = threaded.PackAddr(dstID, base)
	case trace.ClassShared:
		switch g.op {
		case 0:
			g.val = m.memWord(dstID, g.off)
		case 1:
			m.memStore(dstID, g.off, g.val)
		case 2:
			old := m.memWord(dstID, g.off)
			if g.flt {
				sum := math.Float64frombits(uint64(old)) + math.Float64frombits(uint64(g.val))
				m.memStore(dstID, g.off, int64(math.Float64bits(sum)))
			} else {
				m.memStore(dstID, g.off, old+g.val)
			}
		}
	case trace.ClassRPC:
		child := m.newFiber(dstID, g.fn, g.args, replyRoute{
			kind: 2, rpcNode: g.src.id, rpcFiber: g.f, rpcSlot: int(g.abs),
		})
		m.enqueueReady(g.dst, child, t)
		if m.flt == nil {
			m.tr.MsgDone(g.mid, t)
			m.putMsg(g)
			return
		}
	case trace.ClassReply:
		if g.abs >= 0 {
			m.fill(g.f, g.abs, g.val, t)
		} else {
			m.ack(g.f, t)
		}
		if m.flt == nil {
			m.tr.MsgDone(g.mid, t)
			m.putMsg(g)
			return
		}
	}
	if m.flt != nil {
		c := svcCache{val: g.val}
		if len(g.vals) > 0 {
			c.vals = append([]int64(nil), g.vals...)
		}
		m.seen[g.seq] = c
		// This service filled the link's sequence gap; if its successor is
		// already parked in the reorder buffer, queue it on the SU (full
		// service cost). Each drained request drains the next in turn.
		key := linkKey(g.src, g.dst)
		m.linkExpect[key]++
		pos := linkPos{key, m.linkExpect[key]}
		if held, ok := m.linkHold[pos]; ok {
			delete(m.linkHold, pos)
			m.suSched(g.dst, t, m.svcRemote(held), held)
		}
	}
	g.stage = 4
	m.netSched(g.dst, g.src, t, g.netWords(true), g)
}

// msgComplete delivers the reply into the issuing fiber (stage 5). In fault
// mode this is the sender-side end of the transaction: the first reply copy
// completes it (delivering exactly once) and later copies are discarded.
func (m *Machine) msgComplete(g *msg, t int64) {
	if m.flt != nil {
		tx := m.txns[g.seq]
		if tx == nil || tx.done {
			m.fstats.DupSuppressed++
			m.tr.Fault(trace.FaultDupSuppress, g.class, g.mid, g.src.id, 0, t)
			m.putMsg(g)
			return
		}
		m.finishTxn(tx, t, g.attempt)
	}
	switch g.class {
	case trace.ClassGet, trace.ClassAlloc:
		m.fill(g.f, g.abs, g.val, t)
	case trace.ClassBlkGet:
		m.fillBlock(g.f, g.abs, g.vals, t)
	case trace.ClassPut, trace.ClassBlkPut:
		m.ack(g.f, t)
	case trace.ClassShared:
		if g.op == 0 {
			m.fill(g.f, g.abs, g.val, t)
		} else {
			m.ack(g.f, t)
		}
		// ClassRPC/ClassReply acks carry no payload: the semantic effect
		// happened at stage 3, exactly once; completing the txn is all.
	}
	m.tr.MsgDone(g.mid, t)
	m.putMsg(g)
}

// memWord accesses a word of any node's memory (SU-side).
func (m *Machine) memWord(nid int, off int64) int64 {
	n := m.nodes[nid]
	if !n.ensure(off, 1) {
		m.trapf("node %d access beyond its memory budget", nid)
		return 0
	}
	return n.mem[off]
}

func (m *Machine) memStore(nid int, off int64, v int64) {
	n := m.nodes[nid]
	if !n.ensure(off, 1) {
		m.trapf("node %d store beyond its memory budget", nid)
		return
	}
	n.mem[off] = v
}

// readBlock copies size words out of a node's memory into a reused buffer.
func (m *Machine) readBlock(n *node, off int64, size int, into []int64) []int64 {
	if !n.ensure(off, size) {
		m.trapf("node %d block read beyond its memory budget", n.id)
		for i := 0; i < size; i++ {
			into = append(into, 0)
		}
		return into
	}
	return append(into, n.mem[off:off+int64(size)]...)
}

func (m *Machine) writeBlock(n *node, off int64, vals []int64) {
	if !n.ensure(off, len(vals)) {
		m.trapf("node %d block write beyond its memory budget", n.id)
		return
	}
	copy(n.mem[off:off+int64(len(vals))], vals)
}

// block parks a fiber on a pending memory word; it resumes when the word's
// fill arrives.
func (m *Machine) block(f *fiber, abs int64) {
	f.waitSlot = abs
	m.park(f)
	n := f.node
	n.pending[abs] |= hasWaiter
	ws := n.waiters[abs]
	if slices.Contains(ws, f) {
		return
	}
	if ws == nil && len(n.waitFree) > 0 {
		ws = n.waitFree[len(n.waitFree)-1]
		n.waitFree = n.waitFree[:len(n.waitFree)-1]
	}
	n.waiters[abs] = append(ws, f)
}

// fill delivers a value into a pending frame slot and, once no fills
// remain outstanding for the word, wakes every fiber blocked on it.
func (m *Machine) fill(f *fiber, abs int64, v int64, t int64) {
	n := f.node
	n.mem[abs] = v
	if i, ok := slices.BinarySearch(f.pending, abs); ok {
		f.pending = slices.Delete(f.pending, i, i+1)
	}
	c := n.pending[abs]
	if c&^hasWaiter > 1 {
		n.pending[abs] = c - 1
		return
	}
	// The last fill — or a duplicate, which finds the count already zero and
	// must leave it there.
	n.pending[abs] = 0
	if c&hasWaiter != 0 {
		m.wakeWaiters(n, abs, t)
	}
}

func (m *Machine) fillBlock(f *fiber, abs int64, vals []int64, t int64) {
	for i, v := range vals {
		m.fill(f, abs+int64(i), v, t)
	}
}

// wakeWaiters resumes fibers blocked on a just-filled word, in the order they
// blocked, and gives the emptied list back to node.waitFree.
func (m *Machine) wakeWaiters(n *node, abs int64, t int64) {
	ws := n.waiters[abs]
	delete(n.waiters, abs)
	for _, f := range ws {
		if f.done {
			continue
		}
		f.waitSlot = -1
		m.enqueueReady(n, f, t)
	}
	clear(ws)
	n.waitFree = append(n.waitFree, ws[:0])
}

// ack resolves one outstanding write/void-RPC and wakes a fenced fiber.
func (m *Machine) ack(f *fiber, t int64) {
	f.outstanding--
	if f.waitFence && f.outstanding == 0 {
		f.waitFence = false
		m.enqueueReady(f.node, f, t)
	}
}

// ------------------------------------------------------------- operations ---

// issueGet starts a split-phase scalar read of mem[addr] into frame slot
// abs of fiber f. site is the issuing instruction's SIMPLE site key (trace
// attribution only).
func (m *Machine) issueGet(f *fiber, t int64, addr, abs int64, site string) {
	src := f.node
	dstID := threaded.AddrNode(addr)
	if dstID < 0 || dstID >= len(m.nodes) {
		m.trapf("get: bad address node %d", dstID)
		return
	}
	if dstID == src.id {
		// Pseudo-remote: the runtime detects the local address and the EU
		// completes the access in place — no SU, no split phase. (The
		// paper's Table III shows 1-processor EARTH-C times tracking the
		// sequential baseline, so local-address operations must be cheap.)
		m.counts.LocalReads++
		f.node.mem[abs] = m.memWord(dstID, threaded.AddrOff(addr))
		return
	}
	f.addPending(abs)
	m.counts.RemoteReads++
	g := m.getMsg()
	g.class, g.f, g.src, g.dst = trace.ClassGet, f, src, m.nodes[dstID]
	g.off, g.abs = threaded.AddrOff(addr), abs
	g.mid = m.tr.MsgIssue(trace.ClassGet, site, src.id, dstID, f.id, 1, t)
	m.sendMsg(g, t, m.cfg.SUService)
}

// issuePut starts a split-phase scalar write.
func (m *Machine) issuePut(f *fiber, t int64, addr, val int64, site string) {
	src := f.node
	dstID := threaded.AddrNode(addr)
	if dstID < 0 || dstID >= len(m.nodes) {
		m.trapf("put: bad address node %d", dstID)
		return
	}
	if dstID == src.id {
		// Pseudo-remote write: completed in place by the EU.
		m.counts.LocalWrites++
		m.memStore(dstID, threaded.AddrOff(addr), val)
		return
	}
	f.outstanding++
	m.counts.RemoteWrites++
	g := m.getMsg()
	g.class, g.f, g.src, g.dst = trace.ClassPut, f, src, m.nodes[dstID]
	g.off, g.val = threaded.AddrOff(addr), val
	g.mid = m.tr.MsgIssue(trace.ClassPut, site, src.id, dstID, f.id, 1, t)
	m.sendMsg(g, t, m.cfg.SUService)
}

// issueBlkGet starts a split-phase block read of size words.
func (m *Machine) issueBlkGet(f *fiber, t int64, addr, abs int64, size int, site string) {
	src := f.node
	dstID := threaded.AddrNode(addr)
	if dstID < 0 || dstID >= len(m.nodes) {
		m.trapf("blkmov: bad address node %d", dstID)
		return
	}
	m.counts.BlkWords += int64(size)
	if dstID == src.id {
		// Pseudo-remote block move: an EU-side memcpy.
		m.counts.LocalBlk++
		m.scratch = m.readBlock(m.nodes[dstID], threaded.AddrOff(addr), size, m.scratch[:0])
		copy(src.mem[abs:abs+int64(size)], m.scratch)
		return
	}
	for i := 0; i < size; i++ {
		f.addPending(abs + int64(i))
	}
	m.counts.RemoteBlk++
	g := m.getMsg()
	g.class, g.f, g.src, g.dst = trace.ClassBlkGet, f, src, m.nodes[dstID]
	g.off, g.abs, g.size = threaded.AddrOff(addr), abs, size
	g.mid = m.tr.MsgIssue(trace.ClassBlkGet, site, src.id, dstID, f.id, size, t)
	m.sendMsg(g, t, m.cfg.SUBlock)
}

// issueBlkPut starts a split-phase block write. vals may be a scratch
// buffer: its contents are consumed (copied) before issueBlkPut returns.
func (m *Machine) issueBlkPut(f *fiber, t int64, addr int64, vals []int64, site string) {
	src := f.node
	dstID := threaded.AddrNode(addr)
	if dstID < 0 || dstID >= len(m.nodes) {
		m.trapf("blkmov: bad address node %d", dstID)
		return
	}
	size := len(vals)
	m.counts.BlkWords += int64(size)
	if dstID == src.id {
		m.counts.LocalBlk++
		m.writeBlock(m.nodes[dstID], threaded.AddrOff(addr), vals)
		return
	}
	f.outstanding++
	m.counts.RemoteBlk++
	g := m.getMsg()
	g.class, g.f, g.src, g.dst = trace.ClassBlkPut, f, src, m.nodes[dstID]
	g.off, g.size = threaded.AddrOff(addr), size
	g.vals = append(g.vals[:0], vals...)
	g.mid = m.tr.MsgIssue(trace.ClassBlkPut, site, src.id, dstID, f.id, size, t)
	m.sendMsg(g, t, m.cfg.SUBlock+m.cfg.SUBlockWord*int64(size-1))
}

// issueAlloc performs a remote allocation, delivering the address into a
// pending slot.
func (m *Machine) issueAlloc(f *fiber, t int64, nodeID, size int, abs int64, site string) {
	src := f.node
	f.addPending(abs)
	g := m.getMsg()
	g.class, g.f, g.src, g.dst = trace.ClassAlloc, f, src, m.nodes[nodeID]
	g.abs, g.size = abs, size
	g.mid = m.tr.MsgIssue(trace.ClassAlloc, site, src.id, nodeID, f.id, 1, t)
	m.sendMsg(g, t, m.cfg.SUService)
}

// issueInvoke performs a remote function invocation (the placed-call
// mechanism behind @OWNER_OF / @ON). The message completes when the callee
// fiber has been placed on the remote node's ready queue; the reply to the
// requester is a separate ClassReply message (see finishFiber). args may be
// a scratch buffer: its contents are copied before issueInvoke returns.
func (m *Machine) issueInvoke(f *fiber, t int64, nodeID int, fn *threaded.FnCode,
	args []int64, retAbs int64, site string) {
	src := f.node
	g := m.getMsg()
	g.class, g.f, g.src, g.dst = trace.ClassRPC, f, src, m.nodes[nodeID]
	g.fn, g.abs = fn, retAbs
	g.args = append(g.args[:0], args...)
	g.mid = m.tr.MsgIssue(trace.ClassRPC, site, src.id, nodeID, f.id, len(args), t)
	m.sendMsg(g, t, m.cfg.SUService)
}

// issueShared performs a remote atomic shared-variable operation.
// op: 0 read, 1 write, 2 add.
func (m *Machine) issueShared(f *fiber, t int64, addr int64, op int, val int64,
	replyAbs int64, flt bool, site string) {
	src := f.node
	dstID := threaded.AddrNode(addr)
	if dstID < 0 || dstID >= len(m.nodes) {
		m.trapf("shared op: bad address node %d", dstID)
		return
	}
	g := m.getMsg()
	g.class, g.f, g.src, g.dst = trace.ClassShared, f, src, m.nodes[dstID]
	g.off, g.abs, g.op, g.val, g.flt = threaded.AddrOff(addr), replyAbs, op, val, flt
	g.mid = m.tr.MsgIssue(trace.ClassShared, site, src.id, dstID, f.id, 1, t)
	m.sendMsg(g, t, m.cfg.SUService)
}

// finishFiber completes a fiber: frees its frame (unless shared) and
// reports to its waiter.
func (m *Machine) finishFiber(f *fiber, t int64, val int64) {
	f.done = true
	m.live--
	n := f.node
	switch f.route.kind {
	case 0: // main
		m.mainDone = true
		m.mainRet = val
		m.mainTime = t
		n.freeFrame(f.base, f.size)
	case 1: // joined child
		if !f.code.IsArm {
			n.freeFrame(f.base, f.size)
		}
		p := f.route.parent
		p.children--
		if p.waitJoin && p.children == 0 {
			p.waitJoin = false
			m.enqueueReady(p.node, p, t)
		}
	case 2: // remote invocation: reply to the requester
		n.freeFrame(f.base, f.size)
		g := m.getMsg()
		g.class, g.f, g.src, g.dst = trace.ClassReply, f.route.rpcFiber, n, m.nodes[f.route.rpcNode]
		g.abs, g.val = int64(f.route.rpcSlot), val
		g.mid = m.tr.MsgIssue(trace.ClassReply, f.code.Name, n.id, g.dst.id, f.id, 1, t+m.cfg.EUIssue)
		m.sendMsg(g, t+m.cfg.EUIssue, m.cfg.SUService)
	}
	m.recycleFiber(f)
}
