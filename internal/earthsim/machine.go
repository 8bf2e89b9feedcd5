// Package earthsim is a discrete-event simulator of the EARTH-MANNA
// distributed-memory multiprocessor (Hum et al.), the paper's experimental
// platform. Each node pairs an Execution Unit (EU) that runs fibers of
// threaded code with a Synchronization Unit (SU) that services remote
// memory requests, and nodes are joined by a point-to-point network with
// per-link FIFO delivery. Remote memory operations are split-phase: the EU
// issues a request and continues; the consuming instruction synchronizes on
// the reply through presence bits on frame slots.
//
// The cost model is calibrated so the microbenchmarks of cmd/paperbench
// reproduce the paper's Table I (sequential remote read ~7109 ns, pipelined
// ~1908 ns, blkmov word ~9700/2602 ns). The selection phase uses the
// paper's empirically-determined threshold of three words for blocking.
package earthsim

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/threaded"
	"repro/internal/trace"
)

// Config describes the simulated machine. All costs are in nanoseconds.
type Config struct {
	Nodes int

	InstrCost    int64 // EU cost of an ordinary instruction
	LocalMemCost int64 // direct local memory access (local pointers)
	LocalRTCost  int64 // runtime op whose target turns out local: the EU
	//                    checks the address and completes it in place
	//                    (pseudo-remote; justified by the paper's Table III,
	//                    where 1-processor simple times track sequential)
	LocalRTWord      int64 // per-word cost of a local block operation
	CtxSwitch        int64 // EU cost to switch to another fiber
	EUIssue          int64 // EU cost to hand a remote operation to the SU
	CallCost         int64 // EU cost of a local call (frame setup)
	SpawnCost        int64 // EU cost to spawn a fiber
	FrameCopyPerWord int64 // extra spawn cost per copied frame word
	AllocCost        int64 // EU cost of a local heap allocation

	SUService   int64 // SU handling of a scalar request/reply message
	SUAck       int64 // SU handling of a write acknowledgement
	SUWriteSvc  int64 // remote SU servicing of a scalar write
	SUBlock     int64 // SU handling of a block request message
	SUBlockSvc  int64 // remote SU servicing of a block request
	SUBlockWord int64 // extra SU cost per block payload word beyond the first
	SUShared    int64 // SU cost of an atomic shared-variable operation

	NetLatency int64 // wire latency per message
	NetPerWord int64 // per payload word on the wire

	// MaxEvents bounds the simulation (0 = default 500M).
	MaxEvents int64
	// MaxFiberInstr bounds instructions per fiber, catching infinite loops
	// in guest programs (0 = default 2G).
	MaxFiberInstr int64
	// MaxNodeWords bounds each node's memory, catching runaway guest
	// allocation before it exhausts the host (0 = default 16M words,
	// i.e. 128 MiB per node).
	MaxNodeWords int64
	// Fuel bounds total EU instructions across all nodes (0 = unlimited);
	// exceeding it returns an error wrapping ErrFuelExhausted. The machine
	// checks its total every limitCheckInterval instructions, whichever
	// node executes them, so a run stops within limitCheckInterval
	// instructions past Fuel.
	Fuel int64

	// Faults, when non-nil, switches the machine to the lossy transport +
	// reliable-messaging protocol (see fault.go). Nil costs nothing.
	Faults *FaultConfig

	// SimWorkers is ignored: the machine has one event loop, which runs
	// on the caller's goroutine.
	//
	// Deprecated: kept only so existing callers still compile.
	SimWorkers int
}

// DefaultConfig returns the calibrated EARTH-MANNA model.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:            nodes,
		InstrCost:        25,
		LocalMemCost:     50,
		LocalRTCost:      350,
		LocalRTWord:      12,
		CtxSwitch:        300,
		EUIssue:          200,
		CallCost:         200,
		SpawnCost:        400,
		FrameCopyPerWord: 8,
		AllocCost:        150,
		SUService:        950,
		SUAck:            799,
		SUWriteSvc:       449,
		SUBlock:          1300,
		SUBlockSvc:       2590,
		SUBlockWord:      160,
		SUShared:         600,
		NetLatency:       1800,
		NetPerWord:       160,
	}
}

// Counts are dynamic communication-operation counters, the data behind the
// paper's Figure 10.
type Counts struct {
	RemoteReads  int64 // scalar get operations to another node
	RemoteWrites int64 // scalar put operations to another node
	RemoteBlk    int64 // block moves to another node
	LocalReads   int64 // runtime gets that hit the local node (pseudo-remote)
	LocalWrites  int64
	LocalBlk     int64
	SharedOps    int64 // atomic shared-variable operations
	RPCs         int64 // remote function invocations
	Spawns       int64 // fibers spawned (arms + iterations)
	BlkWords     int64 // words moved by block operations
	Instructions int64 // EU instructions executed
	Allocs       int64
}

// TotalRemote counts the data communication ops whose target was on another
// node. Figure 10 also counts the pseudo-remote Local* ones.
func (c Counts) TotalRemote() int64 { return c.RemoteReads + c.RemoteWrites + c.RemoteBlk }

// String summarizes the counters.
func (c Counts) String() string {
	return fmt.Sprintf("reads=%d writes=%d blkmov=%d blkwords=%d (local rt: %d/%d/%d) shared=%d rpc=%d spawn=%d alloc=%d instr=%d",
		c.RemoteReads, c.RemoteWrites, c.RemoteBlk, c.BlkWords,
		c.LocalReads, c.LocalWrites, c.LocalBlk,
		c.SharedOps, c.RPCs, c.Spawns, c.Allocs, c.Instructions)
}

// Result is the outcome of a run.
type Result struct {
	Time    int64 // simulated ns until main completed
	Counts  Counts
	Output  string
	MainRet int64 // main's return value (raw bits)
	// Events counts dispatched simulator events — a host-side throughput
	// diagnostic (events/sec in benchmarks): message hops, EU runs and retry
	// timers. It is excluded from Visible because it follows timing, not
	// data flow.
	Events int64
	// Profile carries the per-site measurements of a profiled program
	// (prog.Profiled; see internal/profile), nil otherwise.
	Profile *profile.Data
	// Faults counts injected faults and retries, nil when Config.Faults
	// was nil.
	Faults *FaultStats
}

// Visible renders the program-visible outcome: output, main's return value,
// and the dynamic operation counts — excluding Time, Profile and Faults,
// which legitimately vary with the transport. The reliable-messaging
// invariant (locked in by tests) is that any run that completes under fault
// injection has a Visible value byte-identical to the fault-free run.
func (r *Result) Visible() string {
	// Instructions is excluded: a blocked instruction re-executes when its
	// operand's fill arrives, so the attempt count varies with timing (and
	// hence with injected faults) even though the data-flow semantics — every
	// issue counter, the output, the return value — do not. Time and Faults
	// are likewise timing, not semantics.
	c := r.Counts
	c.Instructions = 0
	return fmt.Sprintf("ret=%#x counts=[%s] output=%q", uint64(r.MainRet), c, r.Output)
}

// ------------------------------------------------------------------ events ---

type eventKind int

const (
	evEURun eventKind = iota
	evSUEffect
	evNetArrive
	evRetry // reliable-messaging retransmit timer (fault mode only)
)

// event is a scheduled simulator action, stored by value in the queue. An
// event with a message advances that message's lifecycle (msgAdvance); an
// evRetry fires a transaction's retransmit timer; anything else runs the
// node's EU.
type event struct {
	time int64
	seq  int64
	kind eventKind
	node int
	g    *msg
	tx   *txn
}

// eventQ is an inlined 4-ary min-heap of events ordered by (time, seq).
// seq is the machine-wide schedule counter, so the order is a total one:
// simultaneous events are served in the order they were scheduled, on any
// node, and heap arity and sift details cannot change simulation outcomes.
// Compared to container/heap this avoids the per-event box allocation and
// interface dispatch on the hot path.
type eventQ []event

func (q eventQ) less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q *eventQ) push(e event) {
	a := append(*q, e)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !a.less(i, p) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
	*q = a
}

func (q *eventQ) pop() event {
	a := *q
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = event{} // release the msg pointer
	a = a[:n]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		for j := c + 1; j < min(c+4, n); j++ {
			if a.less(j, best) {
				best = j
			}
		}
		if !a.less(best, i) {
			break
		}
		a[i], a[best] = a[best], a[i]
		i = best
	}
	*q = a
	return top
}

// ------------------------------------------------------------------- nodes ---

// frameClassMax bounds the dense per-size frame free-list table; frames are
// function-frame sized (a handful of words), so nearly every free/alloc hits
// the table and the map is a fallback for pathological frame sizes.
const frameClassMax = 256

type node struct {
	id       int
	maxWords int64
	// mem is the node's memory and pending its presence bits: pending[i]
	// counts the split-phase fills outstanding for mem[i] (node-level, so
	// fibers sharing a frame observe each other's fills), with hasWaiter set
	// while some fiber is blocked on the word. The two grow together (ensure)
	// over backing arrays from the machine's arena set.
	mem     []int64
	pending []int32
	arena   *arena // the pool record they (and freeSmall) came from
	heapTop int64
	// Frame free lists, by exact size class. freeSmall is a dense table
	// indexed by size (lazily allocated on the first free), freeBig catches
	// sizes ≥ frameClassMax. Both recycle exact sizes only, so reuse keeps
	// the bump allocator's zero-fill semantics.
	freeSmall [][]int64
	freeBig   map[int][]int64
	euFree    int64
	suFree    int64
	// euWake is true exactly while an evEURun for this node is queued or
	// being dispatched: a free EU takes the next ready fiber, so one pending
	// wake-up per node is enough however many fibers became ready.
	euWake bool
	// ready is the EU's fiber queue, consumed from readyAt so the backing
	// array is reused instead of reallocated on every enqueue/dequeue pair.
	ready   []*fiber
	readyAt int
	netLast []int64 // per-destination last scheduled arrival (FIFO)
	// waiters lists the fibers blocked per word; consulted only for words
	// whose pending counter carries hasWaiter. waitFree holds the emptied
	// lists wakeWaiters gave back, which block reuses.
	waiters  map[int64][]*fiber
	waitFree [][]*fiber
	// The node's id spaces, each advanced only by the node that acts, so no
	// id depends on how the nodes' events interleave: fibers it creates
	// (fiberID), its prints (tagged with the id in bits 40+) and the
	// transactions it sends (txnSeq, which keys the fault draws; fault.go).
	nextFiber int64
	outSeq    int64
	nextTxn   uint64
}

// hasWaiter flags a pending counter whose word some fiber is blocked on, so
// a fill that completes a word nobody waits for never touches node.waiters.
// A fiber only blocks on a word with fills outstanding and the flag goes
// when the count does, so "pending[i] > 0" is still the presence test.
const hasWaiter = 1 << 30

// arena is one node's backing arrays between runs. Invariant: every word of
// both arrays, through their capacity, is zero while the arena is in
// arenaPool — Run clears the prefix a run touched (len, which only ensure
// extends) before returning it, so a machine built from the pool starts from
// the same all-zero, all-present memory as one built from fresh arrays, and
// no job can read another's words.
type arena struct {
	mem       []int64
	pending   []int32
	freeSmall [][]int64 // the frame free-list table, every list emptied
}

// arenaSet is one machine's node arenas between runs, node i's at a[i]. A
// machine takes a whole set from arenaPool and gives it back whole, so every
// node gets back the arena its own index grew to, and a node that needs a
// large arena never inherits a small one another node left and regrows it.
// A set from a smaller machine is extended with fresh arenas; one from a
// larger machine keeps its extra arenas, untouched, for the next.
type arenaSet struct{ a []*arena }

var arenaPool = sync.Pool{New: func() any { return new(arenaSet) }}

// arenaMaxWords caps the arenas the pool retains (8 MiB of memory plus 4 MiB
// of presence counters): a job that grew a node toward MaxNodeWords must not
// pin that much for the life of the process.
const arenaMaxWords = 1 << 20

// releaseArenas clears the nodes' memory and returns the machine's arena set
// to arenaPool; every exit of Run calls it, after the last read of node
// state. A node grown past arenaMaxWords leaves an empty arena in the set.
func (m *Machine) releaseArenas() {
	for _, n := range m.nodes {
		if cap(n.mem) <= arenaMaxWords {
			clear(n.mem)
			clear(n.pending)
			for i := range n.freeSmall {
				n.freeSmall[i] = n.freeSmall[i][:0]
			}
			*n.arena = arena{n.mem[:0], n.pending[:0], n.freeSmall}
		} else {
			*n.arena = arena{}
		}
		n.mem, n.pending, n.freeSmall, n.arena = nil, nil, nil, nil
	}
	arenaPool.Put(m.arenas)
	m.arenas = nil
}

// ensure grows the node's memory to cover [off, off+size); it reports
// whether the node is within its memory budget (the caller traps if not).
func (n *node) ensure(off int64, size int) bool {
	need := off + int64(size)
	if n.maxWords > 0 && need > n.maxWords {
		return false
	}
	if have := int64(len(n.mem)); have < need {
		size := max(need, have+1024)
		n.mem, n.pending = growZero(n.mem, size), growZero(n.pending, size)
	}
	return true
}

// growZero returns a extended to size elements, the new ones zero: in place
// when the capacity allows (an arena is zero through its capacity), else in a
// new array of at least twice the capacity.
func growZero[T any](a []T, size int64) []T {
	if size <= int64(cap(a)) {
		return a[:size]
	}
	b := make([]T, size, max(size, 2*int64(cap(a))))
	copy(b, a)
	return b
}

func (n *node) readyLen() int { return len(n.ready) - n.readyAt }

func (n *node) popReady() *fiber {
	f := n.ready[n.readyAt]
	f.queued--
	n.ready[n.readyAt] = nil
	n.readyAt++
	if n.readyAt == len(n.ready) {
		n.ready = n.ready[:0]
		n.readyAt = 0
	}
	return f
}

// allocWords bump-allocates; returns -1 when the node's memory budget is
// exhausted (callers trap).
func (n *node) allocWords(size int) int64 {
	base := n.heapTop
	if !n.ensure(base, size) {
		return -1
	}
	n.heapTop += int64(size)
	// Zero (frames may be reused).
	for i := int64(0); i < int64(size); i++ {
		n.mem[base+i] = 0
	}
	return base
}

func (n *node) allocFrame(size int) int64 {
	var lst []int64
	if size < len(n.freeSmall) {
		lst = n.freeSmall[size]
	} else {
		lst = n.freeBig[size]
	}
	if len(lst) > 0 {
		base := lst[len(lst)-1]
		if size < len(n.freeSmall) {
			n.freeSmall[size] = lst[:len(lst)-1]
		} else {
			n.freeBig[size] = lst[:len(lst)-1]
		}
		for i := 0; i < size; i++ {
			n.mem[base+int64(i)] = 0
		}
		return base
	}
	return n.allocWords(size)
}

func (n *node) freeFrame(base int64, size int) {
	if size < frameClassMax {
		if n.freeSmall == nil {
			n.freeSmall = make([][]int64, frameClassMax)
		}
		n.freeSmall[size] = append(n.freeSmall[size], base)
		return
	}
	if n.freeBig == nil {
		n.freeBig = make(map[int][]int64)
	}
	n.freeBig[size] = append(n.freeBig[size], base)
}

// ------------------------------------------------------------------ fibers ---

type frameRec struct {
	code    *threaded.FnCode
	pc      int
	base    int64
	size    int
	retSlot int
}

// replyRoute describes where a fiber's completion must be reported.
type replyRoute struct {
	kind     int // 0 none (main), 1 local join (parent), 2 remote RPC
	parent   *fiber
	rpcNode  int // requester node
	rpcFiber *fiber
	rpcSlot  int // -1 for void: counts against outstanding instead
}

type fiber struct {
	id    int64
	node  *node
	code  *threaded.FnCode
	pc    int
	base  int64
	size  int
	stack []frameRec

	// pending lists the absolute offset (base+slot) of every fill this fiber
	// has outstanding, ascending, one entry per fill; most fibers never issue
	// a split-phase read and the rest hold a handful.
	pending   []int64
	waitSlot  int64 // absolute offset blocked on (-1 none)
	waitFence bool
	waitJoin  bool

	outstanding int // unacked writes + void RPC completions
	children    int

	route  replyRoute
	done   bool
	ninstr int64
	// queued counts the fiber's entries in its node's ready queue: a fiber
	// blocked on two words of one instruction is woken by each fill, and
	// the first wake-up may run it to completion before the second entry
	// is taken (see runEU).
	queued int

	// parkListed/parkNext thread the fiber onto the machine's intrusive
	// blocked-fiber list the first time it blocks (see park). The linkage
	// survives recycling: a reused fiber record is already parked, which is
	// exactly what lazy deletion expects.
	parkListed bool
	parkNext   *fiber

	// freeNext links the record into the machine's fiber freelist between
	// lives (see getFiber/recycleFiber).
	freeNext *fiber
}

// blocked reports whether the fiber is parked on a frame word — in execFiber,
// whether an operand read of the current instruction just blocked it.
func (f *fiber) blocked() bool { return f.waitSlot >= 0 }

// addPending registers an outstanding fill for an absolute frame offset, on
// the fiber and on its node's presence counter.
func (f *fiber) addPending(abs int64) {
	i := len(f.pending)
	for i > 0 && f.pending[i-1] > abs {
		i--
	}
	f.pending = slices.Insert(f.pending, i, abs)
	f.node.pending[abs]++
}

// ----------------------------------------------------------------- machine ---

type outItem struct {
	time int64
	seq  int64
	text string
}

// Machine is a loaded simulator instance: the nodes, the one event queue
// they all schedule into (see Run), and the run's machine-wide state.
// Besides its EU and SU, a node keeps only its id spaces and fault stream;
// everything else a run accumulates — counts, output, freelists, the
// blocked-fiber list, the reliable-messaging maps — lives here once.
type Machine struct {
	cfg   Config
	prog  *threaded.Program
	nodes []*node
	// arenas holds the nodes' arenas from New until Run's exit hands them
	// back to arenaPool.
	arenas *arenaSet
	prof   *profile.Data   // non-nil when prog.Profiled
	tr     *trace.Recorder // nil: tracing disabled (the common case)

	events  eventQ
	seq     int64 // events scheduled so far: the tiebreak of equal times
	now     int64 // time of the event being dispatched
	nEvents int64 // events dispatched so far
	live    int64 // fibers created and not yet finished

	counts        Counts
	output        []outItem
	mainDone      bool
	mainRet       int64
	mainTime      int64
	trap          error
	maxFiberInstr int64
	msgFree       *msg    // freelist of message records (see getMsg/putMsg)
	fiberFree     *fiber  // freelist of fiber records (see getFiber/recycleFiber)
	parkedHead    *fiber  // intrusive list of fibers that have blocked (see park)
	scratch       []int64 // EU scratch for call arguments / block payloads

	// Host-side run limits (see limits.go).
	nextLimitCheck int64 // next Instructions value at which to run limitCheck
	wallLimit      time.Duration
	deadline       time.Time
	ctx            context.Context // nil: cancellation disabled

	// Fault injection + reliable messaging (see fault.go); all nil when
	// cfg.Faults is nil. Every key is unique machine-wide: a transaction
	// seq carries its sender (txnSeq), a link key both ends (linkKey).
	flt        *FaultConfig
	txns       map[uint64]*txn     // open transactions by sequence number
	seen       map[uint64]svcCache // receiver-side serviced sequence numbers
	linkNext   map[uint32]uint64   // sender-side next request lseq per directed link
	linkExpect map[uint32]uint64   // receiver-side next lseq to service per directed link
	linkHold   map[linkPos]*msg    // out-of-order requests parked until the gap fills
	rtt        map[uint32]*rttEst  // per-link EWMA RTT estimator (see fault.go)
	winOpen    map[uint32]int      // per-link in-flight transaction count
	winQ       map[uint32][]*txn   // per-link transactions awaiting a window slot
	fstats     *FaultStats
}

// New loads a threaded program onto a fresh machine.
func New(prog *threaded.Program, cfg Config) *Machine {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	m := &Machine{cfg: cfg, prog: prog, maxFiberInstr: cfg.MaxFiberInstr,
		nextLimitCheck: limitCheckInterval, scratch: make([]int64, 0, 16)}
	if m.maxFiberInstr == 0 {
		m.maxFiberInstr = 2_000_000_000
	}
	if prog.Profiled {
		m.prof = profile.New()
	}
	maxWords := cfg.MaxNodeWords
	if maxWords == 0 {
		maxWords = 16 << 20
	}
	m.arenas = arenaPool.Get().(*arenaSet)
	for len(m.arenas.a) < cfg.Nodes {
		m.arenas.a = append(m.arenas.a, new(arena))
	}
	for i := 0; i < cfg.Nodes; i++ {
		a := m.arenas.a[i]
		n := &node{id: i, maxWords: maxWords, mem: a.mem, pending: a.pending, freeSmall: a.freeSmall, arena: a,
			netLast: make([]int64, cfg.Nodes),
			ready:   make([]*fiber, 0, 16),
			waiters: make(map[int64][]*fiber),
			outSeq:  int64(i) << 40}
		m.nodes = append(m.nodes, n)
	}
	// Global segment at the bottom of node 0, with constant initializers
	// applied at load time.
	m.nodes[0].allocWords(prog.GlobalWords + 1)
	for _, iv := range prog.GlobalInit {
		m.nodes[0].mem[iv[0]] = iv[1]
	}
	m.events = make(eventQ, 0, 64)
	if cfg.Faults != nil {
		m.flt = cfg.Faults
		m.txns = make(map[uint64]*txn)
		m.seen = make(map[uint64]svcCache)
		m.linkNext = make(map[uint32]uint64)
		m.linkExpect = make(map[uint32]uint64)
		m.linkHold = make(map[linkPos]*msg)
		m.rtt = make(map[uint32]*rttEst)
		m.winOpen = make(map[uint32]int)
		m.winQ = make(map[uint32][]*txn)
		m.fstats = &FaultStats{}
	}
	return m
}

// SetTrace attaches an event recorder to the machine (call before Run; nil
// detaches). Tracing is purely observational: the recorder sees message
// lifecycles and busy intervals but never alters costs or scheduling, so a
// traced run's Result is bit-identical to an untraced one. The machine
// records straight into r as the run goes, so message ids are in issue order
// and a run that traps part-way leaves what it recorded. Returns m for
// chaining.
func (m *Machine) SetTrace(r *trace.Recorder) *Machine {
	r.SetNodes(len(m.nodes))
	m.tr = r
	return m
}

// SetMetrics is ignored: the trace recorder is the simulator's one observer.
//
// Deprecated: kept only so existing callers still compile.
func (m *Machine) SetMetrics(*metrics.Sampler) *Machine { return m }

// schedule queues an event for node nodeID at time t.
func (m *Machine) schedule(t int64, kind eventKind, nodeID int, g *msg) {
	m.push(event{time: t, kind: kind, node: nodeID, g: g})
}

// push queues ev, stamping it with the next schedule number.
func (m *Machine) push(ev event) {
	m.seq++
	ev.seq = m.seq
	m.events.push(ev)
}

// dispatch executes one popped event.
func (m *Machine) dispatch(ev event) {
	if ev.g != nil {
		m.msgAdvance(ev.g, ev.time)
		return
	}
	if ev.kind == evRetry {
		m.retryFire(ev.tx, ev.time)
		return
	}
	m.runEU(m.nodes[ev.node], ev.time)
}

// trapf stops the simulation with an error.
func (m *Machine) trapf(format string, args ...any) {
	if m.trap == nil {
		m.trap = fmt.Errorf("earthsim: %s", fmt.Sprintf(format, args...))
	}
}

// renderOutput merges the machine's print records into the final program
// output: time first, then the sequence tag (which embeds the printing
// node's id in the high bits, so equal-time prints from different nodes
// order by node).
func renderOutput(items []outItem) string {
	sort.Slice(items, func(i, j int) bool {
		if items[i].time != items[j].time {
			return items[i].time < items[j].time
		}
		return items[i].seq < items[j].seq
	})
	var b strings.Builder
	for _, o := range items {
		b.WriteString(o.text)
	}
	return b.String()
}

// fiberID tags a fiber ordinal with the creating node so ids stay unique
// machine-wide.
func (n *node) fiberID(ordinal int64) int64 {
	return int64(n.id)<<32 | ordinal
}

// getFiber takes a fiber record from the freelist (or allocates one)
// and resets the state a previous life may have left behind. The park-list
// linkage is deliberately preserved — see fiber.parkListed.
func (m *Machine) getFiber() *fiber {
	f := m.fiberFree
	if f == nil {
		return &fiber{}
	}
	m.fiberFree = f.freeNext
	f.freeNext = nil
	f.pc = 0
	f.stack = f.stack[:0]
	f.waitFence = false
	f.waitJoin = false
	f.outstanding = 0
	f.children = 0
	f.done = false
	f.ninstr = 0
	return f
}

// recycleFiber returns a finished fiber's record to the freelist. Only safe
// when nothing can reach the fiber again: it must be done, off the ready
// queue, with no outstanding fills or unacked writes (an in-flight ack
// still references the record), no waiters (a done fiber is never blocked),
// and no children still due to report completion into its frame. A done
// fiber still queued is recycled when runEU takes its last entry.
func (m *Machine) recycleFiber(f *fiber) {
	if f.children != 0 || f.outstanding != 0 || len(f.pending) != 0 || f.queued != 0 {
		return
	}
	f.freeNext = m.fiberFree
	m.fiberFree = f
}

// newFiber creates a fiber with a fresh frame and copies args into the
// parameter slots.
func (m *Machine) newFiber(nodeID int, code *threaded.FnCode, args []int64, route replyRoute) *fiber {
	n := m.nodes[nodeID]
	base := n.allocFrame(code.NSlots)
	if base < 0 {
		m.trapf("node %d out of memory allocating a %d-word frame for %s",
			nodeID, code.NSlots, code.Name)
		base = 0
	}
	f := m.newSharedFiber(nodeID, code, base, route)
	for i, a := range args {
		if i < len(code.Params) {
			n.mem[base+int64(code.Params[i])] = a
		}
	}
	return f
}

// newSharedFiber creates a fiber on an existing frame (a parallel arm shares
// its parent's); node nodeID numbers it.
func (m *Machine) newSharedFiber(nodeID int, code *threaded.FnCode, base int64, route replyRoute) *fiber {
	n := m.nodes[nodeID]
	f := m.getFiber()
	f.node, f.code, f.base, f.size = n, code, base, code.NSlots
	f.waitSlot, f.route = -1, route
	n.nextFiber++
	f.id = n.fiberID(n.nextFiber)
	m.live++
	return f
}

// enqueueReady makes f ready on n, waking the EU at t unless a wake-up is
// already pending: that one fires once the EU is free, and the EU takes
// ready fibers in queue order.
func (m *Machine) enqueueReady(n *node, f *fiber, t int64) {
	f.queued++
	n.ready = append(n.ready, f)
	if !n.euWake {
		n.euWake = true
		m.schedule(t, evEURun, n.id, nil)
	}
}
