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
	"math"
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
	// Fuel bounds total EU instructions across all fibers (0 = unlimited);
	// exceeding it returns an error wrapping ErrFuelExhausted. Granularity
	// is limitCheckInterval instructions.
	Fuel int64

	// Faults, when non-nil, switches the machine to the lossy transport +
	// reliable-messaging protocol (see fault.go). Nil costs nothing.
	Faults *FaultConfig

	// SimWorkers bounds the goroutines that drive the per-node event-loop
	// shards' windows (see parallel.go): 0 or 1 runs every window inline on
	// the caller's goroutine, N > 1 fans each round's windows across up to
	// min(N, Nodes) workers. For a fixed seed + spec the Result, trace and
	// telemetry series are bit-identical for every value.
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

// TotalRemote is the Figure 10 quantity: remote data communication ops.
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
	// diagnostic (events/sec in benchmarks), excluded from Visible because
	// it follows timing (retry timers, no-op EU wake-ups), not data flow.
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
// The seq tiebreak makes the order a total one — equal-time events pop in
// schedule order — so heap arity and sift details cannot change simulation
// outcomes. Compared to container/heap this avoids the per-event box
// allocation and interface dispatch on the hot path.
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
	// over backing arrays taken from arenaPool.
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
	// ready is the EU's fiber queue, consumed from readyAt so the backing
	// array is reused instead of reallocated on every enqueue/dequeue pair.
	ready   []*fiber
	readyAt int
	netLast []int64 // per-destination last scheduled arrival (FIFO)
	// waiters lists the fibers blocked per word; consulted only for words
	// whose pending counter carries hasWaiter.
	waiters map[int64][]*fiber
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

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// arenaMaxWords caps the arenas the pool retains (8 MiB of memory plus 4 MiB
// of presence counters): a job that grew a node toward MaxNodeWords must not
// pin that much for the life of the process.
const arenaMaxWords = 1 << 20

// releaseArenas clears the nodes' memory and returns it to arenaPool; every
// exit of Run calls it, after the last read of node state.
func (m *Machine) releaseArenas() {
	for _, n := range m.nodes {
		if cap(n.mem) <= arenaMaxWords {
			clear(n.mem)
			clear(n.pending)
			for i := range n.freeSmall {
				n.freeSmall[i] = n.freeSmall[i][:0]
			}
			*n.arena = arena{n.mem[:0], n.pending[:0], n.freeSmall}
			arenaPool.Put(n.arena)
		}
		n.mem, n.pending, n.freeSmall, n.arena = nil, nil, nil, nil
	}
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

	// parkListed/parkNext thread the fiber onto the machine's intrusive
	// blocked-fiber list the first time it blocks (see park). The linkage
	// survives recycling: a reused fiber record is already parked, which is
	// exactly what lazy deletion expects.
	parkListed bool
	parkNext   *fiber

	// freeNext links the record into its shard's fiber freelist between
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

// mail is a cross-shard message delivery: an evNetArrive that a shard's
// event loop produced for a node another shard owns. Mail is buffered in
// the sender's outbox during a window and delivered by the coordinator at
// the next barrier, in (sender shard id, send order) — a total order that
// does not depend on how many worker goroutines executed the window.
type mail struct {
	to   *shard
	at   int64
	node int
	g    *msg
}

// doneRec defers a trace MsgDone whose message was issued on another shard
// (the recorder that owns the id); applied before trace merge at Run end.
type doneRec struct {
	mid int64
	at  int64
}

// shard owns the mutable per-run state of one simulated node (shard i owns
// node i): a local event heap, the node's EU/SU/fiber state, its side of the
// reliable-messaging protocol, and its slice of the trace/telemetry
// recorders. The coordinator runs the shards in conservative-lookahead
// windows (see parallel.go).
type shard struct {
	id int

	// Read-only after New: shared program/topology. nodes is the full node
	// table — a shard only mutates the state of the node it owns, but message
	// servicing needs the table to resolve destination ids.
	cfg   Config
	prog  *threaded.Program
	nodes []*node
	peers []*shard // every shard, indexed by node id

	events        eventQ
	seq           int64
	nextFiber     int64
	counts        Counts
	output        []outItem
	outSeq        int64
	mainDone      bool
	mainRet       int64
	mainTime      int64
	trap          error
	nEvents       int64
	maxEvents     int64 // per-shard backstop mirror of the global event budget
	liveFibers    int64
	maxFiberInstr int64
	msgFree       *msg            // freelist of message records (see getMsg/putMsg)
	fiberFree     *fiber          // freelist of fiber records (see getFiber/recycleFiber)
	scratch       []int64         // EU scratch for call arguments / block payloads
	prof          *profile.Data   // non-nil when prog.Profiled
	tr            *trace.Recorder // nil: tracing disabled (the common case)
	ms            *simMetrics     // nil: live telemetry disabled (see SetMetrics)

	// Cross-shard buffers.
	outbox       []mail
	foreignDones []doneRec

	// Coordinator bookkeeping (see Run). head caches events[0].time while
	// the shard sits in the coordinator's head-indexed heap at position hpos
	// (-1 when absent); barInstr / barEvents / barLive snapshot the running
	// totals a window started from, so the coordinator can fold post-window
	// deltas into its incremental machine-wide sums; mailStamp dedupes the
	// round's mail receivers.
	head      int64
	hpos      int
	barInstr  int64
	barEvents int64
	barLive   int64
	mailStamp int64

	// Run limits (see limits.go).
	fuel           int64 // total EU instruction budget (shared across shards)
	othersInstr    int64 // other shards' instruction counts as of the last barrier
	nextLimitCheck int64 // next Instructions value at which to run limitCheck
	wallLimit      time.Duration
	wallDeadline   time.Time
	ctx            context.Context // nil: cancellation disabled (see SetContext)
	lastTime       int64           // last dispatched event time (for limit messages)
	parkedHead     *fiber          // intrusive list of fibers that have blocked

	// Fault injection + reliable messaging (see fault.go); all nil/zero
	// when cfg.Faults is nil.
	flt        *FaultConfig
	rngState   uint64
	nextTxn    uint64
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

// Machine is a loaded simulator instance: the shared topology plus one
// event-loop shard per node.
type Machine struct {
	cfg       Config
	prog      *threaded.Program
	nodes     []*node
	sh        []*shard
	lookahead int64 // conservative lookahead L (see parallel.go)
	workers   int   // goroutines driving shard windows (≤ 1: inline)
	wallLimit time.Duration
	ctx       context.Context  // nil: cancellation disabled
	tr        *trace.Recorder  // user-facing recorder (nil: tracing off)
	sampler   *metrics.Sampler // user-facing sampler (nil: telemetry off)
	gNext     int64            // next merged sampling boundary
	gLast     int64            // time of the last merged sample (-1 before any)
}

// New loads a threaded program onto a fresh machine.
func New(prog *threaded.Program, cfg Config) *Machine {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	m := &Machine{cfg: cfg, prog: prog, gLast: -1}
	for i := 0; i < cfg.Nodes; i++ {
		maxWords := cfg.MaxNodeWords
		if maxWords == 0 {
			maxWords = 16 << 20
		}
		a := arenaPool.Get().(*arena)
		n := &node{id: i, maxWords: maxWords, mem: a.mem, pending: a.pending, freeSmall: a.freeSmall, arena: a,
			netLast: make([]int64, cfg.Nodes),
			ready:   make([]*fiber, 0, 16),
			waiters: make(map[int64][]*fiber)}
		m.nodes = append(m.nodes, n)
	}
	// Global segment at the bottom of node 0, with constant initializers
	// applied at load time.
	m.nodes[0].allocWords(prog.GlobalWords + 1)
	for _, iv := range prog.GlobalInit {
		m.nodes[0].mem[iv[0]] = iv[1]
	}
	// The wire latency is the lookahead: nothing a shard sends can arrive
	// sooner. A one-node machine has no peer to hear from, so its single
	// shard's window is unbounded.
	m.lookahead = cfg.NetLatency
	if cfg.Nodes == 1 {
		m.lookahead = math.MaxInt64
	}
	m.workers = min(cfg.SimWorkers, cfg.Nodes)
	m.sh = make([]*shard, cfg.Nodes)
	for i := range m.sh {
		m.sh[i] = m.newShard(i)
	}
	return m
}

// newShard builds one event-loop shard.
func (m *Machine) newShard(id int) *shard {
	cfg := m.cfg
	// A shard holds one node's events (a handful at a time); sized any
	// larger, a 1024-node machine pays megabytes of empty queue per run.
	s := &shard{id: id, cfg: cfg, prog: m.prog, nodes: m.nodes, peers: m.sh,
		maxFiberInstr: cfg.MaxFiberInstr,
		events:        make(eventQ, 0, 8), scratch: make([]int64, 0, 16)}
	if s.maxFiberInstr == 0 {
		s.maxFiberInstr = 2_000_000_000
	}
	s.fuel = cfg.Fuel
	if s.fuel <= 0 {
		s.fuel = math.MaxInt64
	}
	s.nextLimitCheck = limitCheckInterval
	// Keep per-shard streams disjoint: (time, seq) ties and output ordering
	// are resolved per shard, so each shard gets its own deterministic id
	// space for fibers, output and txn sequences.
	s.outSeq = int64(id) << 40
	if cfg.Faults != nil {
		s.flt = cfg.Faults
		// Mix the seed so Seed 0 still yields a well-distributed stream;
		// each shard draws from its own (golden-ratio offset per id).
		s.rngState = (cfg.Faults.Seed + uint64(id)*0x9E3779B97F4A7C15) ^ 0x6C62272E07BB0142
		s.txns = make(map[uint64]*txn)
		s.seen = make(map[uint64]svcCache)
		s.linkNext = make(map[uint32]uint64)
		s.linkExpect = make(map[uint32]uint64)
		s.linkHold = make(map[linkPos]*msg)
		s.rtt = make(map[uint32]*rttEst)
		s.winOpen = make(map[uint32]int)
		s.winQ = make(map[uint32][]*txn)
		s.fstats = &FaultStats{}
	}
	if m.prog.Profiled {
		s.prof = profile.New()
	}
	return s
}

// SetTrace attaches an event recorder to the machine (call before Run; nil
// detaches). Tracing is purely observational: the recorder sees message
// lifecycles and busy intervals but never alters costs or scheduling, so a
// traced run's Result is bit-identical to an untraced one. Returns m for
// chaining.
func (m *Machine) SetTrace(r *trace.Recorder) *Machine {
	m.tr = r
	r.SetNodes(len(m.nodes))
	// Each shard records into a private recorder whose content depends only
	// on that shard's deterministic event sequence; the coordinator merges
	// them in shard order after Run (see mergeTrace).
	for _, s := range m.sh {
		if r == nil {
			s.tr = nil
		} else {
			s.tr = trace.NewRecorder(len(m.nodes))
		}
	}
	return m
}

func (m *shard) schedule(t int64, kind eventKind, nodeID int, g *msg) {
	m.seq++
	m.events.push(event{time: t, seq: m.seq, kind: kind, node: nodeID, g: g})
}

// dispatch executes one popped event.
func (m *shard) dispatch(ev event) {
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
func (m *shard) trapf(format string, args ...any) {
	if m.trap == nil {
		m.trap = fmt.Errorf("earthsim: %s", fmt.Sprintf(format, args...))
	}
}

// renderOutput merges the shards' print records into the final program
// output: time first, then the sequence tag (which embeds the shard id in
// the high bits, so equal-time prints from different nodes order by owning
// shard).
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

// fiberID tags a fiber ordinal with the owning shard so ids stay unique
// machine-wide.
func (m *shard) fiberID(ordinal int64) int64 {
	return int64(m.id)<<32 | ordinal
}

// getFiber takes a fiber record from the shard freelist (or allocates one)
// and resets the state a previous life may have left behind. The park-list
// linkage is deliberately preserved — see fiber.parkListed.
func (m *shard) getFiber() *fiber {
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
// queue (it just ran), with no outstanding fills or unacked writes (an
// in-flight ack still references the record), no waiters (a done fiber is
// never blocked), and no children still due to report completion into its
// frame.
func (m *shard) recycleFiber(f *fiber) {
	if f.children != 0 || f.outstanding != 0 || len(f.pending) != 0 {
		return
	}
	f.freeNext = m.fiberFree
	m.fiberFree = f
}

// newFiber creates a fiber with a fresh frame and copies args into the
// parameter slots.
func (m *shard) newFiber(nodeID int, code *threaded.FnCode, args []int64, route replyRoute) *fiber {
	n := m.nodes[nodeID]
	base := n.allocFrame(code.NSlots)
	if base < 0 {
		m.trapf("node %d out of memory allocating a %d-word frame for %s",
			nodeID, code.NSlots, code.Name)
		base = 0
	}
	f := m.getFiber()
	f.node, f.code, f.base, f.size = n, code, base, code.NSlots
	f.waitSlot, f.route = -1, route
	m.nextFiber++
	f.id = m.fiberID(m.nextFiber)
	m.liveFibers++
	for i, a := range args {
		if i < len(code.Params) {
			n.mem[base+int64(code.Params[i])] = a
		}
	}
	return f
}

// newSharedFiber creates a fiber sharing an existing frame (parallel arm).
func (m *shard) newSharedFiber(nodeID int, code *threaded.FnCode, base int64, route replyRoute) *fiber {
	f := m.getFiber()
	f.node, f.code, f.base, f.size = m.nodes[nodeID], code, base, code.NSlots
	f.waitSlot, f.route = -1, route
	m.nextFiber++
	f.id = m.fiberID(m.nextFiber)
	m.liveFibers++
	return f
}

func (m *shard) enqueueReady(n *node, f *fiber, t int64) {
	n.ready = append(n.ready, f)
	m.schedule(t, evEURun, n.id, nil)
}
