// Package trace is the observability layer of the EARTH-MANNA simulator:
// a zero-cost-when-disabled event sink that records per-message lifecycle
// events (EU issue → SU service → wire → remote SU → reply), per-node
// EU/SU busy intervals, and per-link network traffic, every event stamped
// with simulated time, node, fiber, message class, payload words, and the
// SIMPLE site key of the instruction that caused it (see simple.AssignSites
// and internal/profile for the site-key scheme).
//
// The contract with the simulator is strictly observational: a Recorder
// never feeds back into the cost model or the event schedule, so a run with
// tracing enabled produces a bit-identical Result (Time, Counts, Output,
// MainRet, Profile) to the same run without it — internal/earthsim's tests
// enforce this. With no Recorder attached the simulator pays only a nil
// check per instrumentation point.
//
// Two exporters consume a recording: WriteChrome emits Chrome trace_event
// JSON (load in chrome://tracing or Perfetto), and Summarize reduces the
// event stream to per-message-class latency histograms, per-site operation
// counts, SU queue statistics, and per-link network utilization.
package trace

import "sync"

// Class enumerates the simulator's message classes (the kinds of traffic a
// node's SU and the network carry).
type Class int

// Message classes.
const (
	ClassGet    Class = iota // split-phase scalar read request + reply
	ClassPut                 // split-phase scalar write + ack
	ClassBlkGet              // block read request + payload reply
	ClassBlkPut              // block write payload + ack
	ClassAlloc               // remote allocation request + address reply
	ClassRPC                 // remote function invocation (placed call)
	ClassReply               // RPC completion reply back to the requester
	ClassShared              // atomic shared-variable operation + reply
	NumClasses               // count sentinel, not a class
)

var classNames = [NumClasses]string{
	"get", "put", "blkget", "blkput", "alloc", "rpc", "reply", "shared",
}

func (c Class) String() string {
	if c >= 0 && c < NumClasses {
		return classNames[c]
	}
	return "?"
}

// UnitKind identifies which serial resource a Span occupied.
type UnitKind int

// Span units.
const (
	UnitEU  UnitKind = iota // execution unit: a fiber ran
	UnitSU                  // synchronization unit: a message was serviced
	UnitNet                 // a point-to-point link carried a message
)

// Msg is one split-phase message's lifecycle: issued by the EU at Issue,
// completed (slot filled / write acknowledged / fiber placed) at Done.
type Msg struct {
	ID    int64 // 1-based; 0 means "no message" at instrumentation points
	Class Class
	Site  string // SIMPLE site key of the issuing instruction ("" unknown)
	Src   int    // issuing node
	Dst   int    // serviced node
	Fiber int64  // issuing fiber id
	Words int    // payload words in the request direction
	Issue int64  // ns, simulated issue time
	Done  int64  // ns, simulated completion time; -1 while in flight
}

// Latency is the issue-to-completion time, or -1 for an in-flight message.
func (m *Msg) Latency() int64 {
	if m.Done < 0 {
		return -1
	}
	return m.Done - m.Issue
}

// Span is a busy interval of a serial resource.
type Span struct {
	Unit  UnitKind
	Node  int    // owning node (for UnitNet: the sending node)
	Dst   int    // UnitNet: receiving node; otherwise unused
	Name  string // EU: fiber's entry function; SU: service kind; Net: class
	MsgID int64  // message this span served (0: none, e.g. an EU run)
	Fiber int64  // UnitEU: the fiber that ran; otherwise unused
	Enq   int64  // UnitSU: when the task was enqueued (Start-Enq = queue wait)
	Start int64  // ns
	End   int64  // ns
	// Queue is the number of SU tasks already enqueued (including the one
	// being serviced) when this task arrived at the SU; 0 for non-SU spans.
	Queue int
	// Words is the payload size for UnitNet spans.
	Words int
}

// Recorder accumulates one run's events. The simulator records straight
// into the caller's Recorder as the run goes, so message ids follow global
// issue order and a run that stops early leaves everything up to the stop. A small internal mutex guards every method: recordings are read
// (Summarize, WriteChrome, Msgs, …) from goroutines other than the one that
// ran the simulation. A nil *Recorder is a valid, disabled sink: every method
// is nil-safe.
type Recorder struct {
	mu     sync.Mutex
	nodes  int
	msgs   []Msg
	spans  []Span
	faults []FaultEvent
	// suPend tracks, per node, the completion times of SU tasks scheduled
	// but not yet finished. The SU is serial and FIFO, so each node's times
	// are monotone and drain from the front of its ring.
	suPend []suRing
	// horizon is the latest event time seen (the summary's denominator).
	horizon int64
}

// NewRecorder returns an empty recorder for a machine of the given size.
func NewRecorder(nodes int) *Recorder {
	return &Recorder{nodes: nodes}
}

// Reset clears all recorded events, keeping the node count.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.msgs = r.msgs[:0]
	r.spans = r.spans[:0]
	r.faults = r.faults[:0]
	for i := range r.suPend {
		r.suPend[i].head, r.suPend[i].n = 0, 0
	}
	r.horizon = 0
}

// SetNodes records the machine size (called by the simulator at attach). It
// replaces the previous size, so a recorder reused run to run describes the
// machine of the run it holds, not the largest it ever saw.
func (r *Recorder) SetNodes(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nodes = n
}

// Nodes returns the machine size the recording was made on.
func (r *Recorder) Nodes() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nodes
}

// Msgs returns a copy of the recorded messages (issue order).
func (r *Recorder) Msgs() []Msg {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Msg(nil), r.msgs...)
}

// Spans returns a copy of the recorded busy intervals (recording order).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

func (r *Recorder) bump(t int64) {
	if t > r.horizon {
		r.horizon = t
	}
}

// MsgIssue opens a message lifecycle and returns its id (0 when disabled).
func (r *Recorder) MsgIssue(c Class, site string, src, dst int, fiber int64, words int, t int64) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bump(t)
	r.msgs = append(r.msgs, Msg{
		ID: int64(len(r.msgs) + 1), Class: c, Site: site,
		Src: src, Dst: dst, Fiber: fiber, Words: words, Issue: t, Done: -1,
	})
	return int64(len(r.msgs))
}

// MsgDone closes a message lifecycle. A zero id is ignored, so callers can
// thread the id through unconditionally.
func (r *Recorder) MsgDone(id, t int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id <= 0 || id > int64(len(r.msgs)) {
		return
	}
	r.bump(t)
	r.msgs[id-1].Done = t
}

// EUSpan records a fiber occupying a node's EU for [start, end).
func (r *Recorder) EUSpan(node int, fiber int64, name string, start, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bump(end)
	r.spans = append(r.spans, Span{
		Unit: UnitEU, Node: node, Name: name, Fiber: fiber, Start: start, End: end,
	})
}

// SUSpan records the node's SU servicing one task: enqueued at enq, busy
// [start, end). The queue depth at enqueue time is derived from the FIFO
// completion times of still-pending tasks.
func (r *Recorder) SUSpan(node int, name string, msgID int64, enq, start, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bump(end)
	if node >= len(r.suPend) {
		r.suPend = append(r.suPend, make([]suRing, node+1-len(r.suPend))...)
	}
	r.spans = append(r.spans, Span{
		Unit: UnitSU, Node: node, Name: name, MsgID: msgID,
		Enq: enq, Start: start, End: end, Queue: r.suPend[node].push(enq, end),
	})
}

// suRing is one node's pending SU completion times in FIFO order: n of
// them, the oldest at buf[head], wrapping around buf.
type suRing struct {
	buf     []int64
	head, n int
}

// push drops the times at or before enq, appends end and returns how many
// tasks are pending, the new one included.
func (q *suRing) push(enq, end int64) int {
	for q.n > 0 && q.buf[q.head] <= enq {
		q.head, q.n = (q.head+1)%len(q.buf), q.n-1
	}
	if q.n == len(q.buf) {
		buf := make([]int64, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			buf[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = end
	q.n++
	return q.n
}

// NetSpan records the src→dst link carrying a message for [start, end).
func (r *Recorder) NetSpan(src, dst int, name string, msgID int64, words int, start, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bump(end)
	r.spans = append(r.spans, Span{
		Unit: UnitNet, Node: src, Dst: dst, Name: name, MsgID: msgID,
		Words: words, Start: start, End: end,
	})
}

// Horizon returns the latest event timestamp recorded (ns).
func (r *Recorder) Horizon() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.horizon
}

// Enabled reports whether events are being collected (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }
