package metrics

import "sync"

// NodeSample is one node's cumulative activity at a sample instant.
type NodeSample struct {
	EUBusyNs int64 `json:"eu_busy_ns"` // cumulative simulated ns the EU spent executing fibers
	SUBusyNs int64 `json:"su_busy_ns"` // cumulative simulated ns the SU spent servicing requests
	SUQueue  int64 `json:"su_queue"`   // SU requests accepted but not yet completed at this instant
	Ready    int64 `json:"ready"`      // fibers in the node's ready queue at this instant
}

// LinkSample is one directed link's cumulative traffic at a sample instant.
// Links appear only once traffic has crossed them, ordered by (Src, Dst).
type LinkSample struct {
	Src    int   `json:"src"`     // source node
	Dst    int   `json:"dst"`     // destination node
	BusyNs int64 `json:"busy_ns"` // cumulative simulated ns the wire was occupied
	Msgs   int64 `json:"msgs"`    // messages injected (duplicates included)
	Words  int64 `json:"words"`   // payload words carried
}

// SimSample is a snapshot of simulator state at a simulated-time instant.
// All values are cumulative since Run start except the instantaneous queue
// depths. Samples are taken in event-loop order at a fixed simulated-time
// interval, so for identical seed + spec the sequence of SimSamples is
// identical run to run — the determinism contract tested in
// internal/earthsim.
type SimSample struct {
	Time         int64        `json:"time"`         // simulated ns of this snapshot
	Instructions int64        `json:"instructions"` // guest instructions retired
	RemoteReads  int64        `json:"remote_reads"`
	RemoteWrites int64        `json:"remote_writes"`
	BlkMoves     int64        `json:"blk_moves"`
	LiveFibers   int64        `json:"live_fibers"`      // fibers spawned and not yet finished
	Retries      int64        `json:"retries"`          // reliable-messaging retransmits (0 unless faults on)
	Spurious     int64        `json:"retries_spurious"` // retransmits that were unnecessary in hindsight
	Drops        int64        `json:"drops"`
	Dups         int64        `json:"dups"`
	Stalls       int64        `json:"stalls"`
	Nodes        []NodeSample `json:"nodes"`
	Links        []LinkSample `json:"links,omitempty"`
}

// Sampler accumulates a bounded time series of SimSamples. The simulator
// calls Record from its event loop (single-threaded, deterministic order);
// observers call Series and Total (copies under the lock) from any goroutine
// — this is how earthd's /series.json reads a shard while it runs jobs.
//
// A nil *Sampler is a valid, disabled sampler.
type Sampler struct {
	interval int64 // simulated ns between samples
	capacity int   // ring capacity

	mu    sync.Mutex
	ring  []SimSample
	head  int // index of oldest sample when full
	n     int // samples currently in ring
	total int64
}

// Default sampler parameters: one sample per 100µs of simulated time, with
// room for 2048 samples (≈ 0.2 s of simulated time) before the ring wraps.
const (
	DefaultInterval = 100_000
	DefaultCap      = 2048
)

// NewSampler returns a sampler taking one sample every interval simulated
// ns, keeping the most recent capacity samples. Non-positive arguments get
// the defaults.
func NewSampler(interval int64, capacity int) *Sampler {
	if interval <= 0 {
		interval = DefaultInterval
	}
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Sampler{interval: interval, capacity: capacity}
}

// Interval returns the sampling interval in simulated ns (0 for nil).
func (s *Sampler) Interval() int64 {
	if s == nil {
		return 0
	}
	return s.interval
}

// Record appends one sample, evicting the oldest when the ring is full. The
// sample is stored by value; the caller may reuse nothing — slices must be
// freshly allocated per sample. Nil-safe.
func (s *Sampler) Record(sm SimSample) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.n < s.capacity {
		s.ring = append(s.ring, sm)
		s.n++
	} else {
		s.ring[s.head] = sm
		s.head = (s.head + 1) % s.capacity
	}
	s.total++
	s.mu.Unlock()
}

// Series returns the retained samples oldest-first.
func (s *Sampler) Series() []SimSample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SimSample, 0, s.n)
	for i := 0; i < s.n; i++ {
		out = append(out, s.ring[(s.head+i)%s.capacity])
	}
	return out
}

// Total returns the number of samples ever recorded (≥ len(Series())).
func (s *Sampler) Total() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Reset clears the ring so the sampler can serve a fresh Run.
func (s *Sampler) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.ring = s.ring[:0]
	s.head, s.n, s.total = 0, 0, 0
	s.mu.Unlock()
}
