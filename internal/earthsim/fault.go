package earthsim

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// Fault injection and reliable messaging.
//
// Attaching a FaultConfig to Config.Faults switches the machine's transport
// from the idealized perfectly-reliable interconnect to a lossy one: each
// wire hop may be dropped, duplicated, or delayed, and each SU service may
// be preceded by a stall window. Each decision is a hash of the seed and
// the hop's identity (draw, below), not a position in a random stream, so
// identical seed + spec give bit-identical Results (including Time and
// FaultStats), and a change that only moves compute keeps every hop's fate.
//
// To keep runs *correct* under loss, every split-phase message becomes a
// sequence-numbered transaction:
//
//	sender                       wire                  receiver SU
//	  proto (owned by txn) ──clone──> flight ──────────> service once,
//	  timer: timeout, ×2 backoff        │ drop/dup/delay   cache reply by seq
//	  on fire: clone + resend ──clone──> flight ──────────> duplicate? replay
//	  on reply: complete txn  <───────── reply leg <─────── cached reply
//
// The transaction owns a prototype message record; every (re)transmission
// is a fresh clone from the msg freelist, so retransmits and duplicates
// never alias a record already threaded through the event queue (the PR 3
// pooling invariant: a record is reachable from at most one scheduled
// event). The receiver applies the memory effect exactly once per sequence
// number and caches the reply payload; late or duplicated request copies
// replay the cached reply, and late reply copies are discarded at the
// sender once the transaction has completed. One-way classes (RPC, Reply)
// gain an ack leg under faults so a dropped request is retransmitted.
//
// Ordering. The fault-free interconnect is FIFO per directed (src, dst)
// link, and compiled programs depend on it: a split-phase write followed by
// a read of the same location on the same link is correct only because the
// write is serviced first. Drops and retransmissions would break that — a
// dropped Put's retry can arrive after a later Get — so each request
// additionally carries a per-link sequence number (lseq, assigned once per
// transaction, stable across retransmissions). The receiving SU services
// requests strictly in lseq order: a request arriving ahead of a gap is
// parked in a reorder buffer and serviced — at full SU cost — as soon as
// the gap-filling request completes service. Reply/ack legs carry no lseq;
// their ordering is program-invisible (fills target distinct slots, fences
// count acks).
//
// With Config.Faults == nil none of this machinery runs: no sequence
// numbers, no transactions, no timers, no fault draws — the schedule()
// sequence is hop-for-hop identical to the fault-free simulator, which the
// zero-cost-when-disabled test locks in.

// FaultConfig describes the injected fault distributions and the reliable-
// messaging retry policy. It is read-only during runs: a single FaultConfig
// may be shared by concurrent Machines.
type FaultConfig struct {
	Drop  float64 // per wire-hop drop probability, in [0,1)
	Dup   float64 // per wire-hop duplication probability, in [0,1)
	Delay int64   // max extra wire delay per hop, in multiples of NetLatency
	Stall float64 // per SU-service stall probability, in [0,1)

	StallNs    int64 // stall window length in ns (0 = default 25µs)
	Timeout    int64 // initial retransmit timeout in ns (0 = default 100µs)
	MaxRetries int   // retransmissions before the run traps (0 = default 20)
	// Window caps in-flight transactions per directed link (selective
	// repeat): further sends queue until a slot frees. 0 = default 64,
	// negative = unlimited.
	Window int
	Seed   uint64
}

// Fault-model defaults. The timeout is generous relative to the ~7µs
// round-trip of a scalar read so that SU queueing under load rarely causes
// spurious retransmission; backoff doubles it per retry up to the cap.
const (
	defaultStallNs    = 25_000
	defaultTimeout    = 100_000
	defaultMaxRetries = 20
	defaultWindow     = 64
	backoffCapFactor  = 32
)

func (f *FaultConfig) stallNs() int64 {
	if f.StallNs > 0 {
		return f.StallNs
	}
	return defaultStallNs
}

func (f *FaultConfig) timeout() int64 {
	if f.Timeout > 0 {
		return f.Timeout
	}
	return defaultTimeout
}

func (f *FaultConfig) maxRetries() int {
	if f.MaxRetries > 0 {
		return f.MaxRetries
	}
	return defaultMaxRetries
}

// window is the per-link in-flight cap; 0 means unlimited.
func (f *FaultConfig) window() int {
	if f.Window > 0 {
		return f.Window
	}
	if f.Window < 0 {
		return 0
	}
	return defaultWindow
}

// validate rejects out-of-range distributions.
func (f *FaultConfig) validate() error {
	check := func(name string, p float64) error {
		if p < 0 || p >= 1 {
			return fmt.Errorf("earthsim: fault probability %s=%v out of range [0,1)", name, p)
		}
		return nil
	}
	if err := check("drop", f.Drop); err != nil {
		return err
	}
	if err := check("dup", f.Dup); err != nil {
		return err
	}
	if err := check("stall", f.Stall); err != nil {
		return err
	}
	if f.Delay < 0 || f.StallNs < 0 || f.Timeout < 0 || f.MaxRetries < 0 {
		return fmt.Errorf("earthsim: fault parameters must be non-negative")
	}
	return nil
}

// String renders the spec in ParseFaultSpec's format (defaults omitted).
func (f *FaultConfig) String() string {
	var parts []string
	add := func(s string) { parts = append(parts, s) }
	if f.Drop > 0 {
		add(fmt.Sprintf("drop=%v", f.Drop))
	}
	if f.Dup > 0 {
		add(fmt.Sprintf("dup=%v", f.Dup))
	}
	if f.Delay > 0 {
		add(fmt.Sprintf("delay=%d", f.Delay))
	}
	if f.Stall > 0 {
		add(fmt.Sprintf("stall=%v", f.Stall))
	}
	if f.StallNs > 0 {
		add(fmt.Sprintf("stallns=%d", f.StallNs))
	}
	if f.Timeout > 0 {
		add(fmt.Sprintf("timeout=%d", f.Timeout))
	}
	if f.MaxRetries > 0 {
		add(fmt.Sprintf("retries=%d", f.MaxRetries))
	}
	if f.Window != 0 {
		add(fmt.Sprintf("window=%d", f.Window))
	}
	if f.Seed != 0 {
		add(fmt.Sprintf("seed=%d", f.Seed))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseFaultSpec parses a comma-separated "key=value" fault specification,
// the format of the earthrun/paperbench -faults flag. Keys: drop, dup,
// stall (probabilities), delay (max extra NetLatency multiples per hop),
// stallns, timeout (ns), retries, window (per-link in-flight cap), seed.
// An empty spec returns nil (faults disabled).
func ParseFaultSpec(spec string) (*FaultConfig, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	f := &FaultConfig{}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, valStr, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("earthsim: bad fault spec entry %q (want key=value)", kv)
		}
		key, valStr = strings.TrimSpace(key), strings.TrimSpace(valStr)
		switch strings.ToLower(key) {
		case "drop", "dup", "stall":
			p, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				return nil, fmt.Errorf("earthsim: bad fault probability %q: %v", kv, err)
			}
			switch strings.ToLower(key) {
			case "drop":
				f.Drop = p
			case "dup":
				f.Dup = p
			case "stall":
				f.Stall = p
			}
		case "delay", "stallns", "timeout", "retries", "window", "seed":
			n, err := strconv.ParseInt(valStr, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("earthsim: bad fault parameter %q: %v", kv, err)
			}
			switch strings.ToLower(key) {
			case "delay":
				f.Delay = n
			case "stallns":
				f.StallNs = n
			case "timeout":
				f.Timeout = n
			case "retries":
				f.MaxRetries = int(n)
			case "window":
				f.Window = int(n)
			case "seed":
				f.Seed = uint64(n)
			}
		default:
			return nil, fmt.Errorf("earthsim: unknown fault spec key %q (want drop/dup/delay/stall/stallns/timeout/retries/window/seed)", key)
		}
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// FaultStats counts the run's injected faults and reliable-messaging
// reactions; Result.Faults carries it (nil when faults were disabled).
type FaultStats struct {
	Drops         int64 // wire hops dropped
	Dups          int64 // wire hops duplicated
	Delayed       int64 // wire hops given extra delay
	Stalls        int64 // SU stall windows injected
	Retries       int64 // sender retransmissions after timeout
	DupSuppressed int64 // duplicate copies discarded (receiver + sender side)
	// SpuriousRetries counts retransmissions that turned out unnecessary:
	// at completion, the transmissions sent after the copy that actually
	// completed the transaction (tx.attempt - completing copy's attempt).
	// The per-link EWMA RTT estimator exists to keep this near zero under
	// load; exported as earth_fault_retries_spurious_total.
	SpuriousRetries int64
	WindowQueued    int64 // sends held back by the per-link in-flight window
	RetriesByClass  [trace.NumClasses]int64
	MaxAttempt      int // highest transmission count any transaction needed
}

// String summarizes the counters on one line.
func (s *FaultStats) String() string {
	var retr []string
	for c := trace.Class(0); c < trace.NumClasses; c++ {
		if s.RetriesByClass[c] > 0 {
			retr = append(retr, fmt.Sprintf("%s=%d", c, s.RetriesByClass[c]))
		}
	}
	per := ""
	if len(retr) > 0 {
		per = " (" + strings.Join(retr, " ") + ")"
	}
	return fmt.Sprintf("drops=%d dups=%d delayed=%d stalls=%d retries=%d%s spurious=%d dup-suppressed=%d max-attempt=%d",
		s.Drops, s.Dups, s.Delayed, s.Stalls, s.Retries, per, s.SpuriousRetries, s.DupSuppressed, s.MaxAttempt)
}

// txn is one reliable-messaging transaction: the sender-side state of a
// split-phase message from first transmission to acknowledged completion.
type txn struct {
	seq     uint64 // transaction sequence number (key of Machine.txns)
	proto   *msg   // prototype record, owned by the txn while live
	svc     int64  // issuing SU cost, reapplied on every retransmission
	link    uint32 // directed link key (window accounting, RTT estimator)
	start   int64  // first transmission time (RTT sampling; Karn's rule)
	attempt int    // transmissions so far (0 while queued on the window)
	timeout int64  // current retransmit timeout (doubles per retry, capped)
	done    bool
}

// svcCache is the receiver-side memory of one serviced sequence number:
// the reply payload to replay if a duplicate request copy arrives.
type svcCache struct {
	val  int64
	vals []int64
}

// linkKey identifies a directed (src, dst) link for the per-link request
// ordering maps.
func linkKey(src, dst *node) uint32 {
	return uint32(src.id)<<16 | uint32(dst.id)
}

// linkPos addresses one request slot in a link's sequence space; the key of
// the receiver's reorder buffer.
type linkPos struct {
	link uint32
	lseq uint64
}

// ------------------------------------------------------------ fault draws ---

// Draw kinds. Each fault decision hashes its own kind into its key, so
// switching one distribution on or off never moves another's decisions.
const (
	drawDrop uint64 = iota + 1
	drawDelay
	drawDup
	drawStall
)

// mix64 is splitmix64's step: add the golden gamma, then finalize.
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// draw is the fault decision of one kind for one hop of one message copy:
// a pure function of (seed, transaction seq, attempt, hop stage, copy
// label, acting node, kind) — the SU's node for a stall, the sender for a
// drop, delay or duplicate. No draw depends on how many draws came before
// it, so a change that only moves compute or the order of events leaves
// every hop's fate where it was (a counter-based generator: Salmon et al.,
// "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011).
func (m *Machine) draw(g *msg, actor *node, kind uint64) uint64 {
	h := mix64(m.flt.Seed ^ 0x6C62272E07BB0142)
	h = mix64(h ^ g.seq)
	h = mix64(h ^ uint64(g.attempt)<<32 ^ uint64(g.stage)<<24 ^ uint64(g.copy)<<8 ^ kind)
	return mix64(h ^ uint64(actor.id))
}

// chance compares a draw's uniform [0,1) variate with p. A disabled
// distribution skips the hash; no other draw depends on it.
func (m *Machine) chance(g *msg, actor *node, kind uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(m.draw(g, actor, kind)>>11)/(1<<53) < p
}

// hopKey names one wire hop of one message copy independently of timing:
// the transaction, its transmission attempt, the hop's stage and the copy's
// duplication label.
type hopKey struct {
	seq     uint64
	attempt int
	stage   int
	copy    uint8
}

// dropLog, when set (by a test), is told every hop's drop decision.
var dropLog func(k hopKey, dropped bool)

// ------------------------------------------------------- reliable protocol ---

// cloneMsg copies a prototype into a fresh freelist record for one
// transmission attempt.
func (m *Machine) cloneMsg(g *msg) *msg {
	c := m.getMsg()
	args, vals := c.args, c.vals
	*c = *g
	c.args = append(args[:0], g.args...)
	c.vals = append(vals[:0], g.vals...)
	c.free = nil
	return c
}

// ----------------------------------------------------- RTT estimation (RTO) ---

// rttEst is one directed link's EWMA round-trip estimator, the classic TCP
// srtt/rttvar pair (RFC 6298, integer shifts: srtt gain 1/8, rttvar gain
// 1/4). A round trip here is transmission to transaction completion — the
// full SU-queue + wire + service + reply path, which is exactly what the
// retransmit timer races against.
type rttEst struct {
	srtt   int64 // smoothed RTT in ns; 0 = no samples yet
	rttvar int64
}

// observe folds one unambiguous RTT sample into the link estimate.
func (e *rttEst) observe(sample int64) {
	if e.srtt == 0 {
		e.srtt = sample
		e.rttvar = sample / 2
		return
	}
	err := sample - e.srtt
	if err < 0 {
		e.rttvar += (-err - e.rttvar) / 4
	} else {
		e.rttvar += (err - e.rttvar) / 4
	}
	e.srtt += err / 8
}

// rto is the link's current retransmit timeout: srtt + 4·rttvar, clamped to
// [Timeout/2, Timeout·backoffCapFactor]. Before any sample it is the
// configured Timeout. The floor keeps a quiet link's aggressively small
// estimate from firing on routine SU-stall jitter; the ceiling matches the
// backoff cap.
func (m *Machine) rto(key uint32) int64 {
	base := m.flt.timeout()
	e := m.rtt[key]
	if e == nil || e.srtt == 0 {
		return base
	}
	rto := e.srtt + 4*e.rttvar
	return min(max(rto, base/2), base*backoffCapFactor)
}

// rttObserve records a completion's RTT against its link, per Karn's rule:
// only transactions that completed without any retransmission give an
// unambiguous sample.
func (m *Machine) rttObserve(key uint32, sample int64) {
	e := m.rtt[key]
	if e == nil {
		e = &rttEst{}
		m.rtt[key] = e
	}
	e.observe(sample)
}

// sendMsg starts a message's first transmission at the issuing SU. Without
// a fault model this is exactly the pre-fault schedule (stage 1 on the SU);
// with one, it opens a transaction, assigns the link-order sequence number,
// and either transmits immediately or queues behind the link's selective-
// repeat window.
func (m *Machine) sendMsg(g *msg, t, svc int64) {
	g.stage = 1
	if m.flt == nil {
		m.suSched(g.src, t, svc, g)
		return
	}
	g.src.nextTxn++
	g.seq = g.src.txnSeq(g.src.nextTxn)
	key := linkKey(g.src, g.dst)
	g.lseq = m.linkNext[key]
	m.linkNext[key]++
	tx := &txn{seq: g.seq, proto: g, svc: svc, link: key}
	m.txns[g.seq] = tx
	if w := m.flt.window(); w > 0 && m.winOpen[key] >= w {
		m.fstats.WindowQueued++
		m.winQ[key] = append(m.winQ[key], tx)
		return
	}
	m.transmit(tx, t)
}

// txnSeq tags a transaction ordinal with the sending node, keeping sequence
// numbers unique machine-wide (the receiver's exactly-once cache is keyed by
// them).
func (n *node) txnSeq(ordinal uint64) uint64 {
	return uint64(n.id+1)<<40 | ordinal
}

// transmit performs a transaction's first transmission: claim the window
// slot, queue the flight on the issuing SU, and arm the retransmit timer at
// the link's current RTO.
func (m *Machine) transmit(tx *txn, t int64) {
	m.winOpen[tx.link]++
	tx.attempt = 1
	tx.start = t
	tx.timeout = m.rto(tx.link)
	p := tx.proto
	p.attempt = 1
	m.suSched(p.src, t, tx.svc, m.cloneMsg(p))
	m.scheduleRetry(tx, t+tx.timeout)
}

// scheduleRetry arms (or re-arms) a transaction's retransmit timer.
func (m *Machine) scheduleRetry(tx *txn, at int64) {
	m.push(event{time: at, kind: evRetry, node: tx.proto.src.id, tx: tx})
}

// retryFire handles a retransmit-timer expiry: if the transaction is still
// open, clone and resend the prototype with a doubled (capped) timeout; a
// transaction out of retry budget traps the run.
func (m *Machine) retryFire(tx *txn, t int64) {
	if tx.done {
		return
	}
	p := tx.proto
	if tx.attempt >= m.flt.maxRetries() {
		m.trapf("reliable messaging: %s message seq=%d (node %d -> node %d) lost after %d attempts — fault rates exceed the retry budget",
			p.class, tx.seq, p.src.id, p.dst.id, tx.attempt)
		return
	}
	tx.attempt++
	if tx.attempt > m.fstats.MaxAttempt {
		m.fstats.MaxAttempt = tx.attempt
	}
	m.fstats.Retries++
	m.fstats.RetriesByClass[p.class]++
	m.tr.Fault(trace.FaultRetry, p.class, p.mid, p.src.id, tx.attempt, t)
	p.attempt = tx.attempt
	m.suSched(p.src, t, tx.svc, m.cloneMsg(p))
	tx.timeout = min(tx.timeout*2, m.flt.timeout()*backoffCapFactor)
	m.scheduleRetry(tx, t+tx.timeout)
}

// finishTxn closes a completed transaction: score the retransmit policy
// (spurious count; RTT sample per Karn's rule), release the window slot —
// transmitting the next queued transaction, if any — and return the
// prototype to the freelist so late timer fires or duplicate reply copies
// become no-ops. doneAttempt is the transmission attempt stamped on the
// copy that completed the round trip.
func (m *Machine) finishTxn(tx *txn, t int64, doneAttempt int) {
	tx.done = true
	delete(m.txns, tx.seq)
	m.putMsg(tx.proto)
	tx.proto = nil
	if sp := int64(tx.attempt - doneAttempt); sp > 0 {
		m.fstats.SpuriousRetries += sp
	}
	if tx.attempt == 1 {
		m.rttObserve(tx.link, t-tx.start)
	}
	if m.winOpen[tx.link]--; m.winOpen[tx.link] < 0 {
		m.winOpen[tx.link] = 0
	}
	if q := m.winQ[tx.link]; len(q) > 0 {
		next := q[0]
		q[0] = nil
		m.winQ[tx.link] = q[1:]
		m.transmit(next, t)
	}
}
