package trace

// Fault-injection events. When the simulator runs with a fault model
// (earthsim.Config.Faults), every injected fault and every reliable-
// messaging reaction is recorded as a FaultEvent: the wire dropping or
// duplicating a hop, the SU stalling, the sender retransmitting after a
// timeout, and the receiver suppressing a duplicate. Like all trace events
// these are observational — the fault decisions themselves are driven by
// the simulator's own seeded PRNG, never by the recorder.

// FaultKind enumerates fault-injection and reliable-messaging events.
type FaultKind int

// Fault event kinds.
const (
	FaultDrop        FaultKind = iota // the wire dropped a message hop
	FaultDup                          // the wire delivered a hop twice
	FaultStall                        // an SU stalled before servicing a hop
	FaultRetry                        // sender timeout: the message was retransmitted
	FaultDupSuppress                  // receiver discarded an already-seen copy
	NumFaultKinds                     // count sentinel, not a kind
)

var faultNames = [NumFaultKinds]string{"drop", "dup", "stall", "retry", "dup-suppress"}

func (k FaultKind) String() string {
	if k >= 0 && k < NumFaultKinds {
		return faultNames[k]
	}
	return "?"
}

// FaultEvent is one injected fault or reliable-messaging reaction.
type FaultEvent struct {
	Kind    FaultKind
	Class   Class // message class of the affected transaction
	MsgID   int64 // trace message id of the transaction (0 when unknown)
	Node    int   // node where the event was decided
	Attempt int   // FaultRetry: the new attempt number; otherwise 0
	Time    int64 // ns, simulated
}

// Fault records one fault event (recording order is simulated-time order,
// since the simulator emits them from its event loop).
func (r *Recorder) Fault(k FaultKind, c Class, msgID int64, node, attempt int, t int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bump(t)
	r.faults = append(r.faults, FaultEvent{
		Kind: k, Class: c, MsgID: msgID, Node: node, Attempt: attempt, Time: t,
	})
}
