package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace_event export. The format is the JSON object form of the
// Trace Event Format: {"traceEvents": [...], "displayTimeUnit": "ns"},
// loadable in chrome://tracing and Perfetto. Each simulated node becomes a
// process (pid = node id) with three threads: EU (tid 0), SU (tid 1) and
// NET out (tid 2). Busy intervals are complete events ("ph":"X"); message
// lifecycles are async begin/end pairs ("ph":"b"/"e") on the issuing node,
// carrying class, site, payload words and destination as args.
//
// Timestamps: the trace_event "ts"/"dur" fields are microseconds; simulated
// nanoseconds are emitted as fixed-point micros with three decimals, so the
// export is byte-deterministic for a deterministic simulation.

// Thread ids within a node's process.
const (
	chromeTidEU  = 0
	chromeTidSU  = 1
	chromeTidNet = 2
	chromeTidMsg = 3
)

// ChromeWriter frames a trace_event JSON object: the opening, one event per
// line with the commas between them, and the closing. It is the one copy of
// that framing; Recorder.WriteChrome and obs.Timeline.WriteChrome (earthd's
// host-side job timelines) both emit through it, so their files open in the
// same viewers.
type ChromeWriter struct {
	bw  *bufio.Writer
	sep string // what goes before the next event: nothing, then ",\n"
}

// NewChromeWriter starts a trace_event object on w.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	c := &ChromeWriter{bw: bufio.NewWriter(w)}
	c.bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	return c
}

// Event appends one event, given as a complete JSON object.
func (c *ChromeWriter) Event(format string, args ...any) {
	c.bw.WriteString(c.sep)
	c.sep = ",\n"
	fmt.Fprintf(c.bw, format, args...)
}

// Close ends the object and flushes it, returning the first write error.
func (c *ChromeWriter) Close() error {
	c.bw.WriteString("\n]}\n")
	return c.bw.Flush()
}

// WriteChrome writes the recording as Chrome trace_event JSON. The recorder
// is locked for the duration.
func (r *Recorder) WriteChrome(w io.Writer) error {
	if r != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	cw := NewChromeWriter(w)
	emit := cw.Event
	if r != nil {
		for node := 0; node < r.nodes; node++ {
			emit(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":"node %d"}}`, node, node)
			emit(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"EU"}}`, node, chromeTidEU)
			emit(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"SU"}}`, node, chromeTidSU)
			emit(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"NET out"}}`, node, chromeTidNet)
			emit(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"messages"}}`, node, chromeTidMsg)
		}
		for i := range r.spans {
			s := &r.spans[i]
			switch s.Unit {
			case UnitEU:
				emit(`{"ph":"X","pid":%d,"tid":%d,"name":%s,"cat":"eu","ts":%s,"dur":%s,"args":{"fiber":%d}}`,
					s.Node, chromeTidEU, JSONString(s.Name), Micros(s.Start), Micros(s.End-s.Start), s.Fiber)
			case UnitSU:
				emit(`{"ph":"X","pid":%d,"tid":%d,"name":%s,"cat":"su","ts":%s,"dur":%s,"args":{"msg":%d,"queue":%d}}`,
					s.Node, chromeTidSU, JSONString(s.Name), Micros(s.Start), Micros(s.End-s.Start), s.MsgID, s.Queue)
			case UnitNet:
				emit(`{"ph":"X","pid":%d,"tid":%d,"name":%s,"cat":"net","ts":%s,"dur":%s,"args":{"msg":%d,"dst":%d,"words":%d}}`,
					s.Node, chromeTidNet, JSONString(s.Name), Micros(s.Start), Micros(s.End-s.Start), s.MsgID, s.Dst, s.Words)
			}
		}
		for i := range r.faults {
			fe := &r.faults[i]
			emit(`{"ph":"i","pid":%d,"tid":%d,"name":%s,"cat":"fault","ts":%s,"s":"t","args":{"msg":%d,"class":%s,"attempt":%d}}`,
				fe.Node, chromeTidSU, JSONString(fe.Kind.String()), Micros(fe.Time),
				fe.MsgID, JSONString(fe.Class.String()), fe.Attempt)
		}
		for i := range r.msgs {
			m := &r.msgs[i]
			end := m.Done
			if end < 0 {
				// In-flight at simulation end (e.g. a final ack still on the
				// wire when main completed): close at the horizon so the
				// event nests correctly.
				end = r.horizon
			}
			emit(`{"ph":"b","pid":%d,"tid":%d,"cat":"msg","id":%d,"name":%s,"ts":%s,"args":{"site":%s,"src":%d,"dst":%d,"words":%d,"fiber":%d,"complete":%t}}`,
				m.Src, chromeTidMsg, m.ID, JSONString(m.Class.String()), Micros(m.Issue),
				JSONString(m.Site), m.Src, m.Dst, m.Words, m.Fiber, m.Done >= 0)
			emit(`{"ph":"e","pid":%d,"tid":%d,"cat":"msg","id":%d,"name":%s,"ts":%s}`,
				m.Src, chromeTidMsg, m.ID, JSONString(m.Class.String()), Micros(end))
		}
	}
	return cw.Close()
}

// Micros renders ns as fixed-point microseconds ("12.345"), the unit of the
// trace_event "ts" and "dur" fields.
func Micros(ns int64) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}

// JSONString renders s as a JSON string literal.
func JSONString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return `"?"`
	}
	return string(b)
}
