package trace

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Hist is a power-of-two latency histogram (bucket i holds samples in
// [2^i, 2^(i+1)) ns; bucket 0 also holds 0).
type Hist struct {
	Buckets [48]int64
	N       int64
	Sum     int64
	Min     int64
	Max     int64
}

// Add records one sample.
func (h *Hist) Add(v int64) {
	if v < 0 {
		return
	}
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v)) - 1
	}
	if i >= len(h.Buckets) {
		i = len(h.Buckets) - 1
	}
	h.Buckets[i]++
	if h.N == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.N++
	h.Sum += v
}

// Mean is the average sample (0 when empty).
func (h *Hist) Mean() int64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / h.N
}

// Quantile returns an upper bound on the q-quantile sample (bucket upper
// edge), q in [0,1].
func (h *Hist) Quantile(q float64) int64 {
	if h.N == 0 {
		return 0
	}
	target := int64(q * float64(h.N))
	if target >= h.N {
		target = h.N - 1
	}
	var seen int64
	for i, c := range h.Buckets {
		seen += c
		if seen > target {
			return (int64(1) << uint(i+1)) - 1
		}
	}
	return h.Max
}

// bar renders a proportional ASCII bar.
func bar(v, max int64, width int) string {
	if max <= 0 {
		return ""
	}
	n := int(float64(v) / float64(max) * float64(width))
	if v > 0 && n == 0 {
		n = 1
	}
	return strings.Repeat("#", n)
}

// ClassStats aggregates one message class.
type ClassStats struct {
	Class      Class
	Count      int64
	Incomplete int64 // still in flight at simulation end
	Words      int64
	Latency    Hist
}

// SiteStats aggregates one site's message traffic.
type SiteStats struct {
	Site     string
	ByClass  [NumClasses]int64
	Total    int64
	Words    int64
	LatSum   int64
	LatCount int64
}

// MeanLatency is the site's average message latency in ns.
func (s *SiteStats) MeanLatency() int64 {
	if s.LatCount == 0 {
		return 0
	}
	return s.LatSum / s.LatCount
}

// NodeStats aggregates one node's resource usage.
type NodeStats struct {
	Node     int
	EUBusy   int64 // ns the EU spent running fibers
	EURuns   int64
	SUBusy   int64 // ns the SU spent servicing messages
	SUTasks  int64
	SUDelay  Hist // enqueue-to-service-start wait
	SUQueue  Hist // queue depth observed at each enqueue
	MaxQueue int
}

// LinkStats aggregates one directed link.
type LinkStats struct {
	Src, Dst int
	Msgs     int64
	Words    int64
	Busy     int64 // ns the link was occupied
}

// FaultSummary aggregates the recording's fault-injection and
// reliable-messaging events (all zero for a fault-free run).
type FaultSummary struct {
	Kinds   [NumFaultKinds]int64 // event counts by FaultKind
	Retries [NumClasses]int64    // retransmissions by message class
	Drops   [NumClasses]int64    // wire drops by message class
}

// Total is the number of fault events of any kind.
func (f *FaultSummary) Total() int64 {
	var n int64
	for _, c := range f.Kinds {
		n += c
	}
	return n
}

// Summary is the reduced view of a recording.
type Summary struct {
	Nodes   int
	Horizon int64 // ns, end of recorded activity
	Classes []ClassStats
	Sites   []SiteStats // sorted by total ops, descending
	PerNode []NodeStats
	Links   []LinkStats // sorted (src, dst)
	Faults  FaultSummary
}

// Summarize reduces the recording. Deterministic: equal recordings produce
// equal summaries (ties in the site table break on the site key).
func (r *Recorder) Summarize() *Summary {
	s := &Summary{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Nodes = r.nodes
	s.Horizon = r.horizon

	byClass := make([]ClassStats, NumClasses)
	for c := Class(0); c < NumClasses; c++ {
		byClass[c].Class = c
	}
	siteIx := make(map[string]int)
	for i := range r.msgs {
		m := &r.msgs[i]
		cs := &byClass[m.Class]
		cs.Count++
		cs.Words += int64(m.Words)
		if lat := m.Latency(); lat >= 0 {
			cs.Latency.Add(lat)
		} else {
			cs.Incomplete++
		}
		site := m.Site
		if site == "" {
			site = "(unattributed)"
		}
		ix, ok := siteIx[site]
		if !ok {
			ix = len(s.Sites)
			siteIx[site] = ix
			s.Sites = append(s.Sites, SiteStats{Site: site})
		}
		st := &s.Sites[ix]
		st.ByClass[m.Class]++
		st.Total++
		st.Words += int64(m.Words)
		if lat := m.Latency(); lat >= 0 {
			st.LatSum += lat
			st.LatCount++
		}
	}
	for _, cs := range byClass {
		if cs.Count > 0 {
			s.Classes = append(s.Classes, cs)
		}
	}
	sort.Slice(s.Sites, func(i, j int) bool {
		if s.Sites[i].Total != s.Sites[j].Total {
			return s.Sites[i].Total > s.Sites[j].Total
		}
		return s.Sites[i].Site < s.Sites[j].Site
	})

	nodes := make([]NodeStats, s.Nodes)
	for i := range nodes {
		nodes[i].Node = i
	}
	links := make(map[[2]int]*LinkStats)
	grow := func(n int) {
		for len(nodes) <= n {
			nodes = append(nodes, NodeStats{Node: len(nodes)})
		}
	}
	for i := range r.spans {
		sp := &r.spans[i]
		switch sp.Unit {
		case UnitEU:
			grow(sp.Node)
			nodes[sp.Node].EUBusy += sp.End - sp.Start
			nodes[sp.Node].EURuns++
		case UnitSU:
			grow(sp.Node)
			ns := &nodes[sp.Node]
			ns.SUBusy += sp.End - sp.Start
			ns.SUTasks++
			ns.SUQueue.Add(int64(sp.Queue))
			if sp.Queue > ns.MaxQueue {
				ns.MaxQueue = sp.Queue
			}
			ns.SUDelay.Add(sp.Start - sp.Enq)
		case UnitNet:
			key := [2]int{sp.Node, sp.Dst}
			ls := links[key]
			if ls == nil {
				ls = &LinkStats{Src: sp.Node, Dst: sp.Dst}
				links[key] = ls
			}
			ls.Msgs++
			ls.Words += int64(sp.Words)
			ls.Busy += sp.End - sp.Start
		}
	}
	for i := range r.faults {
		fe := &r.faults[i]
		if fe.Kind < 0 || fe.Kind >= NumFaultKinds {
			continue
		}
		s.Faults.Kinds[fe.Kind]++
		if fe.Class >= 0 && fe.Class < NumClasses {
			switch fe.Kind {
			case FaultRetry:
				s.Faults.Retries[fe.Class]++
			case FaultDrop:
				s.Faults.Drops[fe.Class]++
			}
		}
	}

	s.PerNode = nodes
	for _, ls := range links {
		s.Links = append(s.Links, *ls)
	}
	sort.Slice(s.Links, func(i, j int) bool {
		if s.Links[i].Src != s.Links[j].Src {
			return s.Links[i].Src < s.Links[j].Src
		}
		return s.Links[i].Dst < s.Links[j].Dst
	})
	return s
}

// pct renders busy/total as a percentage.
func pct(busy, total int64) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * float64(busy) / float64(total)
}

// String renders the summary as a text report.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace summary: %d node(s), horizon %d ns (%.3f ms)\n",
		s.Nodes, s.Horizon, float64(s.Horizon)/1e6)

	if len(s.Classes) > 0 {
		fmt.Fprintf(&b, "\nper-message-class latency (ns):\n")
		fmt.Fprintf(&b, "  %-8s %10s %10s %10s %10s %10s %10s %8s\n",
			"class", "count", "words", "min", "mean", "p95", "max", "inflight")
		for _, cs := range s.Classes {
			fmt.Fprintf(&b, "  %-8s %10d %10d %10d %10d %10d %10d %8d\n",
				cs.Class, cs.Count, cs.Words,
				cs.Latency.Min, cs.Latency.Mean(), cs.Latency.Quantile(0.95),
				cs.Latency.Max, cs.Incomplete)
		}
		// Latency histograms, one bar chart per class.
		for _, cs := range s.Classes {
			if cs.Latency.N == 0 {
				continue
			}
			var peak int64
			lo, hi := -1, -1
			for i, c := range cs.Latency.Buckets {
				if c > 0 {
					if lo < 0 {
						lo = i
					}
					hi = i
					if c > peak {
						peak = c
					}
				}
			}
			fmt.Fprintf(&b, "\n  %s latency histogram:\n", cs.Class)
			for i := lo; i <= hi; i++ {
				c := cs.Latency.Buckets[i]
				fmt.Fprintf(&b, "    <%8dns %8d %s\n", int64(1)<<uint(i+1), c, bar(c, peak, 40))
			}
		}
	}

	if len(s.Sites) > 0 {
		fmt.Fprintf(&b, "\nper-site message counts (top %d of %d):\n", minInt(20, len(s.Sites)), len(s.Sites))
		fmt.Fprintf(&b, "  %-24s %8s", "site", "total")
		for c := Class(0); c < NumClasses; c++ {
			fmt.Fprintf(&b, " %7s", c)
		}
		fmt.Fprintf(&b, " %10s %10s\n", "words", "mean ns")
		for i, st := range s.Sites {
			if i >= 20 {
				break
			}
			fmt.Fprintf(&b, "  %-24s %8d", st.Site, st.Total)
			for c := Class(0); c < NumClasses; c++ {
				fmt.Fprintf(&b, " %7d", st.ByClass[c])
			}
			fmt.Fprintf(&b, " %10d %10d\n", st.Words, st.MeanLatency())
		}
	}

	if len(s.PerNode) > 0 {
		fmt.Fprintf(&b, "\nper-node utilization:\n")
		fmt.Fprintf(&b, "  %-6s %12s %7s %8s %12s %7s %8s %9s %8s %10s\n",
			"node", "EU busy ns", "EU%", "runs", "SU busy ns", "SU%", "tasks", "q.mean", "q.max", "wait ns")
		for _, ns := range s.PerNode {
			fmt.Fprintf(&b, "  %-6d %12d %6.1f%% %8d %12d %6.1f%% %8d %9d %8d %10d\n",
				ns.Node, ns.EUBusy, pct(ns.EUBusy, s.Horizon), ns.EURuns,
				ns.SUBusy, pct(ns.SUBusy, s.Horizon), ns.SUTasks,
				ns.SUQueue.Mean(), ns.MaxQueue, ns.SUDelay.Mean())
		}
	}

	if s.Faults.Total() > 0 {
		fmt.Fprintf(&b, "\nfault injection:\n")
		fmt.Fprintf(&b, "  %-14s", "kind")
		for k := FaultKind(0); k < NumFaultKinds; k++ {
			fmt.Fprintf(&b, " %12s", k)
		}
		fmt.Fprintf(&b, "\n  %-14s", "events")
		for k := FaultKind(0); k < NumFaultKinds; k++ {
			fmt.Fprintf(&b, " %12d", s.Faults.Kinds[k])
		}
		fmt.Fprintf(&b, "\n\n  per-class reliable-messaging activity:\n")
		fmt.Fprintf(&b, "    %-8s %10s %10s\n", "class", "retries", "drops")
		for c := Class(0); c < NumClasses; c++ {
			if s.Faults.Retries[c] == 0 && s.Faults.Drops[c] == 0 {
				continue
			}
			fmt.Fprintf(&b, "    %-8s %10d %10d\n", c, s.Faults.Retries[c], s.Faults.Drops[c])
		}
	}

	if len(s.Links) > 0 {
		fmt.Fprintf(&b, "\nnetwork links:\n")
		fmt.Fprintf(&b, "  %-8s %10s %10s %12s %7s\n", "link", "msgs", "words", "busy ns", "util")
		for _, ls := range s.Links {
			fmt.Fprintf(&b, "  %2d->%-4d %10d %10d %12d %6.1f%%\n",
				ls.Src, ls.Dst, ls.Msgs, ls.Words, ls.Busy, pct(ls.Busy, s.Horizon))
		}
	}
	return b.String()
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
