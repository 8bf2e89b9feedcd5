// Package commsel implements the paper's communication selection phase
// (§4.2): using the possible-placement sets, it picks the earliest safe
// point for each remote read and the latest safe point for each remote
// write, eliminates redundant communication through a hash table of
// already-selected accesses, and chooses between pipelined split-phase
// scalar operations (get/put) and blocked transfers (blkmov) using the
// EARTH-MANNA cost model (blocking wins at three or more words).
//
// The transformation maintains one local "shadow" copy per (pointer, field)
// region — a commN scalar or a field of a bcommN struct buffer — and
// redirects *every* direct access in the region to it: early reads fill it,
// intermediate stores update it (and the remote write-back is delayed when
// that enables blocking), and intermediate reads consume it. The placement
// analysis' CrossedW sets name the stores a hoisted read floated across,
// which must update its shadow.
//
// A blocked write-back also sends the words between the written fields, so
// it is legal only where RemoteFill holds: the write walk follows, along
// every path of the statement tree, which bcomm buffers still mirror the
// words they were filled from, and blocks only through one that does.
package commsel

import (
	"fmt"

	"repro/internal/earthc"
	"repro/internal/locality"
	"repro/internal/par"
	"repro/internal/placement"
	"repro/internal/rwsets"
	"repro/internal/simple"
)

// Options control the selection heuristics.
type Options struct {
	// BlockThreshold is the minimum number of words that must move
	// together before a blocked transfer is used (the paper measured 3 on
	// EARTH-MANNA).
	BlockThreshold int
	// NoBlocking disables blkmov selection (ablation: pipelined only).
	NoBlocking bool
	// NoWriteMotion leaves every remote write at its original statement
	// (ablation).
	NoWriteMotion bool
	// NoReadMotion places every remote read at its original statement
	// (ablation: redundancy elimination and pipelining across statements
	// are lost; reads still become split-phase gets).
	NoReadMotion bool
}

// DefaultBlockThreshold is BlockThreshold's zero value: the paper's 3.
const DefaultBlockThreshold = 3

func (o Options) withDefaults() Options {
	if o.BlockThreshold == 0 {
		o.BlockThreshold = DefaultBlockThreshold
	}
	return o
}

// Threshold is the block threshold selection applies: BlockThreshold, or
// DefaultBlockThreshold when that is zero.
func (o Options) Threshold() int { return o.withDefaults().BlockThreshold }

// maxBlockWaste caps the words a blocked read may move per field it needs: a
// group blocks only if the contiguous span from its lowest to its highest
// needed field is at most maxBlockWaste times the number of needed fields.
const maxBlockWaste = 4

// FuncReport summarizes the transformation of one function.
type FuncReport struct {
	Name            string
	PipelinedReads  int // KGetF statements inserted
	BlockedReads    int // KBlkRead statements inserted
	PipelinedWrites int // KPutF statements inserted
	BlockedWrites   int // KBlkWrite statements inserted
	ReadsRewritten  int // remote loads redirected to a shadow
	WritesRewritten int // remote stores redirected to a shadow
	ReadsEliminated int // redundant loads beyond the first per shadow fill
	CarriedReads    int // loop-head fields refilled at a latch (see placement.Carry)
}

// Report aggregates transformation statistics.
type Report struct {
	Funcs []*FuncReport
}

// Totals sums the per-function counters.
func (r *Report) Totals() FuncReport {
	var t FuncReport
	t.Name = "total"
	for _, f := range r.Funcs {
		t.PipelinedReads += f.PipelinedReads
		t.BlockedReads += f.BlockedReads
		t.PipelinedWrites += f.PipelinedWrites
		t.BlockedWrites += f.BlockedWrites
		t.ReadsRewritten += f.ReadsRewritten
		t.WritesRewritten += f.WritesRewritten
		t.ReadsEliminated += f.ReadsEliminated
		t.CarriedReads += f.CarriedReads
	}
	return t
}

// String renders the report. The carried count shows only where a carry
// fired.
func (r *Report) String() string {
	t := r.Totals()
	carried := ""
	if t.CarriedReads > 0 {
		carried = fmt.Sprintf(", %d carried", t.CarriedReads)
	}
	return fmt.Sprintf(
		"commsel: reads %d pipelined + %d blocked (%d loads redirected, %d redundant eliminated%s); writes %d pipelined + %d blocked (%d stores redirected)",
		t.PipelinedReads, t.BlockedReads, t.ReadsRewritten, t.ReadsEliminated, carried,
		t.PipelinedWrites, t.BlockedWrites, t.WritesRewritten)
}

// shadow is the local copy backing a (pointer, field) region: either a
// scalar comm variable (off 0) or a slot of a bcomm struct buffer.
type shadow struct {
	v     *simple.Var
	off   int
	field string
	blk   bool
}

func (s shadow) valid() bool { return s.v != nil }

// loadRV reads the shadow.
func (s shadow) loadRV() simple.Rvalue {
	if s.blk {
		return simple.LocalLoadRV{Base: s.v, Field: s.field, Off: s.off}
	}
	return simple.AtomRV{A: simple.VarAtom{V: s.v}}
}

// storeLV writes the shadow.
func (s shadow) storeLV() simple.Lvalue {
	if s.blk {
		return simple.LocalStoreLV{Base: s.v, Field: s.field, Off: s.off}
	}
	return simple.VarLV{V: s.v}
}

// Deprecated: ignored pool; use Transform.
func TransformP(prog *simple.Program, pl *placement.Result, rw *rwsets.Result, loc *locality.Result, opt Options, _ *par.Pool) *Report {
	return Transform(prog, pl, rw, loc, opt)
}

// Transform rewrites every function of prog in place, in function order, and
// returns a report. The placement result must have been computed on the same
// (un-rewritten) program; rw and loc likewise. Statements inserted while
// rewriting are registered in rw.
func Transform(prog *simple.Program, pl *placement.Result, rw *rwsets.Result,
	loc *locality.Result, opt Options) *Report {
	opt = opt.withDefaults()
	rep := &Report{Funcs: make([]*FuncReport, 0, len(prog.Funcs))}
	fw := newForwarder()
	prog.EachFunc(func(fn *simple.Func) {
		s := &sel{
			prog: prog, pl: pl, rw: rw, loc: loc, opt: opt, fn: fn,
			fr:          &FuncReport{Name: fn.Name},
			handledR:    make(map[int]map[int]bool),
			readShadow:  make(map[int]shadow),
			storeShadow: make(map[int]shadow),
		}
		s.planCarries()
		s.readsSeq(fn.Body)
		s.applyReadRewrites()
		if !opt.NoReadMotion {
			fw.forwardReads(s)
		}
		s.clean = make([]bool, len(s.fills))
		esc := s.writesSeq(fn.Body)
		s.materialize(mapVals(esc), fn.Body, len(fn.Body.Stmts))
		rep.Funcs = append(rep.Funcs, s.fr)
	})
	return rep
}

type sel struct {
	prog *simple.Program
	pl   *placement.Result
	rw   *rwsets.Result
	loc  *locality.Result
	opt  Options
	fn   *simple.Func
	fr   *FuncReport

	// handledR is the paper's hash table: per location id (placement's
	// Tuple.Loc), the read labels already covered by an earlier (higher)
	// selection.
	handledR map[int]map[int]bool
	// stack is the read traversal's current placement stack (see frame).
	stack []frame
	// stored caches storedSpans.
	stored map[*simple.Var]offSpan
	// readShadow maps a remote-load label to the shadow that replaces it.
	readShadow map[int]shadow
	// storeShadow maps a remote-store label to the shadow it must update
	// (mandated when a selected read floated across the store).
	storeShadow map[int]shadow
	// fills lists the bcomm buffers' block reads in the order the read
	// pass inserted them.
	fills []bcommFill
	// clean is the write walk's state, parallel to fills: whether the
	// buffer mirrors its remote span on every path to the current
	// statement. A blocked write-back is only legal while clean.
	clean []bool
	// inPar counts the {^ ^} arms around the current statement; no
	// write-back inside one blocks.
	inPar int

	// The function's loop-carried reads (see carry.go): its carries, the
	// head loads held back until selection enters their loop (made only
	// when a carry does not fire), and the comm temps the latch copies read
	// or write, which forwarding leaves alone.
	carries []*carryState
	held    map[int]bool
	pinned  []*simple.Var

	ncomm  int
	nbcomm int
}

func (s *sel) newComm(t earthc.Type) *simple.Var {
	s.ncomm++
	v := &simple.Var{Name: fmt.Sprintf("comm%d", s.ncomm), Type: t,
		Kind: simple.VarComm, Size: 1}
	return s.fn.AddLocal(v)
}

func (s *sel) newBComm(structName string, size int) *simple.Var {
	s.nbcomm++
	v := &simple.Var{Name: fmt.Sprintf("bcomm%d", s.nbcomm),
		Type: structRefType(structName), Kind: simple.VarBComm, Size: size}
	return s.fn.AddLocal(v)
}

// applyReadRewrites redirects every selected remote load to its shadow.
func (s *sel) applyReadRewrites() {
	for label, sh := range s.readShadow {
		b := s.fn.Basics[label]
		if b.Kind != simple.KAssign {
			continue
		}
		if _, ok := b.Rhs.(simple.LoadRV); !ok {
			continue
		}
		b.Rhs = sh.loadRV()
		s.fr.ReadsRewritten++
		s.rw.Register(b)
	}
}

// insertStmts inserts the given statements into seq before index i.
func insertStmts(seq *simple.Seq, i int, stmts []simple.Stmt) {
	if len(stmts) == 0 {
		return
	}
	out := make([]simple.Stmt, 0, len(seq.Stmts)+len(stmts))
	out = append(out, seq.Stmts[:i]...)
	out = append(out, stmts...)
	out = append(out, seq.Stmts[i:]...)
	seq.Stmts = out
}
