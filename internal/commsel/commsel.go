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
// analysis' CrossedW/CrossedR sets identify exactly which accesses belong
// to a region, which keeps the aggressive float rules of the paper sound.
package commsel

import (
	"fmt"

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
	// MaxBlockWaste skips blocking when the struct is much larger than the
	// fields actually needed: block only if structSize <=
	// MaxBlockWaste * neededWords. 0 means "no limit".
	MaxBlockWaste int
	// Speculative issues remote reads without proving a dereference occurs
	// on all paths (the paper's runtime tolerates reads of potentially
	// invalid addresses).
	Speculative bool
	// NoBlocking disables blkmov selection (ablation: pipelined only).
	NoBlocking bool
	// NoWriteMotion leaves every remote write at its original statement
	// (ablation).
	NoWriteMotion bool
	// NoReadMotion places every remote read at its original statement
	// (ablation: redundancy elimination and pipelining across statements
	// are lost; reads still become split-phase gets).
	NoReadMotion bool
	// ProfileGuided signals that the placement tuples carry *measured*
	// frequencies (see internal/profile) rather than the static ×10/÷2/÷k
	// guesses. Selection then also weighs expected dynamic operation
	// counts for the pipelined-vs-blocked decision: a field group whose
	// measured frequency sum alone reaches BlockThreshold blocks even
	// with fewer distinct fields, since one blkmov replaces that many
	// expected gets. The rule is strictly additive — everything that
	// blocked statically still blocks — so it can only reduce op counts.
	ProfileGuided bool
}

func (o Options) withDefaults() Options {
	if o.BlockThreshold == 0 {
		o.BlockThreshold = 3
	}
	if o.MaxBlockWaste == 0 {
		o.MaxBlockWaste = 4
	}
	return o
}

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
	}
	return t
}

// String renders the report.
func (r *Report) String() string {
	t := r.Totals()
	return fmt.Sprintf(
		"commsel: reads %d pipelined + %d blocked (%d loads redirected, %d redundant eliminated); writes %d pipelined + %d blocked (%d stores redirected)",
		t.PipelinedReads, t.BlockedReads, t.ReadsRewritten, t.ReadsEliminated,
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

// TransformP rewrites every function of prog in place and returns a report.
// The placement result must have been computed on the same (un-rewritten)
// program; rw and loc likewise. Per-function selection is fanned across pool
// (nil pool runs inline). Functions are rewritten independently: each worker
// operates on a forked read/write-set view (new statements registered during
// rewriting land in a private overlay) and a private FuncReport; forks are
// merged back and reports appended in function order afterwards, so the
// rewritten program and the report are identical to a sequential run.
func TransformP(prog *simple.Program, pl *placement.Result, rw *rwsets.Result,
	loc *locality.Result, opt Options, pool *par.Pool) *Report {
	opt = opt.withDefaults()
	n := len(prog.Funcs)
	frs := make([]*FuncReport, n)
	forks := make([]*rwsets.Result, n)
	pool.ForEach(n, func(i int) {
		fn := prog.Funcs[i]
		fork := rw
		if pool.Workers() > 1 {
			fork = rw.Fork()
		}
		s := &sel{
			prog: prog, pl: pl, rw: fork, loc: loc, opt: opt, fn: fn,
			fr:          &FuncReport{Name: fn.Name},
			handledR:    make(map[placement.Key]map[int]bool),
			readShadow:  make(map[int]shadow),
			storeShadow: make(map[int]shadow),
			blkClean:    make(map[*simple.Var]bool),
			fills:       make(map[*simple.Var]fillInfo),
		}
		s.readsSeq(fn.Body, nil)
		s.applyReadRewrites()
		esc := s.writesSeq(fn.Body)
		s.materialize(mapVals(esc), fn.Body, len(fn.Body.Stmts))
		frs[i] = s.fr
		if fork != rw {
			forks[i] = fork
		}
	})
	rep := &Report{Funcs: frs}
	for _, fork := range forks {
		if fork != nil {
			rw.Merge(fork)
		}
	}
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

	// handledR is the paper's hash table: per location key, the read labels
	// already covered by an earlier (higher) selection.
	handledR map[placement.Key]map[int]bool
	// readShadow maps a remote-load label to the shadow that replaces it.
	readShadow map[int]shadow
	// storeShadow maps a remote-store label to the shadow it must update
	// (mandated when a selected read floated across the store).
	storeShadow map[int]shadow
	// blkClean tracks, per bcomm buffer, whether its contents still mirror
	// the remote struct (no aliased writes since the fill); a blocked
	// write-back is only legal while clean.
	blkClean map[*simple.Var]bool
	// fills records, per bcomm buffer, the pointer and size it was filled
	// from.
	fills   map[*simple.Var]fillInfo
	retMemo map[simple.Stmt]bool

	ncomm  int
	nbcomm int
}

func (s *sel) newComm(t *simple.Var) *simple.Var {
	s.ncomm++
	v := &simple.Var{Name: fmt.Sprintf("comm%d", s.ncomm), Type: t.Type,
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
