package eval

// The plan executor: the one join loop of the package. It runs a
// compiled plan (plan.go) over per-subgoal relation views and hands
// every complete firing's head row to an emitter. The fixpoint
// engine (engine.go) and the delta surface for incremental maintenance
// (delta.go) differ only in the views they pass and in what their emit
// does with a head: the engine deduplicates, counts, and buffers it for
// the round barrier; delta passes apply their own counting or DRed
// semantics.
//
// Join probes are counted here and nowhere else — one per candidate
// row offered to tryRow — so every probe counter in the repository
// (Stats.JoinProbes, incremental maintenance, the BENCH baselines)
// measures the same thing.

import (
	"context"

	"repro/internal/ast"
)

// cancelPollMask throttles the in-scan context poll to one ctx.Err()
// call per (mask+1) join probes.
const cancelPollMask = 0x3ff

// view is a prefix snapshot of an append-only interned relation: rows
// [0, hi) of r. The zero value is an empty relation.
type view struct {
	r  *irel
	hi int
}

// fullView snapshots every current row of r (nil-safe).
func fullView(r *irel) view {
	if r == nil {
		return view{}
	}
	return view{r: r, hi: r.n}
}

// contains reports membership within the prefix: the backing hash set
// stores row indexes, so a hit at or beyond hi reads as absent.
func (v view) contains(row []uint32) bool {
	if v.hi == 0 {
		return false
	}
	idx := v.r.set.findIdx(row)
	return idx >= 0 && int(idx) < v.hi
}

// emitter receives every complete firing's head row from the executor.
// The row is reused across calls; a non-nil error aborts the run.
type emitter interface {
	emit(head []uint32) error
}

// emitFunc adapts a callback to an emitter.
type emitFunc func(head []uint32) error

func (f emitFunc) emit(head []uint32) error { return f(head) }

// planExec is the per-run state of the executor: the views it reads, a
// flat slot binding, reusable scratch buffers, and the probe counter.
// No allocation happens per candidate row.
type planExec struct {
	ctx   context.Context
	in    *interner
	pl    *plan
	views []view // positive subgoals, indexed by subPlan.subIdx
	negs  []view // negated subgoals, indexed by atomTpl.idx
	scan  bool   // never probe an index (the scan cost model)
	sink  emitter

	// Depth-0 restriction used by the fixpoint engine's tasks: only
	// rows in [lo, hi) are probed (hi == 0: the whole view), and under
	// sharding only rows whose owners entry equals shard. cur is the
	// depth-0 row index of the live binding.
	lo, hi int
	owners []uint8
	shard  uint8
	cur    int32
	// Adaptive-policy hooks (nil otherwise): per-depth match counts,
	// and the checkpoint run between depth-0 rows.
	matches []int64
	reorder func()

	binding   []uint32
	probeBufs [][]uint32 // per-depth bound-value scratch
	negBuf    []uint32
	headBuf   []uint32
	probes    int64
}

// init prepares x to run pl over views and negs, sending heads to sink.
func (x *planExec) init(ctx context.Context, in *interner, pl *plan, views, negs []view, sink emitter) {
	x.ctx, x.in, x.pl, x.views, x.negs, x.sink = ctx, in, pl, views, negs, sink
	x.binding = make([]uint32, pl.nSlots)
	x.probeBufs = makeProbeBufs(pl)
	if pl.maxNegArity > 0 {
		x.negBuf = make([]uint32, pl.maxNegArity)
	}
	x.headBuf = make([]uint32, len(pl.head.isConst))
}

func makeProbeBufs(pl *plan) [][]uint32 {
	bufs := make([][]uint32, len(pl.subs))
	for i := range pl.subs {
		if n := len(pl.subs[i].boundPos); n > 0 {
			bufs[i] = make([]uint32, n)
		}
	}
	return bufs
}

// joinFrom extends the slot binding over the plan's subgoals starting
// at the given join depth. Iteration is clamped to each view's prefix
// on both paths; index chains are in ascending row order, so the first
// candidate past the prefix ends the chain.
func (x *planExec) joinFrom(depth int) error {
	pl := x.pl
	if depth == len(pl.subs) {
		return x.finish()
	}
	sp := &pl.subs[depth]
	v := x.views[sp.subIdx]
	lo, hi := 0, v.hi
	if depth == 0 && x.hi > 0 {
		lo = x.lo
		if x.hi < hi {
			hi = x.hi
		}
	}
	if hi <= lo {
		return nil
	}
	rel := v.r
	if !x.scan && sp.indexable && len(sp.boundPos) > 0 {
		vals := x.probeBufs[depth]
		for k, c := range sp.boundConst {
			if c {
				vals[k] = sp.boundVal[k]
			} else {
				vals[k] = x.binding[sp.boundVal[k]]
			}
		}
		ix := rel.index(sp.mask, sp.boundPos)
		// An empty lookup is a successful (and final) answer; never
		// fall back to a scan.
		for ri := ix.lookup(rel, vals); ri >= 0; ri = ix.next[ri] {
			if int(ri) >= hi {
				break
			}
			if int(ri) < lo || !x.owns(depth, ri) {
				continue
			}
			if err := x.tryRow(depth, rel.row(int(ri)), false); err != nil {
				return err
			}
			if depth == 0 && x.reorder != nil {
				x.reorder()
			}
		}
		return nil
	}
	for i := lo; i < hi; i++ {
		if !x.owns(depth, int32(i)) {
			continue
		}
		if err := x.tryRow(depth, rel.row(i), true); err != nil {
			return err
		}
		if depth == 0 && x.reorder != nil {
			x.reorder()
		}
	}
	return nil
}

// owns applies the sharded depth-0 filter, recording the live row.
func (x *planExec) owns(depth int, ri int32) bool {
	if depth != 0 || x.owners == nil {
		return true
	}
	if x.owners[ri] != x.shard {
		return false
	}
	x.cur = ri
	return true
}

// tryRow offers one candidate row at one depth. verify is true on the
// scan path, where bound positions must be re-checked; index
// candidates match them by construction (the index compares values
// exactly, so collisions never reach here).
func (x *planExec) tryRow(depth int, row []uint32, verify bool) error {
	x.probes++
	// Poll for cancellation inside long scans; probes is deterministic,
	// so completed runs are unaffected.
	if x.probes&cancelPollMask == 0 {
		if err := x.ctx.Err(); err != nil {
			return err
		}
	}
	sp := &x.pl.subs[depth]
	if verify {
		for k, p := range sp.boundPos {
			want := sp.boundVal[k]
			if !sp.boundConst[k] {
				want = x.binding[want]
			}
			if row[p] != want {
				return nil
			}
		}
	}
	// Bind fresh slots, then check repeated in-atom occurrences. No
	// undo is needed on backtrack: a slot is only read at depths where
	// the plan statically bound it.
	for k, p := range sp.bindPos {
		x.binding[sp.bindSlot[k]] = row[p]
	}
	for k, p := range sp.checkPos {
		if row[p] != x.binding[sp.checkSlot[k]] {
			return nil
		}
	}
	for i := range sp.cmps {
		if !x.evalCmp(&sp.cmps[i]) {
			return nil
		}
	}
	for i := range sp.negs {
		if x.negContains(&sp.negs[i]) {
			return nil
		}
	}
	if x.matches != nil {
		x.matches[depth]++
	}
	return x.joinFrom(depth + 1)
}

// evalCmp evaluates a compiled comparison. Equality on canonical intern
// ids is id equality; the four order operators delegate to Term.Compare
// on the resolved terms.
func (x *planExec) evalCmp(c *cmpPlan) bool {
	l, r := c.l, c.r
	if !c.lConst {
		l = x.binding[l]
	}
	if !c.rConst {
		r = x.binding[r]
	}
	switch c.op {
	case ast.EQ:
		return l == r
	case ast.NE:
		return l != r
	}
	return ast.NewCmp(x.in.term(l), c.op, x.in.term(r)).Eval()
}

// negContains reports whether the ground instance of a negated subgoal
// is present in its view (negation ranges over EDB relations only).
func (x *planExec) negContains(tpl *atomTpl) bool {
	buf := x.negBuf[:len(tpl.isConst)]
	for j, c := range tpl.isConst {
		if c {
			buf[j] = tpl.vals[j]
		} else {
			buf[j] = x.binding[tpl.vals[j]]
		}
	}
	return x.negs[tpl.idx].contains(buf)
}

// finish applies the filters of zero-subgoal rules, instantiates the
// head, and emits it.
func (x *planExec) finish() error {
	pl := x.pl
	for i := range pl.finishCmps {
		if !x.evalCmp(&pl.finishCmps[i]) {
			return nil
		}
	}
	for i := range pl.finishNegs {
		if x.negContains(&pl.finishNegs[i]) {
			return nil
		}
	}
	row := x.headBuf
	for j, c := range pl.head.isConst {
		if c {
			row[j] = pl.head.vals[j]
		} else {
			row[j] = x.binding[pl.head.vals[j]]
		}
	}
	return x.sink.emit(row)
}
