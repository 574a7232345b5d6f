package eval

// Exported delta-execution surface for incremental view maintenance
// (package incr). A DeltaProgram compiles one program into join plans
// for every (rule, occurrence) pair — including EDB occurrences, which
// full evaluation never delta-restricts but incremental maintenance
// must (the external Δ is an EDB delta) — plus one head-bound
// derivability plan per rule, all sharing a single interner whose ids
// stay stable for the life of the handle. The caller owns relation
// storage (IRel) and decides, per run, which version of each relation
// every subgoal reads (RelView prefix snapshots); that per-subgoal
// old/new freedom is exactly what the counting and DRed delta passes
// need. Every run goes through the package's one plan executor
// (join.go), with the caller's views and emit callback.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/ast"
)

// errStopRun stops a derivability run at its first complete firing.
var errStopRun = errors.New("eval: stop delta run")

// DeltaProgram is a compiled handle for delta evaluation of one
// validated program. Its compiled surface is immutable after
// CompileDeltaProgram (the policy plan cache below is internally
// synchronized) and safe for concurrent RunDelta/Derivable calls only
// when the views passed in are not being written — the intended
// single-writer discipline of incremental maintenance.
type DeltaProgram struct {
	prog      *ast.Program
	idbPr     map[string]bool
	arity     map[string]int
	in        *interner
	plans     map[planKey]*plan
	headPlans []*plan // per rule: head variables pre-bound (Derivable)
	// Cost-ordered plans compiled on demand by RunDeltaPolicy, keyed by
	// order signature. Guarded by mu — unlike the engine, delta runs
	// have no single-threaded barrier to plan at.
	mu      sync.Mutex
	byOrder map[planKey]map[string]*plan
}

// CompileDeltaProgram validates p and compiles its plans. Unlike the
// in-engine prepare step, every positive occurrence of every rule gets
// a delta plan (occ ranges over all subgoals, not just IDB ones).
func CompileDeltaProgram(p *ast.Program) (*DeltaProgram, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	arity, err := p.PredArity()
	if err != nil {
		return nil, err
	}
	dp := &DeltaProgram{
		prog:      p,
		idbPr:     p.IDB(),
		arity:     arity,
		in:        newInterner(),
		plans:     make(map[planKey]*plan, 2*len(p.Rules)),
		headPlans: make([]*plan, len(p.Rules)),
	}
	for i, r := range p.Rules {
		dp.plans[planKey{i, -1}] = compilePlan(dp.in, r, i, -1)
		for occ := range r.Pos {
			dp.plans[planKey{i, occ}] = compilePlan(dp.in, r, i, occ)
		}
		dp.headPlans[i] = compilePlanBound(dp.in, r, i, -1, true)
	}
	return dp, nil
}

// Program returns the compiled program. Callers must not mutate it.
func (dp *DeltaProgram) Program() *ast.Program { return dp.prog }

// IsIDB reports whether pred is derived by some rule of the program.
func (dp *DeltaProgram) IsIDB(pred string) bool { return dp.idbPr[pred] }

// PredArity returns the arity of a predicate the program mentions.
func (dp *DeltaProgram) PredArity(pred string) (int, bool) {
	n, ok := dp.arity[pred]
	return n, ok
}

// IRel is an interned relation owned by the caller: flat rows of
// DeltaProgram-interned ids, append-only, set-semantic (Add dedups).
type IRel struct{ r *irel }

// NewIRel returns an empty relation of the given arity.
func (dp *DeltaProgram) NewIRel(arity int) *IRel {
	return &IRel{r: newIrel(arity, 0)}
}

// Len returns the number of rows.
func (ir *IRel) Len() int { return ir.r.n }

// Arity returns the relation's arity.
func (ir *IRel) Arity() int { return ir.r.arity }

// Row returns row i. The slice aliases internal storage: callers must
// not modify it, and must not retain it across an Add (which may grow
// the backing array).
func (ir *IRel) Row(i int) []uint32 { return ir.r.row(i) }

// Add appends a row unless already present, copying the values, and
// reports whether the row was new.
func (ir *IRel) Add(row []uint32) bool { return ir.r.add(row) }

// Contains reports whether the relation holds the row.
func (ir *IRel) Contains(row []uint32) bool { return ir.r.contains(row) }

// DistinctEstimate returns the estimated number of distinct values in
// column j — exact for small relations, a linear-counting sketch
// estimate past the spill threshold (see stats.go). This is the
// statistic RunDeltaPolicy's cost model consumes, exported so
// incremental-maintenance tests can pin sketch maintenance across
// retraction-driven rebuilds.
func (ir *IRel) DistinctEstimate(j int) int { return ir.r.distinct(j) }

// View returns a snapshot of the relation's current contents. Because
// IRel is append-only, the snapshot stays frozen while later rows are
// added — the cheap MVCC that lets a delta pass read "old" state while
// building "new".
func (ir *IRel) View() RelView {
	if ir == nil {
		return RelView{}
	}
	return RelView{Rel: ir, Hi: ir.r.n}
}

// RelView is a prefix snapshot of an append-only relation: rows
// [0, Hi) of Rel. The zero value is an empty relation.
type RelView struct {
	Rel *IRel
	Hi  int
}

// Len returns the number of visible rows.
func (v RelView) Len() int {
	if v.Rel == nil {
		return 0
	}
	return v.Hi
}

// Contains reports membership within the prefix in O(1): the backing
// hash set stores row indexes, so a hit beyond Hi is a row appended
// after the snapshot and reads as absent.
func (v RelView) Contains(row []uint32) bool { return v.view().contains(row) }

// view converts the snapshot to the executor's representation.
func (v RelView) view() view {
	if v.Rel == nil {
		return view{}
	}
	return view{r: v.Rel.r, hi: v.Hi}
}

// Row returns row i of the snapshot (caller must not modify).
func (v RelView) Row(i int) []uint32 { return v.Rel.r.row(i) }

// InternFact interns a ground tuple of pred, appending the row to buf
// and returning it. Errors on unknown predicates, arity mismatches, and
// non-ground arguments.
func (dp *DeltaProgram) InternFact(pred string, args []ast.Term, buf []uint32) ([]uint32, error) {
	ar, ok := dp.arity[pred]
	if !ok {
		return nil, fmt.Errorf("eval: predicate %s is not mentioned by the program", pred)
	}
	if len(args) != ar {
		return nil, fmt.Errorf("eval: %s expects %d arguments, got %d", pred, ar, len(args))
	}
	for _, t := range args {
		if !t.IsConst() {
			return nil, fmt.Errorf("eval: fact %s(...) has non-ground argument %s", pred, t)
		}
		buf = append(buf, dp.in.intern(t))
	}
	return buf, nil
}

// Tuple converts an interned row back to terms.
func (dp *DeltaProgram) Tuple(row []uint32) Tuple {
	out := make(Tuple, len(row))
	for i, id := range row {
		out[i] = dp.in.term(id)
	}
	return out
}

// Atom converts an interned row of pred back to a ground atom.
func (dp *DeltaProgram) Atom(pred string, row []uint32) ast.Atom {
	return ast.Atom{Pred: pred, Args: dp.Tuple(row)}
}

// exec prepares one delta run of rule ruleIdx under plan pl: the
// caller's views become the executor's, and each negated subgoal is
// resolved once through negs (nil negs reads every negated instance as
// absent).
func (dp *DeltaProgram) exec(ctx context.Context, ruleIdx int, pl *plan, subs []RelView, negs func(string) RelView, emit func([]uint32) error) (*planExec, error) {
	r := dp.prog.Rules[ruleIdx]
	if got, want := len(subs), len(r.Pos); got != want {
		return nil, fmt.Errorf("eval: rule %d has %d subgoals, got %d views", ruleIdx, want, got)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	views := make([]view, len(subs))
	for i, v := range subs {
		views[i] = v.view()
	}
	negViews := make([]view, len(r.Neg))
	if negs != nil {
		for i, a := range r.Neg {
			negViews[i] = negs(a.Pred).view()
		}
	}
	x := &planExec{}
	x.init(ctx, dp.in, pl, views, negViews, emitFunc(emit))
	return x, nil
}

// run executes one delta run, returning its probe count.
func (dp *DeltaProgram) run(ctx context.Context, ruleIdx int, pl *plan, subs []RelView, negs func(string) RelView, emit func([]uint32) error) (int64, error) {
	x, err := dp.exec(ctx, ruleIdx, pl, subs, negs, emit)
	if err != nil {
		return 0, err
	}
	err = x.joinFrom(0)
	return x.probes, err
}

// RunDelta evaluates rule ruleIdx with subgoal occ (by subgoal index;
// -1 for the full join) delta-restricted, reading each positive subgoal
// j from subs[j] and each negated subgoal from negs(pred) (nil negs
// reads every negated instance as absent). emit is called once per
// complete rule firing with the instantiated head row; the slice is
// reused across calls, so copy it to retain, and a non-nil emit error
// aborts the run and is returned verbatim. No dedup, budget, or
// firing/derivation accounting happens here — only join probes are
// counted (the returned int64); delta passes own those semantics.
// Emitting may append to the very relations being read: views bound
// the iteration to their frozen prefix.
func (dp *DeltaProgram) RunDelta(ctx context.Context, ruleIdx, occ int, subs []RelView, negs func(string) RelView, emit func([]uint32) error) (int64, error) {
	pl, ok := dp.plans[planKey{ruleIdx, occ}]
	if !ok {
		return 0, fmt.Errorf("eval: no plan for rule %d occurrence %d", ruleIdx, occ)
	}
	return dp.run(ctx, ruleIdx, pl, subs, negs, emit)
}

// RunDeltaPolicy is RunDelta under a join-order policy. Greedy (or "")
// runs the precompiled plan unchanged. Cost and adaptive order the
// join per call from the views' statistics — row counts come from each
// view's prefix length, distinct estimates from the backing relation's
// sketches (a full-relation approximation of the prefix; documented
// slack the cost model tolerates) — and adaptive additionally returns
// immediately when any positive subgoal's view is empty. There is no
// mid-run reorder in delta passes: they are short-lived and the emit
// contract (every firing, caller-owned dedup) leaves no safe
// checkpoint. Emission order can differ across policies; the counting
// and DRed passes are order-insensitive (signed sums and sets), which
// is what keeps View answers, counts, and provenance identical under
// every policy.
func (dp *DeltaProgram) RunDeltaPolicy(ctx context.Context, ruleIdx, occ int, policy JoinOrderPolicy, subs []RelView, negs func(string) RelView, emit func([]uint32) error) (int64, error) {
	if policy == "" || policy == PolicyGreedy {
		return dp.RunDelta(ctx, ruleIdx, occ, subs, negs, emit)
	}
	base, ok := dp.plans[planKey{ruleIdx, occ}]
	if !ok {
		return 0, fmt.Errorf("eval: no plan for rule %d occurrence %d", ruleIdx, occ)
	}
	r := dp.prog.Rules[ruleIdx]
	if got, want := len(subs), len(r.Pos); got != want {
		return 0, fmt.Errorf("eval: rule %d has %d subgoals, got %d views", ruleIdx, want, got)
	}
	if policy == PolicyAdaptive && len(r.Pos) > 0 {
		for _, v := range subs {
			if v.Len() == 0 {
				return 0, nil // early exit: the rule cannot fire
			}
		}
	}
	order, _ := costJoinOrder(r, occ, func(si int) relEstimate { return subs[si].view().estimate() }, nil)
	pl := base
	if !intsEqual(order, base.order) {
		pl = dp.planForOrder(ruleIdx, occ, order)
	}
	return dp.run(ctx, ruleIdx, pl, subs, negs, emit)
}

// planForOrder returns the cached plan for a cost-chosen order,
// compiling it on first use. The recompile only read-hits the shared
// interner — every constant the rule mentions was interned when the
// base plans were compiled — so it is safe alongside concurrent
// greedy-plan readers.
func (dp *DeltaProgram) planForOrder(ruleIdx, occ int, order []int) *plan {
	sig := orderSig(order)
	k := planKey{ruleIdx, occ}
	dp.mu.Lock()
	defer dp.mu.Unlock()
	if dp.byOrder == nil {
		dp.byOrder = map[planKey]map[string]*plan{}
	}
	m := dp.byOrder[k]
	if m == nil {
		m = map[string]*plan{}
		dp.byOrder[k] = m
	}
	if pl := m[sig]; pl != nil {
		return pl
	}
	pl := compilePlanOrdered(dp.in, dp.prog.Rules[ruleIdx], ruleIdx, occ, false, order)
	m[sig] = pl
	return pl
}

// Derivable reports whether head — an interned row of rule ruleIdx's
// head predicate — has at least one firing over the supplied views. It
// uses the rule's head-bound plan: the candidate row seeds the binding
// slots, so every subgoal sees the head's variables as bound and the
// join explores only instantiations that could derive exactly this
// row. Probe count is returned for accounting.
func (dp *DeltaProgram) Derivable(ctx context.Context, ruleIdx int, head []uint32, subs []RelView, negs func(string) RelView) (bool, int64, error) {
	pl := dp.headPlans[ruleIdx]
	x, err := dp.exec(ctx, ruleIdx, pl, subs, negs, func([]uint32) error { return errStopRun })
	if err != nil {
		return false, 0, err
	}
	// Seed the binding from the candidate row: constants must match
	// outright; variable slots take the row's value, and a second pass
	// catches repeated head variables whose positions disagree (the
	// last write wins in pass one, so any mismatch survives to pass
	// two).
	for j, c := range pl.head.isConst {
		if c {
			if head[j] != pl.head.vals[j] {
				return false, 0, nil
			}
		} else {
			x.binding[pl.head.vals[j]] = head[j]
		}
	}
	for j, c := range pl.head.isConst {
		if !c && x.binding[pl.head.vals[j]] != head[j] {
			return false, 0, nil
		}
	}
	err = x.joinFrom(0)
	if err == errStopRun {
		return true, x.probes, nil
	}
	return false, x.probes, err
}
