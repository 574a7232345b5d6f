package eval

// Compiled rule plans. A plan is built once per (rule, delta-occurrence)
// pair before the fixpoint starts and fixes everything that would
// otherwise be re-derived per candidate tuple: the join order, each
// subgoal's bound argument positions (with constants pre-interned),
// variable → binding-slot assignments, the earliest join depth at which
// every comparison and negation filter is ground, and the head/body
// templates used to emit facts and provenance.
//
// The join order is chosen greedily: after the delta occurrence (which
// must stay first — it is the smallest relation and the partitioned
// one), the next subgoal is the one with the most argument positions
// that are constants or already-bound variables, tie-broken by the
// lowest subgoal index. The score depends only on the rule's structure,
// never on data or worker count, so Stats stay deterministic.
//
// Slot bindings need no save/restore on backtrack: the binding
// progression along the join order is static, so a slot is only ever
// read at depths where the plan guarantees it was bound — a stale value
// left in a slot by an abandoned branch is never observable.

import "repro/internal/ast"

// planKey identifies a compiled plan: rule index plus the subgoal index
// restricted to the previous delta (-1 for none).
type planKey struct {
	ruleIdx int
	occ     int
}

// atomTpl is an atom with each argument resolved to either an interned
// constant id or a binding-slot number.
type atomTpl struct {
	pred    string
	idx     int // negated subgoals: index into Rule.Neg, selecting the executor's view
	isConst []bool
	vals    []uint32 // constant id when isConst, else slot
}

// cmpPlan is a comparison with both sides resolved to an interned
// constant id or a slot.
type cmpPlan struct {
	op             ast.CmpOp
	lConst, rConst bool
	l, r           uint32
}

// subPlan is one join step.
type subPlan struct {
	subIdx int // index into Rule.Pos, selecting the executor's view
	// Argument positions bound before this subgoal is probed, and the
	// constant id (boundConst) or slot (otherwise) each must equal.
	boundPos   []int
	boundConst []bool
	boundVal   []uint32
	mask       uint64 // bitmask of boundPos, the index key
	indexable  bool   // all boundPos < 64 (mask representable)
	// Fresh variables this subgoal binds: slot[k] = row[bindPos[k]].
	bindPos  []int
	bindSlot []uint32
	// Later occurrences of a variable first bound earlier in this same
	// atom: row[checkPos[k]] must equal the slot bound by bindPos.
	checkPos  []int
	checkSlot []uint32
	// Filters that first become ground once this subgoal is bound.
	cmps []cmpPlan
	negs []atomTpl
}

// plan is the compiled form of one (rule, occurrence) task.
type plan struct {
	ruleIdx int
	occ     int
	order   []int // join depth → subgoal index
	subs    []subPlan
	nSlots  int
	// Filters of zero-subgoal rules, applied at the finish step (rules
	// with subgoals always ground their filters at some join depth).
	finishCmps []cmpPlan
	finishNegs []atomTpl
	head       atomTpl
	// Templates in rule order for materializing provenance steps.
	posTpls     []atomTpl
	negTpls     []atomTpl
	maxNegArity int
}

// greedyJoinOrder orders the subgoals of r for a task restricted to
// delta occurrence occ (-1 for none). See the package comment above.
func greedyJoinOrder(r ast.Rule, occ int) []int {
	return greedyJoinOrderBound(r, occ, nil)
}

// greedyJoinOrderBound is greedyJoinOrder with a set of variables known
// to be bound before the first subgoal is probed (head-bound
// derivability plans seed the head's variables this way).
func greedyJoinOrderBound(r ast.Rule, occ int, preBound map[string]bool) []int {
	n := len(r.Pos)
	order := make([]int, 0, n)
	used := make([]bool, n)
	bound := map[string]bool{}
	for v := range preBound {
		bound[v] = true
	}
	take := func(i int) {
		order = append(order, i)
		used[i] = true
		for _, t := range r.Pos[i].Args {
			if t.IsVar() {
				bound[t.Name] = true
			}
		}
	}
	if occ >= 0 && occ < n {
		take(occ)
	}
	for len(order) < n {
		best, bestScore := -1, -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			score := 0
			for _, t := range r.Pos[i].Args {
				if t.IsConst() || bound[t.Name] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		take(best)
	}
	return order
}

// compilePlan builds the plan for one (rule, occurrence) task, interning
// every constant the rule mentions.
func compilePlan(in *interner, r ast.Rule, ruleIdx, occ int) *plan {
	return compilePlanBound(in, r, ruleIdx, occ, false)
}

// compilePlanBound is compilePlan with an optional head-bound mode:
// when headBound is true the head's variables are assigned the lowest
// slots (in order of first occurrence in the head) and treated as bound
// from depth 0. The executor seeds those slots from a candidate head
// row before joining, which turns the plan into a derivability check —
// every subgoal sees the head variables as bound positions, so the join
// only explores instantiations that could derive exactly that row
// (DRed's rederivation step in internal/incr).
func compilePlanBound(in *interner, r ast.Rule, ruleIdx, occ int, headBound bool) *plan {
	return compilePlanOrdered(in, r, ruleIdx, occ, headBound, nil)
}

// compilePlanOrdered is compilePlanBound with an explicit join order
// (nil falls back to the greedy order). Orders come from the cost
// policy (costJoinOrder); they are permutations of the subgoal indexes
// and, for delta tasks, keep the occurrence at depth 0. Every plan for
// the same (rule, occ) has the same nSlots — slots number the rule's
// variables, not join depths — which is what lets the adaptive
// executor swap plans mid-task without touching its binding buffer.
func compilePlanOrdered(in *interner, r ast.Rule, ruleIdx, occ int, headBound bool, order []int) *plan {
	n := len(r.Pos)
	pl := &plan{ruleIdx: ruleIdx, occ: occ}

	slots := map[string]uint32{}
	slotOf := func(name string) uint32 {
		if s, ok := slots[name]; ok {
			return s
		}
		s := uint32(len(slots))
		slots[name] = s
		return s
	}
	bound := map[string]bool{}
	if headBound {
		for _, t := range r.Head.Args {
			if !t.IsConst() {
				slotOf(t.Name)
				bound[t.Name] = true
			}
		}
	}
	if order == nil {
		order = greedyJoinOrderBound(r, occ, bound)
	}
	pl.order = order
	cmpDone := make([]bool, len(r.Cmp))
	negDone := make([]bool, len(r.Neg))
	allBound := func(vars []string) bool {
		for _, v := range vars {
			if !bound[v] {
				return false
			}
		}
		return true
	}

	pl.subs = make([]subPlan, n)
	for d, si := range pl.order {
		sub := r.Pos[si]
		sp := &pl.subs[d]
		sp.subIdx = si
		inAtom := map[string]uint32{}
		for j, t := range sub.Args {
			switch {
			case t.IsConst():
				sp.boundPos = append(sp.boundPos, j)
				sp.boundConst = append(sp.boundConst, true)
				sp.boundVal = append(sp.boundVal, in.intern(t))
			case bound[t.Name]:
				sp.boundPos = append(sp.boundPos, j)
				sp.boundConst = append(sp.boundConst, false)
				sp.boundVal = append(sp.boundVal, slotOf(t.Name))
			case hasKey(inAtom, t.Name):
				sp.checkPos = append(sp.checkPos, j)
				sp.checkSlot = append(sp.checkSlot, inAtom[t.Name])
			default:
				s := slotOf(t.Name)
				inAtom[t.Name] = s
				sp.bindPos = append(sp.bindPos, j)
				sp.bindSlot = append(sp.bindSlot, s)
			}
		}
		sp.indexable = true
		for _, p := range sp.boundPos {
			if p >= 64 {
				// Positions past 64 have no bitmask; fall back to a
				// scan (vanishingly rare — arity > 64).
				sp.indexable = false
			}
		}
		if sp.indexable {
			for _, p := range sp.boundPos {
				sp.mask |= 1 << uint(p)
			}
		}
		for name := range inAtom {
			bound[name] = true
		}
		// Attach every filter that just became ground. The checks are
		// idempotent (comparison operands are fixed once bound, the EDB
		// is frozen), so checking each filter exactly once at its
		// earliest-ground depth prunes as early as re-checking after
		// every extension would.
		for i, c := range r.Cmp {
			if !cmpDone[i] && allBound(c.Vars(nil)) {
				sp.cmps = append(sp.cmps, compileCmp(in, slotOf, c))
				cmpDone[i] = true
			}
		}
		for i, a := range r.Neg {
			if !negDone[i] && allBound(a.Vars(nil)) {
				sp.negs = append(sp.negs, compileNegTpl(in, slotOf, a, i))
				negDone[i] = true
			}
		}
	}
	// Zero-subgoal rules ground their (necessarily variable-free)
	// filters at the finish step.
	for i, c := range r.Cmp {
		if !cmpDone[i] {
			pl.finishCmps = append(pl.finishCmps, compileCmp(in, slotOf, c))
		}
	}
	for i, a := range r.Neg {
		if !negDone[i] {
			pl.finishNegs = append(pl.finishNegs, compileNegTpl(in, slotOf, a, i))
		}
	}

	pl.head = compileAtomTpl(in, slotOf, r.Head)
	for _, a := range r.Pos {
		pl.posTpls = append(pl.posTpls, compileAtomTpl(in, slotOf, a))
	}
	for i, a := range r.Neg {
		tpl := compileNegTpl(in, slotOf, a, i)
		pl.negTpls = append(pl.negTpls, tpl)
		if len(tpl.isConst) > pl.maxNegArity {
			pl.maxNegArity = len(tpl.isConst)
		}
	}
	pl.nSlots = len(slots)
	return pl
}

func hasKey(m map[string]uint32, k string) bool {
	_, ok := m[k]
	return ok
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func compileAtomTpl(in *interner, slotOf func(string) uint32, a ast.Atom) atomTpl {
	tpl := atomTpl{
		pred:    a.Pred,
		isConst: make([]bool, len(a.Args)),
		vals:    make([]uint32, len(a.Args)),
	}
	for j, t := range a.Args {
		if t.IsConst() {
			tpl.isConst[j] = true
			tpl.vals[j] = in.intern(t)
		} else {
			tpl.vals[j] = slotOf(t.Name)
		}
	}
	return tpl
}

// compileNegTpl compiles the i-th negated subgoal of a rule.
func compileNegTpl(in *interner, slotOf func(string) uint32, a ast.Atom, i int) atomTpl {
	tpl := compileAtomTpl(in, slotOf, a)
	tpl.idx = i
	return tpl
}

func compileCmp(in *interner, slotOf func(string) uint32, c ast.Cmp) cmpPlan {
	cp := cmpPlan{op: c.Op}
	if c.Left.IsConst() {
		cp.lConst = true
		cp.l = in.intern(c.Left)
	} else {
		cp.l = slotOf(c.Left.Name)
	}
	if c.Right.IsConst() {
		cp.rConst = true
		cp.r = in.intern(c.Right)
	} else {
		cp.r = slotOf(c.Right.Name)
	}
	return cp
}
