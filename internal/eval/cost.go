package eval

// Cost-based join ordering (PolicyCost, PolicyAdaptive). The cost
// model is deliberately tiny — the estimates it consumes are the
// per-relation statistics the intern layer maintains for free (row
// count, per-column distinct sketches; see stats.go) — because the
// shootout this reproduces (PAPERS.md: "When Greedy Beats Optimal")
// hinges on planning staying cheap relative to the joins it saves.
//
// The estimated match count of probing subgoal s with some argument
// positions bound is
//
//	est(s) = n(s) / Π_{j bound} distinct(s, j)
//
// clamped to ≥1 once anything is bound (a probe can always match one
// row), and 0 for an empty relation. Ordering is greedy smallest-
// estimate-first over that model: ties keep the lowest subgoal index,
// so orders — and therefore Stats under each policy — stay
// deterministic for a fixed program, database, and options.

import "repro/internal/ast"

// relEstimate is the planning-time statistics snapshot of one
// subgoal's relation.
type relEstimate struct {
	n        int
	distinct []int // per column; nil when n == 0
}

// estimate snapshots a view's statistics: the row count is the
// prefix length, distinct estimates come from the backing relation's
// sketches (a full-relation approximation of a prefix; slack the cost
// model tolerates).
func (v view) estimate() relEstimate {
	if v.hi == 0 {
		return relEstimate{}
	}
	d := make([]int, v.r.arity)
	for j := range d {
		d[j] = v.r.distinct(j)
	}
	return relEstimate{n: v.hi, distinct: d}
}

// estFunc resolves the statistics of a subgoal (by index into
// Rule.Pos) at planning time.
type estFunc func(subIdx int) relEstimate

// viewsEstimate resolves subgoal statistics from per-subgoal views.
func viewsEstimate(views []view) estFunc {
	return func(si int) relEstimate { return views[si].estimate() }
}

// costJoinOrder orders the subgoals of r greedily by minimum estimated
// match count under the model above. first pins a subgoal to depth 0
// (-1 for a free choice): round planning pins the delta occurrence —
// the executor's partitioning and delta-restriction contract — and
// mid-task reorders pin the depth-0 subgoal a task is already
// iterating. override maps subgoal index → observed fan-out; the
// adaptive executor feeds misestimates back through it, and it
// replaces the model's estimate whenever the subgoal is probed with
// some but not all positions bound (a fully-bound probe is a
// membership check, which the observation says nothing about).
//
// Returns the order and, per depth, the estimated rows matching each
// probe — what the adaptive executor compares observations against.
func costJoinOrder(r ast.Rule, first int, est estFunc, override map[int]float64) ([]int, []float64) {
	n := len(r.Pos)
	order := make([]int, 0, n)
	ests := make([]float64, 0, n)
	used := make([]bool, n)
	bound := map[string]bool{}

	fanout := func(i int) float64 {
		re := est(i)
		if re.n == 0 {
			return 0
		}
		args := r.Pos[i].Args
		boundCols := 0
		e := float64(re.n)
		for j, t := range args {
			if t.IsConst() || bound[t.Name] {
				boundCols++
				if d := re.distinct[j]; d > 1 {
					e /= float64(d)
				}
			}
		}
		if boundCols == 0 {
			return e
		}
		if ov, ok := override[i]; ok && boundCols < len(args) {
			return ov
		}
		if e < 1 {
			e = 1
		}
		return e
	}
	take := func(i int, e float64) {
		order = append(order, i)
		ests = append(ests, e)
		used[i] = true
		for _, t := range r.Pos[i].Args {
			if t.IsVar() {
				bound[t.Name] = true
			}
		}
	}

	if first >= 0 && first < n {
		take(first, fanout(first))
	}
	for len(order) < n {
		best, bestE := -1, 0.0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if e := fanout(i); best < 0 || e < bestE {
				best, bestE = i, e
			}
		}
		take(best, bestE)
	}
	return order, ests
}

// orderSig packs a join order into a cache key. Subgoal counts exceed
// a byte only for rules with >255 positive subgoals, which the parser
// would have long since made someone regret.
func orderSig(order []int) string {
	b := make([]byte, len(order))
	for i, v := range order {
		b[i] = byte(v)
	}
	return string(b)
}
