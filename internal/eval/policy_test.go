package eval

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval/evalref"
	"repro/internal/parser"
)

// --- policy differential harness ------------------------------------------
//
// What "bit-identical across policies" can honestly mean: JoinProbes is
// the quantity the policies exist to change, so full Stats equality
// across policies would only hold if the policies never did anything.
// The differential contract is therefore:
//
//   - answers equal the reference evaluator's under every policy and
//     worker count;
//   - every derived fact has a sound derivation tree under every policy
//     (runEngine builds and checks one per fact);
//   - the order-invariant Stats fields — Iterations, RuleFirings,
//     TuplesDerived, RoundDeltas — are identical across policies (a
//     join order permutes probes, never firings or derivations);
//   - within each policy, answers, full Stats, and provenance are
//     bit-identical for every worker count.

// statsOrderInvariantEqual compares the Stats fields a join order
// cannot change.
func statsOrderInvariantEqual(a, b *Stats) bool {
	inv := func(s *Stats) *Stats {
		return &Stats{Iterations: s.Iterations, RuleFirings: s.RuleFirings,
			TuplesDerived: s.TuplesDerived, RoundDeltas: s.RoundDeltas}
	}
	return inv(a).Equal(inv(b))
}

var allPolicies = []JoinOrderPolicy{PolicyGreedy, PolicyCost, PolicyAdaptive}

// requirePoliciesIdentical runs all three policies over workers {1, 4}
// and asserts the contract above. It returns the per-policy
// single-worker stats so callers can additionally assert on probe
// counts or adaptive counters.
func requirePoliciesIdentical(t *testing.T, label string, p *ast.Program, db *DB) map[JoinOrderPolicy]Stats {
	t.Helper()
	out := map[JoinOrderPolicy]Stats{}
	var greedy *engineRun
	for _, pol := range allPolicies {
		var prev *engineRun
		for _, w := range []int{1, 4} {
			cr := runEngine(t, p, db, Options{Workers: w, Policy: pol})
			ctx := fmt.Sprintf("%s (policy=%s workers=%d)", label, pol, w)
			if greedy == nil {
				requireReference(t, ctx, p, db, cr.preds)
				c := cr
				greedy = &c
			}
			if !reflect.DeepEqual(cr.preds, greedy.preds) {
				t.Fatalf("%s: answers differ from greedy", ctx)
			}
			if !statsOrderInvariantEqual(&cr.stats, &greedy.stats) {
				t.Fatalf("%s: order-invariant stats differ from greedy:\ngreedy %+v\npolicy %+v", ctx, greedy.stats, cr.stats)
			}
			if prev != nil {
				if !cr.stats.Equal(&prev.stats) {
					t.Fatalf("%s: stats vary with workers:\n%+v\nvs\n%+v", ctx, prev.stats, cr.stats)
				}
				if cr.prov != prev.prov {
					t.Fatalf("%s: provenance varies with workers", ctx)
				}
			}
			c := cr
			prev = &c
		}
		if pol != PolicyGreedy && prev.prov != greedy.prov {
			// Derivation trees are rebuilt per fact from recorded steps;
			// all policies record a sound step for every fact, but a
			// different join order may reach a fact through a different
			// instantiation first.
			t.Logf("%s: policy %s records different (still sound) provenance steps than greedy", label, pol)
		}
		out[pol] = prev.stats
	}
	return out
}

// --- named workloads ------------------------------------------------------

func TestPolicyDifferentialTransClosure(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	requirePoliciesIdentical(t, "trans closure", p, chainEDB(40))
}

func TestPolicyDifferentialGoodPath(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
		?- goodPath.
	`)
	db := chainEDB(30)
	db.AddFact(ast.NewAtom("startPoint", ast.N(3)))
	db.AddFact(ast.NewAtom("endPoint", ast.N(20)))
	requirePoliciesIdentical(t, "goodPath", p, db)
}

func TestPolicyDifferentialNegationCmp(t *testing.T) {
	p := parser.MustParseProgram(`
		reach(X, Y) :- edge(X, Y), !blocked(X).
		reach(X, Y) :- edge(X, Z), reach(Z, Y), !blocked(X).
		far(X, Y) :- reach(X, Y), X < Y.
		sym(X, Y) :- reach(X, Y), reach(Y, X), X != Y.
		?- far.
	`)
	db := NewDB()
	for i := 0; i < 12; i++ {
		db.AddFact(ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64((i+1)%12))))
		db.AddFact(ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64((i*5)%12))))
	}
	db.AddFact(ast.NewAtom("blocked", ast.N(7)))
	requirePoliciesIdentical(t, "negation+cmp", p, db)
}

// filterSkewDB pins the workload where cost ordering should beat
// greedy outright: a large edge relation joined with a tiny tag
// filter. Greedy (no constants, tie-break by index) scans edge first;
// cost puts the 5-row tag relation first.
func filterSkewDB(edges int) *DB {
	db := NewDB()
	for i := 0; i < edges; i++ {
		db.AddFact(ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64(i%97))))
	}
	for i := 0; i < 5; i++ {
		db.AddFact(ast.NewAtom("tag", ast.N(float64(i))))
	}
	return db
}

func TestPolicyCostBeatsGreedyOnFilterSkew(t *testing.T) {
	p := parser.MustParseProgram(`
		q(X) :- edge(X, Y), tag(Y).
		?- q.
	`)
	stats := requirePoliciesIdentical(t, "filter-skew", p, filterSkewDB(4000))
	g, c := stats[PolicyGreedy].JoinProbes, stats[PolicyCost].JoinProbes
	if c >= g {
		t.Fatalf("cost should probe less than greedy on filter-skew: cost=%d greedy=%d", c, g)
	}
}

// hotKeyDB builds the adaptive showcase: statistics that mislead the
// cost model. mid averages ~1.7 rows per X (15000 filler keys with one
// row each), but every X that src actually selects fans out to 200
// rows; alt always has exactly 2 rows per selected X. Cost orders
// [src, mid, alt] and pays 200 probes per src row; adaptive observes
// the 200x fan-out on the first src row, reorders the tail to
// [src, alt, mid], and pays ~4.
func hotKeyDB() *DB {
	db := NewDB()
	for x := 0; x < 50; x++ {
		db.AddFact(ast.NewAtom("src", ast.N(float64(x))))
		for z := 0; z < 200; z++ {
			db.AddFact(ast.NewAtom("mid", ast.N(float64(x)), ast.N(float64(z))))
		}
		db.AddFact(ast.NewAtom("alt", ast.N(float64(x)), ast.N(0)))
		db.AddFact(ast.NewAtom("alt", ast.N(float64(x)), ast.N(1)))
	}
	for x := 50; x < 15050; x++ {
		db.AddFact(ast.NewAtom("mid", ast.N(float64(x)), ast.N(float64(x))))
		db.AddFact(ast.NewAtom("alt", ast.N(float64(x)), ast.N(float64(x))))
		db.AddFact(ast.NewAtom("alt", ast.N(float64(x)), ast.N(float64(x+1))))
	}
	return db
}

const hotKeySrc = `
	q(X, Z) :- src(X), mid(X, Z), alt(X, Z).
	?- q.
`

func TestPolicyAdaptiveReorderTriggers(t *testing.T) {
	p := parser.MustParseProgram(hotKeySrc)
	stats := requirePoliciesIdentical(t, "hot-key", p, hotKeyDB())
	ad := stats[PolicyAdaptive]
	if ad.AdaptiveReorders == 0 {
		t.Fatalf("adaptive never reordered on the hot-key workload: %+v", ad)
	}
	if c := stats[PolicyCost].JoinProbes; ad.JoinProbes >= c {
		t.Fatalf("adaptive should probe less than cost after reordering: adaptive=%d cost=%d", ad.JoinProbes, c)
	}
}

func TestPolicyAdaptiveSkipsEmptySubgoal(t *testing.T) {
	p := parser.MustParseProgram(`
		q(X) :- e(X, Y), missing(Y).
		r(X) :- e(X, Y).
		?- r.
	`)
	db := NewDB()
	for i := 0; i < 20; i++ {
		db.AddFact(ast.NewAtom("e", ast.N(float64(i)), ast.N(float64(i+1))))
	}
	stats := requirePoliciesIdentical(t, "empty subgoal", p, db)
	if stats[PolicyAdaptive].AdaptiveSkips == 0 {
		t.Fatal("adaptive should skip tasks whose missing() subgoal is empty")
	}
}

// --- ablation coverage: the scan path -----------------------------------

func TestPolicyDifferentialAblations(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := chainEDB(25)
	want := evalref.Eval(p, db)["path"]
	for _, scan := range []bool{false, true} {
		for _, pol := range allPolicies {
			idb, _, err := EvalWith(p, db, Options{Scan: scan, Policy: pol, Workers: 2})
			if err != nil {
				t.Fatalf("scan=%v policy=%s: %v", scan, pol, err)
			}
			if !reflect.DeepEqual(idb.SortedFacts("path"), want) {
				t.Fatalf("scan=%v policy=%s: answers differ from the reference", scan, pol)
			}
		}
	}
}

// --- randomized programs --------------------------------------------------

func TestPolicyDifferentialRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	extras := []string{
		"q(X, Y) :- p(X, Y), f(Y, %c).\n",
		"q(X, Y) :- f(X, %c), p(X, Y).\n",
		"r(X) :- p(X, X).\n",
		"s(X, Y) :- p(X, Y), X < Y, !g(X).\n",
		"u(X) :- e(X, Y), f(Y, %c), Y > %c.\n",
		"v(X, Z) :- p(X, Y), p(Y, Z), X != Z.\n",
	}
	for trial := 0; trial < 10; trial++ {
		p, db := randomProgram(t, rng, extras, trial)
		requirePoliciesIdentical(t, fmt.Sprintf("random trial %d", trial), p, db)
	}
}

func TestParseJoinOrderPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want JoinOrderPolicy
		ok   bool
	}{
		{"", PolicyGreedy, true},
		{"greedy", PolicyGreedy, true},
		{"cost", PolicyCost, true},
		{"adaptive", PolicyAdaptive, true},
		{"Greedy", "", false},
		{"optimal", "", false},
	} {
		got, err := ParseJoinOrderPolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("ParseJoinOrderPolicy(%q) = %q, %v", tc.in, got, err)
		}
	}
}

func TestPolicyOptionsValidation(t *testing.T) {
	p := parser.MustParseProgram("q(X) :- e(X, X).\n?- q.\n")
	db := NewDB()
	if _, _, err := EvalWith(p, db, Options{Policy: "bogus"}); err == nil {
		t.Fatal("unknown policy must error")
	}
	for _, pol := range []JoinOrderPolicy{"", PolicyGreedy, PolicyCost, PolicyAdaptive} {
		if _, _, err := EvalWith(p, db, Options{Policy: pol}); err != nil {
			t.Fatalf("policy %q: %v", pol, err)
		}
	}
}

func TestCostJoinOrderUnit(t *testing.T) {
	r := parser.MustParseProgram(`
		q(X) :- big(X, Y), small(Y).
		?- q.
	`).Rules[0]
	est := func(si int) relEstimate {
		if si == 0 {
			return relEstimate{n: 1000, distinct: []int{500, 40}}
		}
		return relEstimate{n: 3, distinct: []int{3}}
	}
	order, ests := costJoinOrder(r, -1, est, nil)
	if !reflect.DeepEqual(order, []int{1, 0}) {
		t.Fatalf("cost must scan the 3-row relation first: %v", order)
	}
	// Depth 1 probes big with Y bound: 1000/40 = 25 expected matches.
	if ests[0] != 3 || ests[1] != 25 {
		t.Fatalf("ests = %v, want [3 25]", ests)
	}
	// The delta occurrence stays pinned first even when it is larger.
	order, _ = costJoinOrder(r, 0, est, nil)
	if !reflect.DeepEqual(order, []int{0, 1}) {
		t.Fatalf("delta occurrence must stay first: %v", order)
	}
	// An empty relation orders before everything.
	estEmpty := func(si int) relEstimate {
		if si == 1 {
			return relEstimate{}
		}
		return est(si)
	}
	order, ests = costJoinOrder(r, -1, estEmpty, nil)
	if !reflect.DeepEqual(order, []int{1, 0}) || ests[0] != 0 {
		t.Fatalf("empty relation must order first with estimate 0: %v %v", order, ests)
	}
	// An override replaces the estimate for partially-bound probes.
	order, _ = costJoinOrder(r, -1, est, map[int]float64{0: 1e6})
	if !reflect.DeepEqual(order, []int{1, 0}) {
		t.Fatalf("override order: %v", order)
	}
}
