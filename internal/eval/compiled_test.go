package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval/evalref"
	"repro/internal/parser"
)

// --- differential harness -------------------------------------------------

// engineRun captures everything observable from one evaluation:
// relations (as sorted fact strings per predicate), Stats, and the
// rendered derivation tree of every derived fact. Every tree is also
// checked for soundness against the program and the EDB.
type engineRun struct {
	preds map[string][]string
	stats Stats
	prov  string
}

func runEngine(t *testing.T, p *ast.Program, db *DB, opts Options) engineRun {
	t.Helper()
	idb, prov, stats, err := evalProvOpts(context.Background(), p, db, opts)
	if err != nil {
		t.Fatalf("opts %+v: %v", opts, err)
	}
	out := engineRun{preds: map[string][]string{}, stats: *stats}
	idbPreds := p.IDB()
	for _, pred := range idb.Preds() {
		out.preds[pred] = idb.SortedFacts(pred)
		for _, f := range idb.Facts(pred) {
			d, err := prov.Tree(f, idbPreds, db)
			if err != nil {
				t.Fatalf("opts %+v: no derivation for %s: %v", opts, f, err)
			}
			if err := checkDerivation(p, db, d); err != nil {
				t.Fatalf("opts %+v: unsound derivation of %s: %v\n%s", opts, f, err, d)
			}
			out.prov += d.String()
		}
	}
	return out
}

// requireReference asserts that a run's relations are exactly the
// reference evaluator's least model.
func requireReference(t *testing.T, label string, p *ast.Program, db *DB, preds map[string][]string) {
	t.Helper()
	if want := evalref.Eval(p, db); !reflect.DeepEqual(preds, want) {
		t.Fatalf("%s: answers differ from the reference evaluator:\ngot  %v\nwant %v", label, preds, want)
	}
}

// withoutProbes returns s with JoinProbes cleared: scanning instead of
// probing an index changes how many candidates are examined, never
// which rows match or in what order.
func withoutProbes(s Stats) *Stats {
	s.JoinProbes = 0
	return &s
}

// requireEngineGrid runs the engine over every (Workers, Scan)
// combination: answers must equal the reference evaluator's; Stats
// and provenance must be bit-identical across worker counts; and the
// scan path must match the indexed path in everything but JoinProbes.
func requireEngineGrid(t *testing.T, label string, p *ast.Program, db *DB) {
	t.Helper()
	var indexed engineRun
	for _, scan := range []bool{false, true} {
		var first engineRun
		for i, workers := range []int{1, 4} {
			r := runEngine(t, p, db, Options{Scan: scan, Workers: workers})
			ctx := fmt.Sprintf("%s (scan=%v workers=%d)", label, scan, workers)
			if i == 0 {
				if !scan {
					requireReference(t, ctx, p, db, r.preds)
				}
				first = r
				continue
			}
			if !r.stats.Equal(&first.stats) {
				t.Fatalf("%s: stats vary with workers:\n%+v\nvs\n%+v", ctx, first.stats, r.stats)
			}
			if r.prov != first.prov {
				t.Fatalf("%s: provenance varies with workers:\n%s\nvs\n%s", ctx, first.prov, r.prov)
			}
		}
		if !scan {
			indexed = first
			continue
		}
		if !reflect.DeepEqual(first.preds, indexed.preds) {
			t.Fatalf("%s: scan answers differ from indexed", label)
		}
		if !withoutProbes(first.stats).Equal(withoutProbes(indexed.stats)) {
			t.Fatalf("%s: scan stats differ from indexed beyond probes:\n%+v\nvs\n%+v", label, first.stats, indexed.stats)
		}
		if first.stats.JoinProbes < indexed.stats.JoinProbes {
			t.Fatalf("%s: scan probed less than the index (%d < %d)", label, first.stats.JoinProbes, indexed.stats.JoinProbes)
		}
		if first.prov != indexed.prov {
			t.Fatalf("%s: scan provenance differs from indexed", label)
		}
	}
}

// --- named workloads ------------------------------------------------------

func TestCompiledDifferentialTransClosure(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	requireEngineGrid(t, "trans closure", p, chainEDB(40))
}

func TestCompiledDifferentialGoodPath(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
		?- goodPath.
	`)
	db := chainEDB(30)
	db.AddFact(ast.NewAtom("startPoint", ast.N(3)))
	db.AddFact(ast.NewAtom("endPoint", ast.N(20)))
	requireEngineGrid(t, "goodPath", p, db)
}

func TestCompiledDifferentialMultiRule(t *testing.T) {
	p := parser.MustParseProgram(`
		reach(X, Y) :- edge(X, Y), !blocked(X).
		reach(X, Y) :- edge(X, Z), reach(Z, Y), !blocked(X).
		back(X, Y) :- edge(Y, X).
		back(X, Y) :- back(X, Z), back(Z, Y).
		meet(X, Y) :- reach(X, Y), back(X, Y).
		joined(X, Z) :- reach(X, Y), reach(Y, Z).
		far(X, Y) :- reach(X, Y), X < Y.
		sym(X, Y) :- reach(X, Y), reach(Y, X), X != Y.
		?- meet.
	`)
	db := NewDB()
	for i := 0; i < 10; i++ {
		db.AddFact(ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64((i+1)%10))))
		db.AddFact(ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64((i*3)%10))))
	}
	db.AddFact(ast.NewAtom("blocked", ast.N(3)))
	requireEngineGrid(t, "multi-rule", p, db)
}

func TestCompiledDifferentialEdgeCases(t *testing.T) {
	// Zero-ary predicates, constants in heads and bodies, repeated
	// variables, negation on an absent relation.
	p := parser.MustParseProgram(`
		halt :- reach(X), final(X).
		reach(X) :- start(X).
		reach(Y) :- reach(X), step(X, Y).
		loop(X) :- selfstep(X, X).
		tagged(X, 99) :- reach(X), !missing(X).
		?- halt.
	`)
	db := chainEDB(6)
	db.AddFact(ast.NewAtom("start", ast.N(1)))
	db.AddFact(ast.NewAtom("final", ast.N(5)))
	db.AddFact(ast.NewAtom("selfstep", ast.N(2), ast.N(2)))
	db.AddFact(ast.NewAtom("selfstep", ast.N(2), ast.N(3)))
	requireEngineGrid(t, "edge cases", p, db)
}

func TestCompiledZeroSubgoalRules(t *testing.T) {
	// Rules with no positive subgoals exercise the finish-step filter
	// path: their comparisons can never become ground mid-join.
	p := &ast.Program{
		Rules: []ast.Rule{
			{Head: ast.NewAtom("flag", ast.N(1))},
			{Head: ast.NewAtom("flag", ast.N(2)), Cmp: []ast.Cmp{ast.NewCmp(ast.N(2), ast.LT, ast.N(3))}},
			{Head: ast.NewAtom("flag", ast.N(3)), Cmp: []ast.Cmp{ast.NewCmp(ast.N(3), ast.LT, ast.N(2))}},
		},
		Query: "flag",
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	requireEngineGrid(t, "zero-subgoal", p, NewDB())
	idb, _, err := Eval(p, NewDB())
	if err != nil {
		t.Fatal(err)
	}
	if got := idb.SortedFacts("flag"); !reflect.DeepEqual(got, []string{"flag(1)", "flag(2)"}) {
		t.Fatalf("flag = %v", got)
	}
}

// TestCompiledGreedyReorder pins a workload where the greedy planner
// genuinely reorders (a constant-bearing subgoal moves first): answers
// must still match the reference, and Stats must stay
// worker-invariant.
func TestCompiledGreedyReorder(t *testing.T) {
	p := parser.MustParseProgram(`
		out(X, Y) :- e(X, Y), f(Y, 3).
		?- out.
	`)
	if got := greedyJoinOrder(p.Rules[0], -1); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Fatalf("expected greedy order to pull f first, got %v", got)
	}
	rng := rand.New(rand.NewSource(11))
	db := NewDB()
	for i := 0; i < 60; i++ {
		db.AddFact(ast.NewAtom("e", ast.N(float64(rng.Intn(10))), ast.N(float64(rng.Intn(10)))))
		db.AddFact(ast.NewAtom("f", ast.N(float64(rng.Intn(10))), ast.N(float64(rng.Intn(5)))))
	}
	requireEngineGrid(t, "greedy reorder", p, db)
}

// --- randomized programs --------------------------------------------------

// TestCompiledDifferentialRandomPrograms generates random programs
// (random rule subsets, constants, comparisons, negation) over random
// databases and runs each through the engine grid.
func TestCompiledDifferentialRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	extras := []string{
		"q(X, Y) :- p(X, Y), f(Y, %c).\n",
		"q(X, Y) :- f(X, %c), p(X, Y).\n",
		"r(X) :- p(X, X).\n",
		"s(X, Y) :- p(X, Y), X < Y, !g(X).\n",
		"u(X) :- e(X, Y), f(Y, %c), Y > %c.\n",
		"v(X, Z) :- p(X, Y), p(Y, Z), X != Z.\n",
	}
	for trial := 0; trial < 12; trial++ {
		p, db := randomProgram(t, rng, extras, trial)
		requireEngineGrid(t, fmt.Sprintf("random trial %d", trial), p, db)
	}
}

// randomProgram builds transitive closure plus a random subset of
// extras (each %c replaced by a small constant) over a random database.
func randomProgram(t *testing.T, rng *rand.Rand, extras []string, trial int) (*ast.Program, *DB) {
	t.Helper()
	src := "p(X, Y) :- e(X, Y).\np(X, Z) :- e(X, Y), p(Y, Z).\n"
	for _, ex := range extras {
		if rng.Intn(2) == 0 {
			continue
		}
		for {
			i := indexByte(ex, '%')
			if i < 0 {
				break
			}
			ex = ex[:i] + fmt.Sprintf("%d", rng.Intn(5)) + ex[i+2:]
		}
		src += ex
	}
	src += "?- p.\n"
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("trial %d: %v\n%s", trial, err, src)
	}
	db := NewDB()
	n := 4 + rng.Intn(5)
	for i := 0; i < n*3; i++ {
		db.AddFact(ast.NewAtom("e", ast.N(float64(rng.Intn(n))), ast.N(float64(rng.Intn(n)))))
		db.AddFact(ast.NewAtom("f", ast.N(float64(rng.Intn(n))), ast.N(float64(rng.Intn(5)))))
	}
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			db.AddFact(ast.NewAtom("g", ast.N(float64(i))))
		}
	}
	return p, db
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// --- cancellation -------------------------------------------------------

func TestCompiledCancellation(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := chainEDB(200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := EvalCtx(ctx, p, db, DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// --- unit tests for the interned layer ------------------------------------

func TestInternerRoundTrip(t *testing.T) {
	in := newInterner()
	terms := []ast.Term{ast.N(1), ast.S("x"), ast.S("1"), ast.N(1.5), ast.N(1)}
	ids := make([]uint32, len(terms))
	for i, tm := range terms {
		ids[i] = in.intern(tm)
	}
	if ids[0] != ids[4] {
		t.Fatal("equal terms must share an id")
	}
	if ids[0] == ids[2] {
		t.Fatal("number 1 and string 1 must differ")
	}
	for i, tm := range terms {
		if !in.term(ids[i]).Equal(tm) {
			t.Fatalf("roundtrip failed for %v", tm)
		}
		if in.termKey(ids[i]) != tm.Key() {
			t.Fatalf("termKey mismatch for %v", tm)
		}
	}
}

func TestIrelAddContains(t *testing.T) {
	r := newIrel(2, 0)
	if !r.add([]uint32{1, 2}) || r.add([]uint32{1, 2}) {
		t.Fatal("dedup broken")
	}
	for i := uint32(0); i < 2000; i++ {
		r.add([]uint32{i % 50, i})
	}
	if !r.contains([]uint32{1, 2}) || r.contains([]uint32{2, 1}) {
		t.Fatal("contains broken")
	}
	if r.n != 2001 {
		t.Fatalf("n = %d", r.n)
	}
}

func TestIrelZeroArity(t *testing.T) {
	r := newIrel(0, 0)
	if r.contains(nil) {
		t.Fatal("empty zero-ary relation must not contain the empty row")
	}
	if !r.add(nil) || r.add(nil) {
		t.Fatal("zero-ary add/dedup broken")
	}
	if !r.contains(nil) || r.n != 1 {
		t.Fatal("zero-ary contains broken")
	}
}

func TestRowIndexChainsAscending(t *testing.T) {
	r := newIrel(2, 0)
	for i := uint32(0); i < 500; i++ {
		r.add([]uint32{i % 7, i})
	}
	ix := r.index(1<<0, []int{0})
	for key := uint32(0); key < 7; key++ {
		var got []int32
		for ri := ix.lookup(r, []uint32{key}); ri >= 0; ri = ix.next[ri] {
			got = append(got, ri)
		}
		var want []int32
		for i := 0; i < r.n; i++ {
			if r.row(i)[0] == key {
				want = append(want, int32(i))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("key %d: chain %v, want ascending %v", key, got, want)
		}
	}
	if ix.lookup(r, []uint32{9}) != -1 {
		t.Fatal("missing key must return -1")
	}
	// Incremental append after the index exists.
	r.add([]uint32{3, 9999})
	last := int32(-1)
	for ri := ix.lookup(r, []uint32{3}); ri >= 0; ri = ix.next[ri] {
		last = ri
	}
	if last != int32(r.n-1) {
		t.Fatalf("appended row not at chain tail: %d", last)
	}
}

func TestGreedyJoinOrder(t *testing.T) {
	r := parser.MustParseProgram(`
		out(X, Y) :- e(X, Y), f(Y, 3).
		?- out.
	`).Rules[0]
	if got := greedyJoinOrder(r, -1); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Fatalf("constants must pull f first: %v", got)
	}
	// Delta occurrence stays first even when another subgoal scores
	// higher.
	if got := greedyJoinOrder(r, 0); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("delta occurrence must stay first: %v", got)
	}
	r2 := parser.MustParseProgram(`
		tri(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).
		?- tri.
	`).Rules[0]
	// No constants anywhere: ties break to the lowest index, i.e. rule
	// order.
	if got := greedyJoinOrder(r2, -1); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("tie-break must keep static order: %v", got)
	}
	if got := greedyJoinOrder(r2, 2); !reflect.DeepEqual(got, []int{2, 0, 1}) {
		t.Fatalf("delta-first then bound-greedy: %v", got)
	}
}

func TestDBCloneDirectCopy(t *testing.T) {
	db := NewDB()
	db.AddFact(ast.NewAtom("e", ast.N(1), ast.N(2)))
	db.AddFact(ast.NewAtom("e", ast.N(2), ast.N(3)))
	clone := db.Clone()
	if clone.Count("e") != 2 || !clone.Contains(ast.NewAtom("e", ast.N(1), ast.N(2))) {
		t.Fatal("clone lost tuples")
	}
	// Adding to the clone must not affect the original (seen maps are
	// independent).
	clone.AddFact(ast.NewAtom("e", ast.N(9), ast.N(9)))
	if db.Count("e") != 2 {
		t.Fatal("clone shares state with original")
	}
	if !clone.Contains(ast.NewAtom("e", ast.N(9), ast.N(9))) {
		t.Fatal("clone add failed")
	}
}
