package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval/evalref"
	"repro/internal/parser"
)

// engineRuns is the policy × worker matrix the goal-directed
// differential tests sweep; every cell must answer identically.
func engineRuns() []struct {
	label string
	opts  Options
} {
	return []struct {
		label string
		opts  Options
	}{
		{"greedy-w1", Options{Workers: 1}},
		{"cost-w1", Options{Workers: 1, Policy: PolicyCost}},
		{"adaptive-w1", Options{Workers: 1, Policy: PolicyAdaptive}},
		{"greedy-w3", Options{Workers: 3}},
		{"adaptive-w3", Options{Workers: 3, Policy: PolicyAdaptive}},
	}
}

// answerSet renders query tuples as a sorted key list. Magic and
// bottom-up derive tuples in different orders, so answers compare as
// sets, never as sequences.
func answerSet(tuples []Tuple) []string {
	out := make([]string, len(tuples))
	for i, t := range tuples {
		parts := make([]string, len(t))
		for j, term := range t {
			parts[j] = term.Key()
		}
		out[i] = strings.Join(parts, "\x00")
	}
	sort.Strings(out)
	return out
}

// renderAnswers renders query tuples as sorted facts of pred, the
// format of evalref.Answers.
func renderAnswers(pred string, tuples []Tuple) []string {
	out := make([]string, len(tuples))
	for i, t := range tuples {
		out[i] = ast.NewAtom(pred, t...).String()
	}
	sort.Strings(out)
	return out
}

// requireRefAnswers asserts that query tuples are exactly the
// reference evaluator's goal answers.
func requireRefAnswers(t *testing.T, label string, p *ast.Program, db *DB, tuples []Tuple) {
	t.Helper()
	if got, want := renderAnswers(p.Query, tuples), evalref.Answers(p, db); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: answers differ from the reference evaluator (%d vs %d)\n got %v\nwant %v",
			label, len(got), len(want), got, want)
	}
}

// chainEdges adds edge(i, i+1) facts for i in [from, from+n) —
// workload.Chain's shape, inlined because workload imports eval.
func chainEdges(db *DB, from, n int) {
	for i := from; i < from+n; i++ {
		db.AddFact(ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64(i+1))))
	}
}

func chainDB(n int) *DB {
	db := NewDB()
	chainEdges(db, 0, n)
	return db
}

// disjointChainsDB builds k disjoint chains of n edges each (chain c
// occupies nodes [c*1000, c*1000+n]); a goal bound to node 0 reaches
// only the first chain, so demand pruning has something to prune.
func disjointChainsDB(k, n int) *DB {
	db := NewDB()
	for c := 0; c < k; c++ {
		chainEdges(db, c*1000, n)
	}
	return db
}

// TestMagicDifferentialTC is the headline property: a bound point
// query on transitive closure answers like the reference evaluator
// with and without the magic rewrite across every policy and worker
// count — while magic does an order of magnitude less work.
func TestMagicDifferentialTC(t *testing.T) {
	for _, variant := range []string{
		// Right-linear: demand prunes to the reachable set.
		`path(X, Y) :- edge(X, Y).
		 path(X, Y) :- edge(X, Z), path(Z, Y).
		 ?- path(0, Y).`,
		// Left-linear: the recursive call keeps the head's binding.
		`path(X, Y) :- edge(X, Y).
		 path(X, Y) :- path(X, Z), edge(Z, Y).
		 ?- path(0, Y).`,
		// Fully bound goal.
		`path(X, Y) :- edge(X, Y).
		 path(X, Y) :- edge(X, Z), path(Z, Y).
		 ?- path(0, 15).`,
	} {
		p := parser.MustParseProgram(variant)
		// 20-edge chains keep the naive reference evaluator (quadratic
		// per round, one round per chain edge) affordable under -race.
		db := disjointChainsDB(8, 20)
		want := evalref.Answers(p, db)
		var offDerived, onDerived int64
		for _, r := range engineRuns() {
			for _, mode := range []MagicMode{MagicOff, MagicAuto, MagicOn} {
				opts := r.opts
				opts.Magic = mode
				label := fmt.Sprintf("%s/%s", r.label, mode)
				tuples, stats, err := QueryCtx(context.Background(), p, db, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if wantMagic := mode != MagicOff; stats.MagicApplied != wantMagic {
					t.Fatalf("%s: MagicApplied = %v, want %v", label, stats.MagicApplied, wantMagic)
				}
				if mode == MagicOff {
					offDerived = stats.TuplesDerived
				} else {
					onDerived = stats.TuplesDerived
				}
				if got := renderAnswers(p.Query, tuples); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: answers differ from the reference (%d vs %d)\n%v\nvs\n%v",
						label, len(got), len(want), got, want)
				}
			}
		}
		if onDerived >= offDerived {
			t.Errorf("magic derived %d tuples, bottom-up %d; expected pruning on\n%s",
				onDerived, offDerived, variant)
		}
	}
}

// TestMagicPointQueryPruning pins the ISSUE acceptance bound: on the
// disjoint-chains workload a bound point query under magic derives at
// least 10x fewer tuples than bottom-up.
func TestMagicPointQueryPruning(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		?- path(0, Y).`)
	// 15 disjoint chains; the goal reaches only the first, and the
	// right-linear rewrite still re-derives that chain's closure, so
	// the pruning factor is just under the chain count.
	db := disjointChainsDB(15, 40)
	opts := DefaultOptions()
	opts.Magic = MagicOff
	offTuples, offStats, err := QueryCtx(context.Background(), p, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Magic = MagicAuto
	onTuples, onStats, err := QueryCtx(context.Background(), p, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(answerSet(onTuples), answerSet(offTuples)) {
		t.Fatalf("answers diverged: %d vs %d tuples", len(onTuples), len(offTuples))
	}
	if onStats.TuplesDerived*10 > offStats.TuplesDerived {
		t.Errorf("magic derived %d tuples, want <= 1/10 of bottom-up's %d",
			onStats.TuplesDerived, offStats.TuplesDerived)
	}
	if onStats.PeakMaterialized >= offStats.PeakMaterialized {
		t.Errorf("magic peak %d >= bottom-up peak %d", onStats.PeakMaterialized, offStats.PeakMaterialized)
	}
}

// TestMagicFallback: goals the rewrite cannot use still answer
// correctly (bottom-up plus goal filtering) with MagicApplied false.
func TestMagicFallback(t *testing.T) {
	cases := []struct{ name, src string }{
		{"unbound goal", `p(X, Y) :- e(X, Y). ?- p(A, B).`},
		{"repeated variable", `p(X, Y) :- e(X, Y). ?- p(V, V).`},
		{"no goal", `p(X, Y) :- e(X, Y). ?- p.`},
	}
	db := NewDB()
	db.AddFact(ast.NewAtom("e", ast.N(1), ast.N(1)))
	db.AddFact(ast.NewAtom("e", ast.N(1), ast.N(2)))
	db.AddFact(ast.NewAtom("e", ast.N(2), ast.N(2)))
	for _, tc := range cases {
		p := parser.MustParseProgram(tc.src)
		tuples, stats, err := QueryCtx(context.Background(), p, db, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if stats.MagicApplied {
			t.Errorf("%s: MagicApplied = true, want fallback", tc.name)
		}
		want := 3
		if tc.name == "repeated variable" {
			want = 2 // the diagonal: (1,1) and (2,2)
		}
		if len(tuples) != want {
			t.Errorf("%s: %d answers, want %d: %v", tc.name, len(tuples), want, answerSet(tuples))
		}
	}
}

// TestGoalFilterWithoutMagic: goal constants select even under
// MagicOff, and repeated goal variables force equality.
func TestGoalFilterWithoutMagic(t *testing.T) {
	p := parser.MustParseProgram(`p(X, Y) :- e(X, Y). ?- p(1, Y).`)
	db := NewDB()
	db.AddFact(ast.NewAtom("e", ast.N(1), ast.N(2)))
	db.AddFact(ast.NewAtom("e", ast.N(3), ast.N(4)))
	opts := DefaultOptions()
	opts.Magic = MagicOff
	tuples, _, err := QueryCtx(context.Background(), p, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 || !tuples[0][0].Equal(ast.N(1)) || !tuples[0][1].Equal(ast.N(2)) {
		t.Fatalf("goal filter failed: %v", answerSet(tuples))
	}
}

// TestMagicModeValidation: unknown mode strings are rejected up front.
func TestMagicModeValidation(t *testing.T) {
	p := parser.MustParseProgram(`p(X) :- e(X). ?- p(1).`)
	opts := DefaultOptions()
	opts.Magic = "sometimes"
	if _, _, err := QueryCtx(context.Background(), p, NewDB(), opts); err == nil {
		t.Fatal("bad magic mode accepted by QueryCtx")
	}
	if _, _, err := EvalCtx(context.Background(), p, NewDB(), opts); err == nil {
		t.Fatal("bad magic mode accepted by EvalCtx")
	}
	if _, err := ParseMagicMode(""); err != nil {
		t.Fatalf("empty mode: %v", err)
	}
}

// TestStreamDifferential: streaming unfolding never changes answers
// and lowers the materialized footprint on a pipeline-shaped program.
func TestStreamDifferential(t *testing.T) {
	p := parser.MustParseProgram(`
		hop1(X, Y) :- edge(X, Y).
		hop2(X, Y) :- hop1(X, Z), edge(Z, Y).
		hop3(X, Y) :- hop2(X, Z), edge(Z, Y).
		q(X, Y) :- hop3(X, Z), edge(Z, Y).
		?- q.`)
	db := NewDB()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 120; i++ {
		db.AddFact(ast.NewAtom("edge", ast.N(float64(rng.Intn(30))), ast.N(float64(rng.Intn(30)))))
	}
	var plainPeak, streamPeak int64
	for _, r := range engineRuns() {
		for _, stream := range []bool{false, true} {
			opts := r.opts
			opts.Stream = stream
			tuples, stats, err := QueryCtx(context.Background(), p, db, opts)
			if err != nil {
				t.Fatalf("%s/stream=%v: %v", r.label, stream, err)
			}
			if stream {
				streamPeak = stats.PeakMaterialized
			} else {
				plainPeak = stats.PeakMaterialized
			}
			requireRefAnswers(t, fmt.Sprintf("%s/stream=%v", r.label, stream), p, db, tuples)
		}
	}
	if streamPeak >= plainPeak {
		t.Errorf("stream peak %d >= plain peak %d; pipeline should not materialize hops", streamPeak, plainPeak)
	}
}

// TestMagicStreamCombined: both rewrites stacked still answer
// identically to plain bottom-up.
func TestMagicStreamCombined(t *testing.T) {
	p := parser.MustParseProgram(`
		hop(X, Y) :- edge(X, Y).
		path(X, Y) :- hop(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		?- path(0, Y).`)
	db := chainDB(40)
	off := DefaultOptions()
	off.Magic = MagicOff
	wantTuples, _, err := QueryCtx(context.Background(), p, db, off)
	if err != nil {
		t.Fatal(err)
	}
	on := DefaultOptions()
	on.Stream = true
	gotTuples, stats, err := QueryCtx(context.Background(), p, db, on)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.MagicApplied {
		t.Error("MagicApplied = false, want true")
	}
	if !reflect.DeepEqual(answerSet(gotTuples), answerSet(wantTuples)) {
		t.Fatalf("answers diverged: %v vs %v", answerSet(gotTuples), answerSet(wantTuples))
	}
}

// TestMagicPeakDeterministic: PeakMaterialized agrees across policies
// and worker counts, like every other deterministic counter.
func TestMagicPeakDeterministic(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		?- path.`)
	db := chainDB(25)
	var peak int64 = -1
	for _, r := range engineRuns() {
		_, stats, err := QueryCtx(context.Background(), p, db, r.opts)
		if err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		if stats.PeakMaterialized <= 0 {
			t.Fatalf("%s: PeakMaterialized = %d, want > 0", r.label, stats.PeakMaterialized)
		}
		if peak < 0 {
			peak = stats.PeakMaterialized
		} else if stats.PeakMaterialized != peak {
			t.Fatalf("%s: PeakMaterialized = %d, want %d", r.label, stats.PeakMaterialized, peak)
		}
	}
}

// FuzzMagic drives arbitrary programs with arbitrary binding patterns
// through the goal-directed path and asserts the one contract that
// matters: magic on (with and without streaming), across policies and
// worker counts, answers exactly like bottom-up evaluation of the same
// goal, which in turn answers like the reference evaluator. Mirrors
// FuzzPlan's EDB construction; the bottom-up baseline decides
// evaluability.
func FuzzMagic(f *testing.F) {
	f.Add(`path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
?- path.`, uint8(1), uint8(1))
	f.Add(`p(X, Y) :- e(X, Y).
p(X, Y) :- p(X, Z), e(Z, Y).
?- p.`, uint8(2), uint8(2))
	f.Add(`q(X) :- a(X, Y), b(Y), !c(X).
r(X) :- q(X), a(X, X).
?- r.`, uint8(3), uint8(1))
	f.Add(`s(X, Z) :- e(X, Y), f(Y, Z), X < Z.
t(X, Y) :- s(X, Y), s(Y, X).
?- t.`, uint8(4), uint8(3))
	f.Add(`mid(X, Y) :- e(X, Y).
q(X, Y) :- mid(X, Z), f(Z, Y).
?- q.`, uint8(5), uint8(1))

	f.Fuzz(func(t *testing.T, src string, seed, bindMask uint8) {
		unit, err := parser.Parse(src)
		if err != nil {
			return
		}
		p := unit.Program
		if p.Query == "" {
			return
		}
		arity, err := p.PredArity()
		if err != nil {
			return
		}
		db := NewDB()
		for _, fact := range unit.Facts {
			if ar, ok := arity[fact.Pred]; ok && ar != fact.Arity() {
				return
			}
			arity[fact.Pred] = fact.Arity()
			db.AddFact(fact)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		for pred := range p.EDB() {
			ar := arity[pred]
			if ar == 0 || ar > 4 {
				continue
			}
			for n := 0; n < 8; n++ {
				args := make([]ast.Term, ar)
				for j := range args {
					args[j] = ast.N(float64(rng.Intn(6)))
				}
				db.AddFact(ast.NewAtom(pred, args...))
			}
		}
		// Synthesize a goal from the binding mask: bit i set binds
		// argument i to a random domain constant.
		n := arity[p.Query]
		if n > 0 {
			goal := make([]ast.Term, n)
			for i := 0; i < n; i++ {
				if bindMask&(1<<i) != 0 {
					goal[i] = ast.N(float64(rng.Intn(6)))
				} else {
					goal[i] = ast.V(fmt.Sprintf("G%d", i))
				}
			}
			p.Goal = goal
		}

		off := Options{Workers: 1, Magic: MagicOff, MaxTuples: 20000}
		baseTuples, _, err := QueryCtx(context.Background(), p, db, off)
		if err != nil {
			return // baseline decides evaluability
		}
		requireRefAnswers(t, "bottom-up baseline", p, db, baseTuples)
		want := renderAnswers(p.Query, baseTuples)
		for _, r := range engineRuns() {
			for _, stream := range []bool{false, true} {
				opts := r.opts
				opts.Stream = stream
				opts.MaxTuples = 40000 // magic adds sup/demand tuples, so allow headroom
				gotTuples, _, err := QueryCtx(context.Background(), p, db, opts)
				if err != nil {
					if errors.Is(err, ErrBudget) {
						continue // rewrite overhead can exceed even the headroom
					}
					t.Fatalf("%s/stream=%v errored where baseline succeeded: %v", r.label, stream, err)
				}
				if got := renderAnswers(p.Query, gotTuples); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/stream=%v: answers diverged\n got %v\nwant %v\ngoal %s",
						r.label, stream, got, want, p.GoalAtom())
				}
			}
		}
	})
}
