package eval

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval/evalref"
	"repro/internal/parser"
)

// FuzzPlan drives arbitrary parsed programs through the engine under
// all three join-order policies and both index modes, and asserts the
// engine's core contract: the answer set is the reference evaluator's
// least model, every recorded derivation is sound, and the
// order-invariant statistics (iterations, tuples derived) never depend
// on which policy picked the join order or how many workers ran.
// Inputs that fail to parse or validate are skipped; inputs where the
// baseline errors (e.g. the MaxTuples guard trips) skip the comparison,
// since abort points are not part of the contract.
func FuzzPlan(f *testing.F) {
	f.Add(`p(X, Y) :- e(X, Y).
p(X, Y) :- e(X, Z), p(Z, Y).
?- p.`, uint8(1))
	f.Add(`q(X) :- a(X, Y), b(Y), !c(X).
r(X) :- q(X), a(X, X).
?- r.`, uint8(2))
	f.Add(`s(X, Z) :- e(X, Y), f(Y, Z), X < Z.
t(X) :- s(X, Y), s(Y, X).
?- t.`, uint8(3))
	f.Add(`even(X) :- zero(X).
even(Y) :- odd(X), succ(X, Y).
odd(Y) :- even(X), succ(X, Y).
?- even.`, uint8(4))
	f.Add(`w(X) :- g(X, 3), h(3, X).
?- w.`, uint8(5))

	f.Fuzz(func(t *testing.T, src string, seed uint8) {
		unit, err := parser.Parse(src)
		if err != nil {
			return
		}
		p := unit.Program
		arity, err := p.PredArity()
		if err != nil {
			return
		}
		// Deterministic small EDB: a handful of rows per extensional
		// predicate over a tiny domain, so joins actually join.
		db := NewDB()
		for _, fact := range unit.Facts {
			// Facts live outside the program, so PredArity does not see
			// them; skip inputs where a fact's arity conflicts with the
			// program's (or an earlier fact's) use of the predicate.
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

		type run struct {
			label string
			opts  Options
		}
		runs := []run{
			{"greedy", Options{Workers: 1}},
			{"scan", Options{Workers: 1, Scan: true}},
			{"cost", Options{Workers: 1, Policy: PolicyCost}},
			{"adaptive", Options{Workers: 1, Policy: PolicyAdaptive}},
			{"cost-w3", Options{Workers: 3, Policy: PolicyCost}},
			{"adaptive-w3", Options{Workers: 3, Policy: PolicyAdaptive}},
		}
		type outcome struct {
			answers map[string][]string
			derived int64
			rounds  int
		}
		var base *outcome
		baseLabel := ""
		for _, r := range runs {
			r.opts.MaxTuples = 20000
			idb, prov, stats, err := evalProvOpts(context.Background(), p, db, r.opts)
			if err != nil {
				// The baseline decides whether this input evaluates at
				// all: an erroring baseline skips the whole comparison.
				// Every run derives the same tuples, so the budget
				// guard trips in all runs or in none.
				if base != nil {
					t.Fatalf("%s errored where %s succeeded: %v", r.label, baseLabel, err)
				}
				return
			}
			got := &outcome{
				answers: map[string][]string{},
				derived: stats.TuplesDerived,
				rounds:  stats.Iterations,
			}
			for pred := range p.IDB() {
				got.answers[pred] = idb.SortedFacts(pred)
				for _, f := range idb.Facts(pred) {
					d, err := prov.Tree(f, p.IDB(), db)
					if err == nil {
						err = checkDerivation(p, db, d)
					}
					if err != nil {
						t.Fatalf("%s: derivation of %s: %v", r.label, f, err)
					}
				}
			}
			if base == nil {
				if want := evalref.Eval(p, db); !reflect.DeepEqual(got.answers, want) {
					t.Fatalf("answers differ from the reference evaluator:\n%v\nvs\n%v", got.answers, want)
				}
				base, baseLabel = got, r.label
				continue
			}
			if !reflect.DeepEqual(got.answers, base.answers) {
				t.Fatalf("answers diverged: %s vs %s\n%v\nvs\n%v", r.label, baseLabel, got.answers, base.answers)
			}
			if got.derived != base.derived || got.rounds != base.rounds {
				t.Fatalf("order-invariant stats diverged: %s (derived=%d rounds=%d) vs %s (derived=%d rounds=%d)",
					r.label, got.derived, got.rounds, baseLabel, base.derived, base.rounds)
			}
		}
	})
}
