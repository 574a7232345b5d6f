package eval

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// evalAllWorkers evaluates the program under every worker count and
// returns the resulting databases and stats, failing the test on any
// evaluation error.
func evalAllWorkers(t *testing.T, p *ast.Program, db *DB, base Options, workers []int) ([]*DB, []*Stats) {
	t.Helper()
	var idbs []*DB
	var stats []*Stats
	for _, w := range workers {
		opts := base
		opts.Workers = w
		idb, st, err := EvalWith(p, db, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		idbs = append(idbs, idb)
		stats = append(stats, st)
	}
	return idbs, stats
}

// requireIdentical asserts that every evaluation produced the same
// relations (byte-identical sorted fact lists) and the same Stats.
func requireIdentical(t *testing.T, label string, workers []int, idbs []*DB, stats []*Stats) {
	t.Helper()
	for i := 1; i < len(idbs); i++ {
		if !stats[i].Equal(stats[0]) {
			t.Fatalf("%s: stats differ between workers=%d and workers=%d:\n%+v\nvs\n%+v",
				label, workers[0], workers[i], *stats[0], *stats[i])
		}
		preds := idbs[0].Preds()
		if got := idbs[i].Preds(); !reflect.DeepEqual(got, preds) {
			t.Fatalf("%s: predicate sets differ: %v vs %v", label, preds, got)
		}
		for _, pred := range preds {
			want := idbs[0].SortedFacts(pred)
			if got := idbs[i].SortedFacts(pred); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: workers=%d disagrees on %s:\n%v\nvs\n%v",
					label, workers[i], pred, got, want)
			}
		}
	}
}

// TestParallelMatchesSequentialRandomGraphs is the engine-level
// differential test: on random graphs, parallel evaluation must return
// byte-identical relations AND byte-identical Stats for every worker
// count, indexed and scanned.
func TestParallelMatchesSequentialRandomGraphs(t *testing.T) {
	prog := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		sym(X, Y) :- path(X, Y), path(Y, X), X != Y.
		far(X, Y) :- path(X, Y), X < Y.
		?- path.
	`)
	workers := []int{1, 2, 4, 8}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		db := NewDB()
		n := 3 + rng.Intn(8)
		for i := 0; i < n*3; i++ {
			db.AddFact(ast.NewAtom("edge",
				ast.N(float64(rng.Intn(n))), ast.N(float64(rng.Intn(n)))))
		}
		for _, base := range []Options{{}, {Scan: true}} {
			idbs, stats := evalAllWorkers(t, prog, db, base, workers)
			requireIdentical(t, "random graph", workers, idbs, stats)
		}
	}
}

// TestParallelMultiRule exercises rule-level parallelism: many
// independent rules per round, plus a rule with two IDB occurrences
// (two delta tasks per round) and negation.
func TestParallelMultiRule(t *testing.T) {
	prog := parser.MustParseProgram(`
		reach(X, Y) :- edge(X, Y), !blocked(X).
		reach(X, Y) :- edge(X, Z), reach(Z, Y), !blocked(X).
		back(X, Y) :- edge(Y, X).
		back(X, Y) :- back(X, Z), back(Z, Y).
		meet(X, Y) :- reach(X, Y), back(X, Y).
		joined(X, Z) :- reach(X, Y), reach(Y, Z).
		?- meet.
	`)
	db := NewDB()
	for i := 0; i < 12; i++ {
		db.AddFact(ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64((i+1)%12))))
		db.AddFact(ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64((i*5)%12))))
	}
	db.AddFact(ast.NewAtom("blocked", ast.N(3)))
	workers := []int{1, 2, 4, 8}
	idbs, stats := evalAllWorkers(t, prog, db, Options{}, workers)
	requireIdentical(t, "multi-rule", workers, idbs, stats)
	if idbs[0].Count("meet") == 0 || idbs[0].Count("joined") == 0 {
		t.Fatal("sanity: expected non-empty results")
	}
}

// TestParallelLargeChain forces many partitioned delta tasks per round
// on a workload big enough that every worker stays busy.
func TestParallelLargeChain(t *testing.T) {
	prog := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := chainEDB(80)
	workers := []int{1, 4}
	idbs, stats := evalAllWorkers(t, prog, db, Options{}, workers)
	requireIdentical(t, "large chain", workers, idbs, stats)
	if got := idbs[0].Count("path"); got != 80*79/2 {
		t.Fatalf("path count = %d", got)
	}
}

// TestParallelMaxTuplesBudget: the budget guard must fire under
// parallel evaluation too, with the same ErrBudget-wrapping error at
// every worker count.
func TestParallelMaxTuplesBudget(t *testing.T) {
	prog := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := chainEDB(100)
	var first error
	for _, w := range []int{1, 4} {
		_, _, err := EvalWith(prog, db, Options{MaxTuples: 50, Workers: w})
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("workers=%d: expected a budget error, got %v", w, err)
		}
		if first == nil {
			first = err
		} else if err.Error() != first.Error() {
			t.Fatalf("workers=%d: error text %q differs from %q", w, err, first)
		}
	}
}

// TestWorkersDefaultResolution: Workers == 0 must resolve to a positive
// pool size and evaluate normally.
func TestWorkersDefaultResolution(t *testing.T) {
	if got := (Options{}).effectiveWorkers(); got < 1 {
		t.Fatalf("effectiveWorkers = %d", got)
	}
	if got := (Options{Workers: 3}).effectiveWorkers(); got != 3 {
		t.Fatalf("effectiveWorkers = %d, want 3", got)
	}
	prog := parser.MustParseProgram(`
		q(X) :- e(X).
		?- q.
	`)
	db := NewDB()
	db.AddFact(ast.NewAtom("e", ast.N(1)))
	idb, _, err := EvalWith(prog, db, Options{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if idb.Count("q") != 1 {
		t.Fatal("q not derived")
	}
}

// TestConcurrentIndexSameMask is the regression test for the lazy
// index build race: many goroutines probe the same un-indexed position
// mask (and several others) on a shared relation, as the tasks of one
// round do. Run with -race.
func TestConcurrentIndexSameMask(t *testing.T) {
	r := newIrel(2, 0)
	for i := uint32(0); i < 2000; i++ {
		r.add([]uint32{i % 50, i})
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint32(0); i < 50; i++ {
				ix := r.index(1<<0, []int{0})
				n := 0
				for ri := ix.lookup(r, []uint32{i}); ri >= 0; ri = ix.next[ri] {
					n++
				}
				if n != 40 {
					t.Errorf("mask [0] val %d: %d rows, want 40", i, n)
					return
				}
				_ = r.index(1<<1, []int{1}).lookup(r, []uint32{i})
				_ = r.index(1<<0|1<<1, []int{0, 1}).lookup(r, []uint32{i % 50, i})
			}
		}()
	}
	wg.Wait()
}

// TestParallelProvenanceDeterministic: provenance recorded under the
// default (parallel-capable) options must be identical across runs and
// reconstruct valid derivation trees.
func TestParallelProvenanceDeterministic(t *testing.T) {
	prog := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := chainEDB(20)
	idbPreds := prog.IDB()
	var rendered []string
	for run := 0; run < 3; run++ {
		idb, prov, _, err := EvalProv(prog, db)
		if err != nil {
			t.Fatal(err)
		}
		all := ""
		for _, f := range idb.Facts("path") {
			d, err := prov.Tree(f, idbPreds, db)
			if err != nil {
				t.Fatalf("no derivation for %s: %v", f, err)
			}
			all += d.String()
		}
		rendered = append(rendered, all)
	}
	for run := 1; run < 3; run++ {
		if rendered[run] != rendered[0] {
			t.Fatal("provenance differs between runs")
		}
	}
}

// TestPartitioningInvariance: results must not depend on how depth-0
// scans are partitioned, which is exercised by comparing worker counts
// that straddle the partitioning thresholds on a relation big enough
// to split many ways.
func TestPartitioningInvariance(t *testing.T) {
	prog := parser.MustParseProgram(`
		big(X, Y) :- e(X, Y), X < Y.
		pair(X, Z) :- big(X, Y), big(Y, Z).
		?- pair.
	`)
	rng := rand.New(rand.NewSource(99))
	db := NewDB()
	for i := 0; i < 400; i++ {
		db.AddFact(ast.NewAtom("e",
			ast.N(float64(rng.Intn(40))), ast.N(float64(rng.Intn(40)))))
	}
	workers := []int{1, 2, 3, 5, 16, 64}
	idbs, stats := evalAllWorkers(t, prog, db, Options{}, workers)
	requireIdentical(t, "partitioning", workers, idbs, stats)
}
