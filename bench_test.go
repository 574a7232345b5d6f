package sqo

// Benchmarks, one per experiment of DESIGN.md's per-experiment index.
// `go test -bench=. -benchmem` regenerates the performance side of
// EXPERIMENTS.md; the cmd/sqobench harness prints the full tables.

import (
	"fmt"
	"testing"

	"repro/internal/tcm"
	"repro/internal/workload"
)

const goodPathSrc = `
	path(X, Y) :- step(X, Y).
	path(X, Y) :- step(X, Z), path(Z, Y).
	goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
	?- goodPath.
`

const figure1Src = `
	p(X, Y) :- a(X, Y).
	p(X, Y) :- b(X, Y).
	p(X, Y) :- a(X, Z), p(Z, Y).
	p(X, Y) :- b(X, Z), p(Z, Y).
	?- p.
`

// BenchmarkF1QueryTree measures construction of the Figure 1 query
// forest (optimization itself, no evaluation).
func BenchmarkF1QueryTree(b *testing.B) {
	p := MustParseProgram(figure1Src)
	ics := MustParseICs(`:- a(X, Y), b(Y, Z).`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Optimize(p, ics)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Satisfiable {
			b.Fatal("unexpected unsatisfiable")
		}
	}
}

// benchEval factors the evaluate-original-vs-rewritten pattern.
func benchEval(b *testing.B, prog *Program, db *DB) {
	benchEvalWith(b, prog, db, DefaultEvalOptions())
}

// evalOptsWorkers is DefaultEvalOptions with a fixed worker count.
func evalOptsWorkers(w int) EvalOptions {
	o := DefaultEvalOptions()
	o.Workers = w
	return o
}

func benchEvalWith(b *testing.B, prog *Program, db *DB, opts EvalOptions) {
	b.ReportAllocs()
	var probes int64
	for i := 0; i < b.N; i++ {
		_, stats, err := EvalWith(prog, db, opts)
		if err != nil {
			b.Fatal(err)
		}
		probes = stats.JoinProbes
	}
	b.ReportMetric(float64(probes), "probes")
}

// BenchmarkE1GoodPath evaluates the Example 3.1 rule with and without
// the Y > X residue.
func BenchmarkE1GoodPath(b *testing.B) {
	p := MustParseProgram(`
		goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
		?- goodPath.
	`)
	ics := MustParseICs(`:- startPoint(X), endPoint(Y), Y <= X.`)
	res, err := Optimize(p, ics)
	if err != nil {
		b.Fatal(err)
	}
	db := NewDBFrom(workload.StarPaths(40, 40))
	b.Run("original", func(b *testing.B) { benchEval(b, p, db) })
	b.Run("rewritten", func(b *testing.B) { benchEval(b, res.Program, db) })
	b.Run("original-seq", func(b *testing.B) {
		benchEvalWith(b, p, db, evalOptsWorkers(1))
	})
	b.Run("original-par4", func(b *testing.B) {
		benchEvalWith(b, p, db, evalOptsWorkers(4))
	})
}

// BenchmarkE2Threshold evaluates the Section 3 threshold example.
func BenchmarkE2Threshold(b *testing.B) {
	p := MustParseProgram(goodPathSrc)
	ics := MustParseICs(`
		:- startPoint(X), step(X, Y), X < 100.
		:- step(X, Y), X >= Y.
	`)
	res, err := Optimize(p, ics)
	if err != nil {
		b.Fatal(err)
	}
	db := NewDBFrom(workload.GoodPath(200, 100, 40))
	b.Run("original", func(b *testing.B) { benchEval(b, p, db) })
	b.Run("rewritten", func(b *testing.B) { benchEval(b, res.Program, db) })
	b.Run("original-seq", func(b *testing.B) {
		benchEvalWith(b, p, db, evalOptsWorkers(1))
	})
	b.Run("original-par4", func(b *testing.B) {
		benchEvalWith(b, p, db, evalOptsWorkers(4))
	})
}

// BenchmarkE3ABPaths evaluates the Figure 1 two-flavour closure.
func BenchmarkE3ABPaths(b *testing.B) {
	p := MustParseProgram(figure1Src)
	ics := MustParseICs(`:- a(X, Y), b(Y, Z).`)
	res, err := Optimize(p, ics)
	if err != nil {
		b.Fatal(err)
	}
	db := NewDBFrom(workload.ABComb(8, 14, 14))
	b.Run("original", func(b *testing.B) { benchEval(b, p, db) })
	b.Run("rewritten", func(b *testing.B) { benchEval(b, res.Program, db) })
	b.Run("original-seq", func(b *testing.B) {
		benchEvalWith(b, p, db, evalOptsWorkers(1))
	})
	b.Run("original-par4", func(b *testing.B) {
		benchEvalWith(b, p, db, evalOptsWorkers(4))
	})
}

// BenchmarkE4Construction measures query-tree construction cost as the
// program family grows.
func BenchmarkE4Construction(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4} {
		src := ""
		for i := 0; i < k; i++ {
			src += fmt.Sprintf("p(X, Y) :- e%d(X, Y).\n", i)
			src += fmt.Sprintf("p(X, Y) :- e%d(X, Z), p(Z, Y).\n", i)
		}
		src += "?- p.\n"
		icsSrc := ""
		for i := 0; i+1 < k; i++ {
			icsSrc += fmt.Sprintf(":- e%d(X, Y), e%d(Y, Z).\n", i+1, i)
		}
		p := MustParseProgram(src)
		ics := MustParseICs(icsSrc)
		b.Run(fmt.Sprintf("flavours=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Optimize(p, ics); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5Emptiness measures the NP emptiness decision on join
// chains (Theorem 5.2(1)).
func BenchmarkE5Emptiness(b *testing.B) {
	for _, l := range []int{4, 8} {
		body := ""
		for i := 0; i < l; i++ {
			body += fmt.Sprintf("r%d(X%d, X%d), ", i, i, i+1)
		}
		src := fmt.Sprintf("q(X0, X%d) :- %s.\n?- q.\n", l, body[:len(body)-2])
		p := MustParseProgram(src)
		ics := MustParseICs(fmt.Sprintf(":- r%d(X, Y), r%d(Y, Z).", l/2-1, l/2))
		b.Run(fmt.Sprintf("chain=%d", l), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				empty, decided, err := Empty(p, ics, EmptinessOptions{})
				if err != nil || !decided || !empty {
					b.Fatalf("empty=%v decided=%v err=%v", empty, decided, err)
				}
			}
		})
	}
}

// BenchmarkE6Containment measures the Proposition 5.1 reduction round
// trip on the recursive instance.
func BenchmarkE6Containment(b *testing.B) {
	p := MustParseProgram(`
		q(X, Y) :- a(X, Y).
		q(X, Y) :- a(X, Z), q(Z, Y).
		?- q.
	`)
	ics := MustParseICs(`:- a(X, Y), a(Y, Z).`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rp, ucq, err := SatisfiabilityAsNonContainment(p, ics)
		if err != nil {
			b.Fatal(err)
		}
		contained, err := ProgramContainedInUCQ(rp, ucq)
		if err != nil {
			b.Fatal(err)
		}
		if contained {
			b.Fatal("single edges satisfy the constraint; must not be contained")
		}
	}
}

// BenchmarkE7TwoCounter measures the Theorem 5.4 pipeline: encode a
// machine, run it, materialize the trace, and check consistency.
func BenchmarkE7TwoCounter(b *testing.B) {
	m := tcm.CountdownMachine(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, ics, err := EncodeTwoCounter(m)
		if err != nil {
			b.Fatal(err)
		}
		facts, halted := TwoCounterTraceDB(m, 100)
		if !halted {
			b.Fatal("machine should halt")
		}
		tuples, _, err := Query(prog, NewDBFrom(facts))
		if err != nil {
			b.Fatal(err)
		}
		if len(tuples) != 1 {
			b.Fatal("halt not derived")
		}
		_ = ics
	}
}

// BenchmarkA1LabelsVsAdorn compares the full pipeline against the
// core-only algorithm on optimization time (the ablation's evaluation
// side lives in cmd/sqobench).
func BenchmarkA1LabelsVsAdorn(b *testing.B) {
	p := MustParseProgram(goodPathSrc)
	ics := MustParseICs(`
		:- startPoint(X), step(X, Y), X < 100.
		:- step(X, Y), X >= Y.
	`)
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := OptimizeWith(p, ics, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("core-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := OptimizeWith(p, ics, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkA2BaselineVsQtree compares [CGM88] per-rule optimization
// against the query-tree algorithm on optimization time.
func BenchmarkA2BaselineVsQtree(b *testing.B) {
	p := MustParseProgram(figure1Src)
	ics := MustParseICs(`:- a(X, Y), b(Y, Z).`)
	b.Run("cgm88", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BaselineOptimize(p, ics)
		}
	})
	b.Run("qtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Optimize(p, ics); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkP1ParallelTransClosure sweeps the worker pool size on a
// large transitive closure. On a multi-core host the per-round delta
// partitions spread across workers; on a single core all counts
// degenerate to the same work (results stay identical by construction).
func BenchmarkP1ParallelTransClosure(b *testing.B) {
	p := MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := NewDBFrom(workload.Chain(1, 250))
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchEvalWith(b, p, db, evalOptsWorkers(w))
		})
	}
}

// BenchmarkP1ParallelGoodPath sweeps the worker pool size on the
// Section 3 goodpath workload (three rules, so rule-level parallelism
// composes with delta partitioning).
func BenchmarkP1ParallelGoodPath(b *testing.B) {
	p := MustParseProgram(goodPathSrc)
	db := NewDBFrom(workload.GoodPath(600, 100, 150))
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchEvalWith(b, p, db, evalOptsWorkers(w))
		})
	}
}

// BenchmarkA3IndexedVsScan ablates hash indexes (the A3 experiment)
// on a plain transitive closure: indexed joins against full scans.
func BenchmarkA3IndexedVsScan(b *testing.B) {
	p := MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := NewDBFrom(workload.Chain(1, 60))
	for _, cfg := range []struct {
		name string
		opts EvalOptions
	}{
		{"indexed", EvalOptions{}},
		{"scan", EvalOptions{Scan: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := EvalWith(p, db, cfg.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
