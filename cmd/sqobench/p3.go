package main

// P3: the compiled-plan engine (interned terms, slot bindings, greedy
// join ordering) on three fixed workloads, with Workers fixed at 1 so
// allocation counts are deterministic. The table reports wall clock
// (best of 3), a per-run allocation count (runtime.MemStats.Mallocs
// delta), join probes, answers, and derived tuples. With -out the rows
// are also written as JSON (committed as BENCH_3.json for regression
// tracking). Rows keep engine "compiled", the name they carried while a
// second engine was measured alongside, so baselines stay comparable.

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	sqo "repro"
	"repro/internal/workload"
)

type p3Row struct {
	Workload string `json:"workload"`
	Engine   string `json:"engine"`
	NsOp     int64  `json:"ns_op"`
	AllocsOp uint64 `json:"allocs_op"`
	Probes   int64  `json:"probes"`
	Answers  int    `json:"answers"`
	Derived  int64  `json:"derived"`
}

type p3Report struct {
	CPUs   int     `json:"cpus"`
	GOOS   string  `json:"goos"`
	GOARCH string  `json:"goarch"`
	Go     string  `json:"go_version"`
	Rows   []p3Row `json:"results"`
}

// measureAllocs runs one evaluation and returns the measurement plus
// the number of heap allocations it performed.
func measureAllocs(p *sqo.Program, db *sqo.DB, opts sqo.EvalOptions) (measurement, uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := measureWith(p, db, opts)
	runtime.ReadMemStats(&after)
	return m, after.Mallocs - before.Mallocs
}

func runP3() {
	type p3case struct {
		name string
		prog *sqo.Program
		db   *sqo.DB
	}
	tc := sqo.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	gp := sqo.MustParseProgram(goodPathSrc)
	fig := sqo.MustParseProgram(figure1Src)
	cases := []p3case{
		{"transclosure chain(250)", tc, sqo.NewDBFrom(workload.Chain(1, 250))},
		{"goodpath(600,100,150)", gp, sqo.NewDBFrom(workload.GoodPath(600, 100, 150))},
		{"figure1 ABComb(8,14,14)", fig, sqo.NewDBFrom(workload.ABComb(8, 14, 14))},
	}
	if *quick {
		cases = []p3case{
			{"transclosure chain(120)", tc, sqo.NewDBFrom(workload.Chain(1, 120))},
			{"goodpath(200,100,60)", gp, sqo.NewDBFrom(workload.GoodPath(200, 100, 60))},
		}
	}
	opts := sqo.DefaultEvalOptions()
	opts.Workers = 1

	report := p3Report{
		CPUs:   runtime.NumCPU(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		Go:     runtime.Version(),
	}
	header("workload", "engine", "time", "allocs", "probes", "answers", "derived")
	for _, c := range cases {
		m, allocs := measureAllocs(c.prog, c.db, opts)
		// Best of 3 to damp scheduler noise; allocations are
		// deterministic, the first run's count stands.
		for rep := 0; rep < 2; rep++ {
			if r := measureWith(c.prog, c.db, opts); r.elapsed < m.elapsed {
				m.elapsed = r.elapsed
			}
		}
		row := p3Row{
			Workload: c.name,
			Engine:   "compiled",
			NsOp:     m.elapsed.Nanoseconds(),
			AllocsOp: allocs,
			Probes:   m.probes,
			Answers:  m.answers,
			Derived:  m.derived,
		}
		fmt.Printf("%-24s | %-8s | %12v | %9d | %9d | %7d | %d\n",
			row.Workload, row.Engine, time.Duration(row.NsOp).Round(time.Microsecond),
			row.AllocsOp, row.Probes, row.Answers, row.Derived)
		report.Rows = append(report.Rows, row)
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *outPath)
	}
}
