package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
	"time"
)

// small shrinks every generator so a set-up takes milliseconds.
var small = sizes{
	chains: 60, chainLen: 40, goals: 4,
	linkChains: 4, linkLen: 5, regions: 8,
}

// corrupt returns a copy of o whose last request expects a wrong reply:
// one answer missing for a query, a second fact for an update.
func corrupt(o op) op {
	o = slices.Clone(o)
	r := &o[len(o)-1]
	switch r.kind {
	case kindQuery:
		r.wantAnswers = r.wantAnswers[1:]
	case kindUpdate:
		r.wantFacts++
	}
	return o
}

// TestOracle runs every workload twice on one server: as generated, it
// must see no failure; with exactly one corrupted expectation, exactly
// one operation must fail.
func TestOracle(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 7, 2, small)
			if err != nil {
				t.Fatal(err)
			}
			e, err := setup(w, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()

			if p := drive(e, w, 300*time.Millisecond, 0, nil); p.failed != 0 || p.ops == 0 {
				t.Fatalf("clean run: %d of %d operations failed: %v", p.failed, p.ops, p.firstErr)
			}

			next, done := w.clients[0], false
			w.clients[0] = func() op {
				o := next()
				if !done {
					done = true
					o = corrupt(o)
				}
				return o
			}
			if p := drive(e, w, 300*time.Millisecond, 0, nil); p.failed != 1 {
				t.Fatalf("one corrupted expectation: %d of %d operations failed, want 1", p.failed, p.ops)
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON runs both modes of every workload and
// checks that each reports exactly the metrics BENCHMARK.json names,
// and that the replay agrees with the server throughout.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			w, err := newWorkload(name, 3, 2, small)
			if err != nil {
				t.Fatal(err)
			}
			var res *result
			if traced {
				res, err = measureTraced(w, 3, 600*time.Millisecond, t.TempDir(), io.Discard)
			} else {
				// Each child process generates its workload afresh.
				res, err = measure(w, 3, io.Discard, func() (*sample, error) {
					w, err := newWorkload(name, 3, 2, small)
					if err != nil {
						return nil, err
					}
					return measureOnce(w, 200*time.Millisecond, t.TempDir())
				})
			}
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%t: correct=%t, %d of %d failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%t: metric %s: got %+v (present %t), want unit %s", name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}
