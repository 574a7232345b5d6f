// Command perfbench is the serving benchmark for sqod. It starts an
// in-process sqod (server.New behind httptest, with a durable store at
// fsync "always"), generates one workload from a seed, drives it from
// closed-loop clients in the same process, checks every reply against
// answers derived from the generator, and prints its metrics.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the run is split over the workload's child processes,
// run one after another; each sets the workload up (repeating a cheap
// set-up), warms up, and measures for S/processes seconds (longer if
// needed to reach minOps operations in all), and the last line is a
// JSON object with the end-to-end metrics of all their samples pooled. With --trace 1 one
// process sets up, replays each request through each layer's public
// functions inside spans for S/2 seconds, then runs untraced for S/2
// seconds; the last line carries the per-layer metrics, and the spans
// are written to <out>/spans/.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"
)

const (
	// warmup is how long each child process runs the closed loop after
	// set-up before it starts timing; those operations are checked but
	// not timed.
	warmup = 500 * time.Millisecond
	// A child process repeats a cheap set-up, up to maxSetups times in
	// all, while its set-ups have taken less than setupBudget, so that
	// setup_s rests on more than one set-up per process.
	maxSetups   = 8
	setupBudget = 500 * time.Millisecond
	// minOps is the fewest operations an untraced run collects, so that
	// at least 10 lie beyond its p90; a slow run measures past --seconds
	// until it has them.
	minOps = 100
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is what one child process measured: its set-ups, then one
// timed stretch of the closed loop after an untimed warm-up.
type sample struct {
	SetupS     []float64           `json:"setup_s"`
	Attempted  int                 `json:"attempted"` // warm-up and timed operations
	Failed     int                 `json:"failed"`    // of Attempted
	ResidentMB float64             `json:"resident_mb"`
	ElapsedS   float64             `json:"elapsed_s"`
	Ops        int                 `json:"ops"` // timed operations
	OpMS       []float64           `json:"op_ms"`
	ReqMS      [numKinds][]float64 `json:"req_ms"`
	FirstError string              `json:"first_error,omitempty"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve-large-read, serve-large-write or rewrite-churn")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 35, "length of the timed run")
	trace := fs.Int("trace", 0, "1 replays every request through the layers and reports per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for temporary stores and span files")
	child := fs.Bool("child", false, "measure once and print the raw sample (used by the run itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "--trace must be 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, *seed, clients[*name], defaultSizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))

	var res any
	switch {
	case *child:
		res, err = measureOnce(w, dur, filepath.Join(*out, "tmp"))
	case *trace == 1:
		res, err = measureTraced(w, *seed, dur, *out, stdout)
	default:
		res, err = measure(w, *seed, stdout, func() (*sample, error) {
			return spawn(*name, *seed, dur/time.Duration(w.processes), *out)
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// spawn runs one child process of this program and decodes its sample.
func spawn(name string, seed int64, dur time.Duration, out string) (*sample, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(dur.Seconds(), 'g', -1, 64), "-out", out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	var s sample
	if err := json.Unmarshal(bytes.TrimSpace(stdout), &s); err != nil {
		return nil, fmt.Errorf("child process output: %w", err)
	}
	return &s, nil
}

func header(w io.Writer, wl *workload, seed int64) {
	fmt.Fprintf(w, "workload %s seed %d clients %d (closed loop) nproc %d GOMAXPROCS %d %s\n",
		wl.name, seed, len(wl.clients), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(w, "operation: %s\n", wl.primary)
}

// measure gathers w.processes samples, one after another, and pools
// them into the end-to-end metrics.
func measure(w *workload, seed int64, stdout io.Writer, child func() (*sample, error)) (*result, error) {
	header(stdout, w, seed)
	pooled := &phase{}
	var setups, resident []float64
	attempted := 0
	for i := 0; i < w.processes; i++ {
		s, err := child()
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.SetupS...)
		resident = append(resident, s.ResidentMB)
		pooled.opMS = append(pooled.opMS, s.OpMS...)
		for k := range s.ReqMS {
			pooled.reqMS[k] = append(pooled.reqMS[k], s.ReqMS[k]...)
		}
		pooled.ops += s.Ops
		pooled.failed += s.Failed
		attempted += s.Attempted
		pooled.elapsed += time.Duration(s.ElapsedS * float64(time.Second))
		if pooled.firstErr == nil && s.FirstError != "" {
			pooled.firstErr = errors.New(s.FirstError)
		}
	}
	setupS, residentMB := quantile(setups, 0.5), quantile(resident, 0.5)
	fmt.Fprintf(stdout, "setup_s %.4f s (median of %d set-ups in %d processes)\n", setupS, len(setups), w.processes)
	fmt.Fprintf(stdout, "resident_mb %.2f MiB (median of %.2f)\n", residentMB, resident)
	report(stdout, "timed", pooled)
	return &result{
		Correct:   pooled.failed == 0,
		Attempted: attempted,
		Failed:    pooled.failed,
		Metrics: map[string]metric{
			"setup_s":        {setupS, "s"},
			"ops_per_s":      {pooled.opsPerSec(), "1/s"},
			"latency_p50_ms": {quantile(pooled.opMS, 0.5), "ms"},
			"latency_p90_ms": {quantile(pooled.opMS, 0.9), "ms"},
			"resident_mb":    {residentMB, "MiB"},
		},
	}, nil
}

// measureOnce is one child process's work: set up (more than once if
// set-up is cheap), weigh the live heap, warm up, then run the closed
// loop untraced.
func measureOnce(w *workload, dur time.Duration, tmp string) (*sample, error) {
	s := &sample{}
	var e *env
	for spent := time.Duration(0); len(s.SetupS) < maxSetups && spent < setupBudget; {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = setup(w, tmp); err != nil {
			return nil, err
		}
		took := time.Since(start)
		spent += took
		s.SetupS = append(s.SetupS, took.Seconds())
	}
	defer e.close()
	s.ResidentMB = liveHeapMB()
	warm := drive(e, w, warmup, 0, nil)
	p := drive(e, w, dur, int64((minOps+w.processes-1)/w.processes), nil)
	s.Attempted, s.Failed = warm.ops+p.ops, warm.failed+p.failed
	s.ElapsedS, s.Ops = p.elapsed.Seconds(), p.ops
	s.OpMS, s.ReqMS = p.opMS, p.reqMS
	for _, err := range []error{warm.firstErr, p.firstErr} {
		if err != nil && s.FirstError == "" {
			s.FirstError = err.Error()
		}
	}
	return s, nil
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// measureTraced sets up once, runs the closed loop traced for half of
// dur and then untraced for the other half, and reports the per-layer
// metrics. Tracing first lets the replay start from the set-up state.
// Each half runs until it has minOps operations.
func measureTraced(w *workload, seed int64, dur time.Duration, out string, stdout io.Writer) (*result, error) {
	tmp := filepath.Join(out, "tmp")
	header(stdout, w, seed)
	e, err := setup(w, tmp)
	if err != nil {
		return nil, err
	}
	defer e.close()
	rp, err := newReplayer(context.Background(), w, tmp)
	if err != nil {
		return nil, fmt.Errorf("building the replay state: %w", err)
	}

	cache0 := e.srv.Cache().Stats()
	rejected0 := e.srv.Metrics().AdmissionRejections.Load()
	tr := drive(e, w, dur/2, minOps, rp)
	rp.close()
	report(stdout, "traced", tr)
	spans := filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := writeSpans(spans, tr.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "spans written to %s\n", spans)
	m := layerMetrics(tr)
	// The untraced half runs without the spans and the replay state in
	// the heap, as an untraced run would.
	tr.spans = nil

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain := drive(e, w, dur/2, minOps, nil)
	runtime.ReadMemStats(&ms1)
	report(stdout, "untraced", plain)
	cache1 := e.srv.Cache().Stats()
	rejected := e.srv.Metrics().AdmissionRejections.Load() - rejected0

	allocKB := float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(max(plain.ops, 1))
	lookups := (cache1.Hits - cache0.Hits) + (cache1.Misses - cache0.Misses)
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(cache1.Hits-cache0.Hits) / float64(lookups)
	}
	m["server.cache_hit_ratio"] = metric{hitRatio, "ratio"}
	m["server.rejected"] = metric{float64(rejected), "count"}
	m["go.alloc_kb_per_op"] = metric{allocKB, "KiB"}
	m["trace.latency_p50_delta_ms"] = metric{quantile(tr.opMS, 0.5) - quantile(plain.opMS, 0.5), "ms"}
	m["trace.latency_p90_delta_ms"] = metric{quantile(tr.opMS, 0.9) - quantile(plain.opMS, 0.9), "ms"}
	m["trace.ops_per_s_delta"] = metric{tr.opsPerSec() - plain.opsPerSec(), "1/s"}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "%-30s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(stdout, "cache lookups %d over both phases\n", lookups)
	failed := plain.failed + tr.failed
	return &result{Correct: failed == 0, Attempted: plain.ops + tr.ops, Failed: failed, Metrics: m}, nil
}

// report prints a phase's end-to-end figures by name, per request type
// with its sample count, and the first failure if any.
func report(w io.Writer, label string, p *phase) {
	fmt.Fprintf(w, "[%s] ops %d in %.2f s: ops_per_s %.2f 1/s, latency_p50_ms %.3f ms, latency_p90_ms %.3f ms\n",
		label, p.ops, p.elapsed.Seconds(), p.opsPerSec(), quantile(p.opMS, 0.5), quantile(p.opMS, 0.9))
	for k, xs := range p.reqMS {
		if len(xs) == 0 {
			continue
		}
		fmt.Fprintf(w, "[%s] %s_p50_ms %.3f ms, %s_p90_ms %.3f ms, samples %d\n",
			label, kindNames[k], quantile(xs, 0.5), kindNames[k], quantile(xs, 0.9), len(xs))
		if len(xs) < 100 {
			fmt.Fprintf(w, "[%s] warning: fewer than 100 %s samples; p90 has fewer than 10 beyond it\n", label, kindNames[k])
		}
	}
	fmt.Fprintf(w, "[%s] error_rate %.4f ratio (%d of %d operations failed)\n",
		label, float64(p.failed)/float64(max(p.ops, 1)), p.failed, p.ops)
	if p.firstErr != nil {
		fmt.Fprintf(w, "[%s] first failure: %v\n", label, p.firstErr)
	}
}

// layerMetrics turns the traced phase's spans and counters into the
// per-layer metrics. Times are per request of the kinds that reach the
// layer; a layer no request reached reports 0.
func layerMetrics(p *phase) map[string]metric {
	self, total := spanTotals(p.spans)
	c := &p.layers
	all := c.n[kindQuery] + c.n[kindUpdate] + c.n[kindLint]
	per := func(x float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	msPer := func(name string, n int64) metric { return metric{per(ms(self[name]), n), "ms"} }
	q, u := c.n[kindQuery], c.n[kindUpdate]
	// Everything the request took beyond the layer calls the replay
	// repeats: HTTP, JSON, admission, lock waits, the snapshot rebuild.
	overhead := total["request"] - (total["replay"] - self["replay"])
	walRatio := 0.0
	if c.userBytes > 0 {
		walRatio = float64(c.walBytes) / float64(c.userBytes)
	}
	return map[string]metric{
		"server.overhead_ms":            {per(ms(overhead), all), "ms"},
		"server.encode_ms":              msPer("server.encode", q),
		"server.response_kb":            {per(float64(p.respBytes[kindQuery])/1024, q), "KiB"},
		"parser.ms":                     msPer("parser", all),
		"qtree.normalize_ms":            msPer("qtree.normalize", q),
		"qtree.local_ms":                msPer("qtree.local", q),
		"qtree.push_ms":                 msPer("qtree.push", q),
		"qtree.specialize_ms":           msPer("qtree.specialize", q),
		"qtree.bottomup_ms":             msPer("qtree.bottomup", q),
		"qtree.build_ms":                msPer("qtree.build", q),
		"qtree.rules_out":               {per(float64(c.rulesOut), q), "count"},
		"bounded.ms":                    msPer("bounded", q),
		"bounded.checked":               {per(float64(c.boundedChecked), q), "count"},
		"magic.ms":                      msPer("magic", q),
		"eval.ms":                       msPer("eval", q),
		"eval.plan_ms":                  {per(float64(c.planNS)/1e6, q), "ms"},
		"eval.rounds":                   {per(float64(c.rounds), q), "count"},
		"eval.derived":                  {per(float64(c.derived), q), "count"},
		"eval.probes":                   {per(float64(c.probes), q), "count"},
		"eval.peak_tuples":              {per(float64(c.peak), q), "count"},
		"eval.answers_per_derived":      {per(float64(c.answers), c.derived), "ratio"},
		"lint.ms":                       msPer("lint", c.n[kindLint]),
		"incr.apply_ms":                 msPer("incr.apply", u),
		"incr.delta_probes":             {per(float64(c.deltaProbes), u), "count"},
		"incr.rederive_checks":          {per(float64(c.rederiveChecks), u), "count"},
		"store.append_ms":               msPer("store.append", u),
		"store.wal_bytes_per_user_byte": {walRatio, "ratio"},
	}
}
