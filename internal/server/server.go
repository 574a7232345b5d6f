// Package server implements sqod, the long-running semantic query
// optimization service: HTTP/JSON endpoints to register fact datasets,
// submit programs with integrity constraints, and run optimized
// queries. The Levy–Sagiv rewrite is an ahead-of-time transformation
// whose cost amortizes over every query served against it, so the
// server keeps an LRU cache of optimized programs (keyed by a
// canonical hash of program + constraints + options, with singleflight
// deduplication), bounds concurrent evaluations with fast 429s,
// cancels the fixpoint when a request times out or its client
// disconnects, and exposes live counters at /metrics.
//
// Datasets are mutable (fact-level insert/retract endpoints, replace
// via PUT), and materialized views attached to a dataset survive
// those updates: each mutation is pushed through sqo.View.Apply,
// which maintains the answers incrementally (counting / DRed) under
// the same admission control and a per-update deadline.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	sqo "repro"
	"repro/internal/store"
)

// Config tunes the server; the zero value is usable (see defaults in
// New).
type Config struct {
	// MaxInflight bounds concurrently running evaluations; requests
	// beyond the bound are rejected immediately with 429 rather than
	// queued behind work that may never finish in time. Default:
	// 2×GOMAXPROCS.
	MaxInflight int
	// CacheSize bounds the optimized-program LRU cache. Default: 128.
	CacheSize int
	// DefaultTimeout applies to queries that set no timeout_ms.
	// Default: 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts. Default: 5m.
	MaxTimeout time.Duration
	// UpdateTimeout bounds one dataset mutation end to end, including
	// incremental maintenance of every attached view. Default:
	// DefaultTimeout.
	UpdateTimeout time.Duration
	// MaxTuples is the per-query derived-tuple budget (0 = unlimited).
	MaxTuples int64
	// Workers is the evaluation worker-pool size (0 = one per CPU).
	Workers int
	// JoinOrder is the default join-order policy for evaluations and
	// views: "greedy" (or empty), "cost", or "adaptive". Queries can
	// override it per request with join_order. Invalid names fall back
	// to greedy with a logged warning rather than refusing to start.
	JoinOrder string
	// MaxBodyBytes bounds request bodies. Default: 8 MiB.
	MaxBodyBytes int64
	// EnablePprof registers net/http/pprof handlers under /debug/pprof/
	// on the server's mux. The profiles expose internals (goroutine
	// stacks, heap contents), so only enable it where the listen
	// address is trusted.
	EnablePprof bool
	// Logger receives structured request logs; default slog.Default().
	Logger *slog.Logger
	// Store, when set, makes the mutable-dataset surface durable: every
	// dataset/fact/view mutation is appended to its write-ahead log
	// before the request is acknowledged. Nil (the default) keeps
	// today's purely in-memory behavior.
	Store *store.Store
	// Recovered carries the state Store reconstructed at open; New
	// replays it — checkpoint base first, then the WAL tail through the
	// incremental view-maintenance path — before serving.
	Recovered *store.Recovered
	// AsyncRestore runs the Recovered replay in the background instead
	// of blocking New. Until it completes, /readyz reports 503 and every
	// dataset-touching endpoint fails fast with code "not_ready" —
	// /healthz stays pure liveness so orchestrators don't kill a node
	// for the crime of recovering a large WAL. Cluster coordinators use
	// /readyz to exclude still-restoring workers from placement.
	AsyncRestore bool
}

// Server is the sqod service. Create with New, expose via Handler.
type Server struct {
	cfg     Config
	log     *slog.Logger
	metrics *Metrics
	cache   *Cache
	sem     chan struct{} // admission-control semaphore
	policy  sqo.JoinOrderPolicy
	store   *store.Store // nil when running in-memory
	ready   atomic.Bool  // false until durable-state restore completes

	datasets *datasetStore
}

// New returns a configured server.
func New(cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 128
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 5 * time.Minute
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	policy, err := sqo.ParseJoinOrderPolicy(cfg.JoinOrder)
	if err != nil {
		cfg.Logger.Warn("invalid join-order policy; falling back to greedy",
			"join_order", cfg.JoinOrder, "err", err)
		policy = sqo.PolicyGreedy
	}
	m := NewMetrics()
	c := NewCache(cfg.CacheSize)
	c.metrics = m
	s := &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		metrics:  m,
		cache:    c,
		sem:      make(chan struct{}, cfg.MaxInflight),
		policy:   policy,
		store:    cfg.Store,
		datasets: newDatasetStore(m),
	}
	if s.store != nil {
		m.StoreStats = func() (int64, int64, int64) {
			c := s.store.Counters()
			return c.Appends, c.Bytes, c.Checkpoints
		}
		if cfg.Recovered != nil {
			if cfg.AsyncRestore {
				go func() {
					s.restore(cfg.Recovered)
					s.ready.Store(true)
				}()
				return s
			}
			s.restore(cfg.Recovered)
		}
	}
	s.ready.Store(true)
	return s
}

// Ready reports whether durable-state restore has completed (always
// true without a store or with synchronous restore).
func (s *Server) Ready() bool { return s.ready.Load() }

// Metrics exposes the server's registry (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Cache exposes the optimized-program cache (for tests and embedding).
func (s *Server) Cache() *Cache { return s.cache }

// Handler returns the server's routed HTTP handler with request
// logging and latency instrumentation applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", s.instrument("metrics", s.metrics.ServeHTTP))
	mux.Handle("GET /healthz", s.instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		// Pure liveness: true as long as the process serves HTTP, even
		// mid-restore. Readiness is /readyz.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}))
	mux.Handle("GET /readyz", s.instrument("readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "restoring")
			return
		}
		fmt.Fprintln(w, "ok")
	}))
	mux.Handle("PUT /v1/datasets/{name}", s.gated("dataset_put", s.handleDatasetPut))
	mux.Handle("POST /v1/datasets/{name}", s.gated("dataset_post", s.handleDatasetPost))
	mux.Handle("DELETE /v1/datasets/{name}", s.gated("dataset_delete", s.handleDatasetDelete))
	mux.Handle("GET /v1/datasets", s.gated("dataset_list", s.handleDatasetList))
	mux.Handle("POST /v1/datasets/{name}/facts", s.gated("facts_add", s.handleFactsAdd))
	mux.Handle("DELETE /v1/datasets/{name}/facts", s.gated("facts_delete", s.handleFactsDelete))
	mux.Handle("POST /v1/datasets/{name}/views/{view}", s.gated("view_create", s.handleViewCreate))
	mux.Handle("GET /v1/datasets/{name}/views/{view}", s.gated("view_get", s.handleViewGet))
	mux.Handle("DELETE /v1/datasets/{name}/views/{view}", s.gated("view_delete", s.handleViewDelete))
	mux.Handle("POST /v1/optimize", s.instrument("optimize", s.handleOptimize))
	mux.Handle("POST /v1/lint", s.instrument("lint", s.handleLint))
	mux.Handle("POST /v1/query", s.gated("query", s.handleQuery))
	if s.cfg.EnablePprof {
		// net/http/pprof only self-registers on http.DefaultServeMux;
		// a custom mux needs the handlers wired explicitly.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusWriter captures the response code for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// gated wraps a dataset-touching handler so it fails fast with 503
// "not_ready" while an asynchronous restore is still replaying durable
// state — serving a partial dataset would silently return wrong
// answers. Pure-compute endpoints (optimize, lint) stay ungated.
func (s *Server) gated(endpoint string, h http.HandlerFunc) http.Handler {
	return s.instrument(endpoint, func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			writeError(w, http.StatusServiceUnavailable, "not_ready",
				"server is restoring durable state; retry shortly")
			return
		}
		h(w, r)
	})
}

// instrument wraps a handler with body limiting, latency observation,
// and one structured log line per request.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		elapsed := time.Since(start)
		s.metrics.ObserveRequest(endpoint, sw.code, elapsed)
		s.log.Info("request",
			"endpoint", endpoint,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.code,
			"dur_ms", float64(elapsed.Microseconds())/1000,
			"bytes", sw.bytes,
			"remote", r.RemoteAddr,
		)
	})
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...), Code: code})
}

// admit reserves an evaluation slot, or reports failure immediately
// (fast 429) when MaxInflight slots are taken. The caller must invoke
// the returned release exactly once on success.
func (s *Server) admit() (release func(), ok bool) {
	select {
	case s.sem <- struct{}{}:
		s.metrics.InflightEvals.Add(1)
		return func() {
			s.metrics.InflightEvals.Add(-1)
			<-s.sem
		}, true
	default:
		s.metrics.AdmissionRejections.Add(1)
		return nil, false
	}
}

// --- datasets ---------------------------------------------------------

// handleDatasetPut registers or replaces a named dataset. The body is
// datalog ground facts in source syntax. Replacing a live dataset is
// expressed as the add/retract batch that turns the old fact set into
// the new one, so attached materialized views survive a PUT and are
// maintained incrementally through it.
func (s *Server) handleDatasetPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "dataset name missing")
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "reading body: %v", err)
		return
	}
	facts, err := sqo.ParseFacts(string(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse_error", "parsing facts: %v", err)
		return
	}
	ds, created, err := s.datasets.create(name, facts, time.Now(), s.persistCreate(name, facts))
	if err != nil {
		s.writeStoreError(w, "create", name, err)
		return
	}
	if created {
		writeJSON(w, http.StatusOK, ds.describe())
		return
	}
	ds.mu.Lock()
	adds, dels := ds.diffLocked(facts)
	ds.mu.Unlock()
	s.updateDataset(w, r, ds, adds, dels)
}

// persistCreate returns the WAL-append callback for a dataset create,
// or nil when the server runs in-memory.
func (s *Server) persistCreate(name string, facts []sqo.Atom) func() error {
	if s.store == nil {
		return nil
	}
	return func() error { return s.store.AppendDatasetCreate(name, facts) }
}

// writeStoreError reports a failed write-ahead append. The mutation
// was NOT applied — durability is part of the acknowledgment contract,
// so a store failure fails the request.
func (s *Server) writeStoreError(w http.ResponseWriter, op, name string, err error) {
	s.log.Error("wal append failed", "op", op, "name", name, "err", err)
	writeError(w, http.StatusInternalServerError, "store_error", "durable %s failed: %v", op, err)
}

// handleDatasetPost registers a new dataset, answering 409 when the
// name is already taken (PUT is the create-or-replace form).
func (s *Server) handleDatasetPost(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "dataset name missing")
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "reading body: %v", err)
		return
	}
	facts, err := sqo.ParseFacts(string(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse_error", "parsing facts: %v", err)
		return
	}
	ds, created, err := s.datasets.create(name, facts, time.Now(), s.persistCreate(name, facts))
	if err != nil {
		s.writeStoreError(w, "create", name, err)
		return
	}
	if !created {
		writeError(w, http.StatusConflict, "dataset_exists", "dataset %q is already registered (PUT replaces)", name)
		return
	}
	writeJSON(w, http.StatusOK, ds.describe())
}

// handleDatasetList lists registered datasets.
func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.datasets.list())
}

// --- optimize ---------------------------------------------------------

type optimizeRequest struct {
	// Program is datalog source: rules plus a '?- pred.' declaration.
	Program string `json:"program"`
	// ICs are integrity constraints in source syntax (':- body.').
	ICs string `json:"ics,omitempty"`
}

type optimizeResponse struct {
	Program     string   `json:"program"`
	Satisfiable bool     `json:"satisfiable"`
	Explain     string   `json:"explain,omitempty"`
	Warnings    []string `json:"warnings,omitempty"`
	// Diagnostics carries the semantic linter's findings on the
	// program as submitted (advisory; POST /v1/lint for the full
	// report form).
	Diagnostics []sqo.LintFinding `json:"diagnostics,omitempty"`
	CacheHit    bool              `json:"cache_hit"`
	OptimizeMS  float64           `json:"optimize_ms"`
}

// optimizeCached parses, hashes, and rewrites through the cache.
func (s *Server) optimizeCached(ctx context.Context, programSrc, icsSrc string) (*sqo.Result, bool, error) {
	prog, err := sqo.ParseProgram(programSrc)
	if err != nil {
		return nil, false, &requestError{status: http.StatusBadRequest, code: "parse_error", msg: fmt.Sprintf("parsing program: %v", err)}
	}
	if prog.Query == "" {
		return nil, false, &requestError{status: http.StatusBadRequest, code: "bad_request", msg: "program has no query declaration ('?- pred.')"}
	}
	ics, err := sqo.ParseICs(icsSrc)
	if err != nil {
		return nil, false, &requestError{status: http.StatusBadRequest, code: "parse_error", msg: fmt.Sprintf("parsing ics: %v", err)}
	}
	opts := sqo.DefaultOptions()
	key := CacheKey(prog, ics, opts)
	res, hit, err := s.cache.GetOrCompute(ctx, key, func() (*sqo.Result, error) {
		return sqo.OptimizeCtx(ctx, prog, ics, opts)
	})
	if err != nil {
		if ctxErr := classifyCtxErr(err); ctxErr != nil {
			return nil, hit, ctxErr
		}
		return nil, hit, &requestError{status: http.StatusUnprocessableEntity, code: "optimize_error", msg: err.Error()}
	}
	return res, hit, nil
}

// requestError carries an HTTP status through the handler helpers.
type requestError struct {
	status int
	code   string
	msg    string
}

func (e *requestError) Error() string { return e.msg }

func classifyCtxErr(err error) *requestError {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &requestError{status: http.StatusGatewayTimeout, code: "timeout", msg: "deadline exceeded"}
	case errors.Is(err, context.Canceled):
		return &requestError{status: 499, code: "canceled", msg: "request canceled"}
	}
	return nil
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req optimizeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decoding JSON: %v", err)
		return
	}
	release, ok := s.admit()
	if !ok {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "overloaded", "too many in-flight requests (limit %d)", s.cfg.MaxInflight)
		return
	}
	defer release()

	start := time.Now()
	res, hit, err := s.optimizeCached(r.Context(), req.Program, req.ICs)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, optimizeResponse{
		Program:     sqo.FormatProgram(res.Program),
		Satisfiable: res.Satisfiable,
		Explain:     sqo.Explain(res),
		Warnings:    res.Warnings,
		Diagnostics: s.lintDiagnostics(r.Context(), req.Program, req.ICs),
		CacheHit:    hit,
		OptimizeMS:  float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (s *Server) writeRequestError(w http.ResponseWriter, err error) {
	var re *requestError
	if errors.As(err, &re) {
		switch re.code {
		case "timeout":
			s.metrics.QueryTimeouts.Add(1)
		case "canceled":
			s.metrics.QueryCancels.Add(1)
		}
		writeError(w, re.status, re.code, "%s", re.msg)
		return
	}
	writeError(w, http.StatusInternalServerError, "internal", "%v", err)
}

// --- query ------------------------------------------------------------

type queryRequest struct {
	// Program is datalog source: rules plus a '?- pred.' declaration.
	Program string `json:"program"`
	// ICs are integrity constraints in source syntax.
	ICs string `json:"ics,omitempty"`
	// Dataset names a registered dataset to evaluate against.
	Dataset string `json:"dataset,omitempty"`
	// Facts are additional inline ground facts (source syntax); they
	// are combined with the dataset when both are present.
	Facts string `json:"facts,omitempty"`
	// TimeoutMS bounds evaluation wall-clock (0 → server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Optimize selects whether to run the Levy–Sagiv rewrite before
	// evaluating (default true; false evaluates the program as sent,
	// for A/B measurements).
	Optimize *bool `json:"optimize,omitempty"`
	// Workers lowers the evaluation pool size (0 → server default);
	// values above the server's pool are clamped to it.
	Workers int `json:"workers,omitempty"`
	// MaxTuples lowers the derived-tuple budget (0 → server default);
	// values above the server's -max-tuples are clamped to it.
	MaxTuples int64 `json:"max_tuples,omitempty"`
	// IncludeRoundDeltas opts into per-round delta sizes in the
	// response (round → relation → tuples derived that round).
	IncludeRoundDeltas bool `json:"include_round_deltas,omitempty"`
	// JoinOrder overrides the server's join-order policy for this
	// query: "greedy", "cost", or "adaptive" (empty → server default).
	// Answers are identical under every policy; only join work differs.
	JoinOrder string `json:"join_order,omitempty"`
	// Magic controls the magic-sets demand rewrite for goal queries
	// (`?- pred(a, Y).`): "auto" (the default — rewrite when the goal
	// binds an argument), "on", or "off". Answers are identical in
	// every mode; only the portion of the fixpoint computed differs.
	Magic string `json:"magic,omitempty"`
	// Elim controls bounded-recursion elimination: "auto" (the default
	// — compile provably bounded fixpoints into flat joins), "on", or
	// "off". Answers are identical in every mode; only the evaluation
	// strategy differs. The boundedness verdict is cached alongside
	// the rewrite cache, keyed by program and goal.
	Elim string `json:"elim,omitempty"`
}

type queryStats struct {
	Rounds        int   `json:"rounds"`
	TuplesDerived int64 `json:"tuples_derived"`
	RuleFirings   int64 `json:"rule_firings"`
	JoinProbes    int64 `json:"join_probes"`
}

type queryResponse struct {
	Query       string   `json:"query"`
	Answers     []string `json:"answers"`
	AnswerCount int      `json:"answer_count"`
	Satisfiable bool     `json:"satisfiable"`
	Optimized   bool     `json:"optimized"`
	CacheHit    bool     `json:"cache_hit"`
	JoinOrder   string   `json:"join_order"`
	// Magic reports whether this evaluation went through the
	// magic-sets demand rewrite (false for unbound or absent goals,
	// magic "off", or rewrite fallback).
	Magic bool `json:"magic"`
	// Elim reports whether this evaluation went through the
	// bounded-recursion elimination rewrite (false when no predicate
	// is provably bounded, or elim "off").
	Elim  bool       `json:"elim"`
	Stats queryStats `json:"stats"`
	// RoundDeltas is present only when the request set
	// include_round_deltas: element i maps relation → tuples newly
	// derived in fixpoint round i (relations with no new tuples are
	// omitted; a fixpoint-detection round is an empty object).
	RoundDeltas []map[string]int64 `json:"round_deltas,omitempty"`
	OptimizeMS  float64            `json:"optimize_ms"`
	EvalMS      float64            `json:"eval_ms"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decoding JSON: %v", err)
		return
	}
	if req.Dataset == "" && req.Facts == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "one of dataset or facts is required")
		return
	}
	policy := s.policy
	if req.JoinOrder != "" {
		p, err := sqo.ParseJoinOrderPolicy(req.JoinOrder)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
			return
		}
		policy = p
	}
	magicMode, err := sqo.ParseMagicMode(req.Magic)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	elimMode, err := sqo.ParseElimMode(req.Elim)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}

	// Resolve the database before admission: cheap, and 404s should
	// not consume evaluation slots.
	var db *sqo.DB
	if req.Dataset != "" {
		ds, ok := s.datasets.get(req.Dataset)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown_dataset", "dataset %q is not registered", req.Dataset)
			return
		}
		db = ds.snapshot()
	}
	if req.Facts != "" {
		facts, err := sqo.ParseFacts(req.Facts)
		if err != nil {
			writeError(w, http.StatusBadRequest, "parse_error", "parsing facts: %v", err)
			return
		}
		if db == nil {
			db = sqo.NewDBFrom(facts)
		} else {
			// Copy-on-extend: registered datasets are shared across
			// requests and must not observe per-request facts.
			db = db.Clone()
			db.AddFacts(facts)
		}
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}

	release, ok := s.admit()
	if !ok {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "overloaded", "too many in-flight requests (limit %d)", s.cfg.MaxInflight)
		return
	}
	defer release()

	// The request context is the root: client disconnects propagate
	// into the fixpoint. The timeout rides on top of it.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	doOptimize := req.Optimize == nil || *req.Optimize
	var (
		prog        *sqo.Program
		cacheHit    bool
		satisfiable = true
		optimizeMS  float64
	)
	if doOptimize {
		optStart := time.Now()
		res, hit, err := s.optimizeCached(ctx, req.Program, req.ICs)
		if err != nil {
			s.writeRequestError(w, err)
			return
		}
		optimizeMS = float64(time.Since(optStart).Microseconds()) / 1000
		prog, cacheHit, satisfiable = res.Program, hit, res.Satisfiable
	} else {
		p, err := sqo.ParseProgram(req.Program)
		if err != nil {
			writeError(w, http.StatusBadRequest, "parse_error", "parsing program: %v", err)
			return
		}
		if p.Query == "" {
			writeError(w, http.StatusBadRequest, "bad_request", "program has no query declaration ('?- pred.')")
			return
		}
		prog = p
	}

	// Pre-apply bounded-recursion elimination through the rewrite
	// cache: the boundedness analysis is pure static work keyed by the
	// (possibly optimized) program and its goal, so concurrent
	// identical queries share one analysis and repeats hit the LRU. A
	// negative verdict is cached too, as an entry with a nil Program —
	// ErrNotBounded is an outcome here, not an error.
	elimApplied := false
	if elimMode != sqo.ElimOff {
		key := "elim\x00" + CacheKey(prog, nil, sqo.Options{})
		res, _, err := s.cache.GetOrCompute(ctx, key, func() (*sqo.Result, error) {
			rewritten, err := sqo.EliminateRecursion(prog)
			if errors.Is(err, sqo.ErrNotBounded) {
				return &sqo.Result{}, nil
			}
			if err != nil {
				return nil, err
			}
			return &sqo.Result{Program: rewritten, Satisfiable: true}, nil
		})
		if err != nil {
			if ctxErr := classifyCtxErr(err); ctxErr != nil {
				s.writeRequestError(w, ctxErr)
				return
			}
			writeError(w, http.StatusUnprocessableEntity, "eval_error", "%v", err)
			return
		}
		if res.Program != nil {
			prog = res.Program
			elimApplied = true
		}
	}

	evalOpts := sqo.DefaultEvalOptions()
	evalOpts.Workers = s.requestWorkers(req.Workers)
	evalOpts.MaxTuples = s.requestMaxTuples(req.MaxTuples)
	evalOpts.Policy = policy
	evalOpts.Magic = magicMode
	// Elimination already ran (or was declined) above; keep QueryCtx
	// from re-running the analysis per request.
	evalOpts.Elim = sqo.ElimOff

	evalStart := time.Now()
	tuples, stats, err := sqo.QueryCtx(ctx, prog, db, evalOpts)
	evalMS := float64(time.Since(evalStart).Microseconds()) / 1000
	if err != nil {
		if ctxErr := classifyCtxErr(err); ctxErr != nil {
			s.writeRequestError(w, ctxErr)
			return
		}
		if errors.Is(err, sqo.ErrBudget) {
			s.metrics.QueryBudgets.Add(1)
			writeError(w, http.StatusUnprocessableEntity, "budget_exceeded", "%v", err)
			return
		}
		writeError(w, http.StatusUnprocessableEntity, "eval_error", "%v", err)
		return
	}
	s.metrics.AddStats(stats.Iterations, stats.TuplesDerived, stats.RuleFirings, stats.JoinProbes)
	s.metrics.AddPolicy(policy)
	if stats.MagicApplied {
		s.metrics.EvalMagic.Add(1)
	}
	if elimApplied {
		s.metrics.EvalElim.Add(1)
	}

	answers := make([]string, len(tuples))
	for i, t := range tuples {
		answers[i] = t.String()
	}
	sort.Strings(answers)
	resp := queryResponse{
		Query:       prog.Query,
		Answers:     answers,
		AnswerCount: len(answers),
		Satisfiable: satisfiable,
		Optimized:   doOptimize,
		CacheHit:    cacheHit,
		JoinOrder:   string(policy),
		Magic:       stats.MagicApplied,
		Elim:        elimApplied,
		Stats: queryStats{
			Rounds:        stats.Iterations,
			TuplesDerived: stats.TuplesDerived,
			RuleFirings:   stats.RuleFirings,
			JoinProbes:    stats.JoinProbes,
		},
		OptimizeMS: optimizeMS,
		EvalMS:     evalMS,
	}
	if req.IncludeRoundDeltas {
		resp.RoundDeltas = stats.RoundDeltas
	}
	writeJSON(w, http.StatusOK, resp)
}

// requestWorkers resolves a request's workers override: a request may
// lower the evaluation pool below the server's effective size
// (-workers, or one per CPU) but never raise it, so a client cannot
// split each round into thousands of goroutine-backed tasks.
func (s *Server) requestWorkers(req int) int {
	pool := s.cfg.Workers
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	if req > 0 && req < pool {
		return req
	}
	return s.cfg.Workers
}

// requestMaxTuples resolves a request's max_tuples override: a request
// may tighten the server's derived-tuple budget but never lift it
// (when -max-tuples is unset, any positive value applies).
func (s *Server) requestMaxTuples(req int64) int64 {
	if req > 0 && (s.cfg.MaxTuples == 0 || req < s.cfg.MaxTuples) {
		return req
	}
	return s.cfg.MaxTuples
}
