package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	sqo "repro"
	"repro/internal/store"
)

// This file implements the mutable-dataset surface: fact-level
// insertions and retractions on registered datasets, and materialized
// views that survive those updates through incremental maintenance
// (counting / delete-rederive; see package incr). Fact mutations and
// view materializations are evaluation work, so they pass through the
// same admission semaphore as queries and run under their own
// deadline (Config.UpdateTimeout).

// --- fact mutations ---------------------------------------------------

// updateResponse describes one completed dataset mutation.
type updateResponse struct {
	Dataset      DatasetInfo  `json:"dataset"`
	FactsAdded   int          `json:"facts_added"`
	FactsRemoved int          `json:"facts_removed"`
	Views        []viewUpdate `json:"views,omitempty"`
	UpdateMS     float64      `json:"update_ms"`
}

// parseFactsBody reads the request body as datalog ground facts.
func parseFactsBody(w http.ResponseWriter, r *http.Request) ([]sqo.Atom, bool) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "reading body: %v", err)
		return nil, false
	}
	facts, err := sqo.ParseFacts(string(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse_error", "parsing facts: %v", err)
		return nil, false
	}
	return facts, true
}

// updateDataset is the shared tail of every mutation handler: admit,
// bound by the update deadline, apply under the dataset lock, account
// metrics, respond.
func (s *Server) updateDataset(w http.ResponseWriter, r *http.Request, ds *dataset, adds, dels []sqo.Atom) {
	release, ok := s.admit()
	if !ok {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "overloaded", "too many in-flight requests (limit %d)", s.cfg.MaxInflight)
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), s.updateTimeout())
	defer cancel()

	start := time.Now()
	ds.mu.Lock()
	// Write-ahead: the mutation reaches the log (durable per the fsync
	// policy) before it is applied or acknowledged. Under ds.mu, so the
	// WAL records for one dataset land in application order.
	if s.store != nil {
		if err := s.store.AppendFacts(ds.name, adds, dels); err != nil {
			ds.mu.Unlock()
			s.writeStoreError(w, "update", ds.name, err)
			return
		}
	}
	up := ds.updateLocked(ctx, adds, dels, time.Now())
	info := ds.describeLocked()
	ds.mu.Unlock()

	s.metrics.FactUpdates.Add(1)
	s.metrics.ViewApplies.Add(int64(len(up.views)))

	writeJSON(w, http.StatusOK, updateResponse{
		Dataset:      info,
		FactsAdded:   up.added,
		FactsRemoved: up.removed,
		Views:        up.views,
		UpdateMS:     float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (s *Server) updateTimeout() time.Duration {
	if s.cfg.UpdateTimeout > 0 {
		return s.cfg.UpdateTimeout
	}
	return s.cfg.DefaultTimeout
}

// handleFactsAdd inserts facts into a dataset (POST
// /v1/datasets/{name}/facts, body: datalog ground facts).
func (s *Server) handleFactsAdd(w http.ResponseWriter, r *http.Request) {
	ds, ok := s.datasets.get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_dataset", "dataset %q is not registered", r.PathValue("name"))
		return
	}
	facts, ok := parseFactsBody(w, r)
	if !ok {
		return
	}
	s.updateDataset(w, r, ds, facts, nil)
}

// handleFactsDelete retracts facts from a dataset (DELETE
// /v1/datasets/{name}/facts, body: datalog ground facts). Facts not
// present are ignored.
func (s *Server) handleFactsDelete(w http.ResponseWriter, r *http.Request) {
	ds, ok := s.datasets.get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_dataset", "dataset %q is not registered", r.PathValue("name"))
		return
	}
	facts, ok := parseFactsBody(w, r)
	if !ok {
		return
	}
	s.updateDataset(w, r, ds, nil, facts)
}

// handleDatasetDelete unregisters a dataset and drops its views
// (DELETE /v1/datasets/{name}).
func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var persist func() error
	if s.store != nil {
		persist = func() error { return s.store.AppendDatasetDelete(name) }
	}
	ds, ok, err := s.datasets.delete(name, persist)
	if err != nil {
		s.writeStoreError(w, "delete", name, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_dataset", "dataset %q is not registered", name)
		return
	}
	ds.mu.Lock()
	nviews := len(ds.views)
	ds.views = map[string]*matView{}
	ds.mu.Unlock()
	s.metrics.Views.Add(int64(-nviews))
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name, "views_dropped": nviews})
}

// --- materialized views -----------------------------------------------

type viewRequest struct {
	// Program is datalog source: rules plus a '?- pred.' declaration.
	Program string `json:"program"`
	// ICs are integrity constraints in source syntax.
	ICs string `json:"ics,omitempty"`
	// Optimize selects whether to run the Levy–Sagiv rewrite before
	// materializing (default true). The rewrite is cached, so a view
	// over an already-optimized program costs only the fixpoint.
	Optimize *bool `json:"optimize,omitempty"`
	// TimeoutMS bounds the initial materialization (0 → server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// MaxTuples bounds tuples materialized by the initial fixpoint and
	// any full rebuild (0 → server default; values above the server's
	// -max-tuples are clamped to it).
	MaxTuples int64 `json:"max_tuples,omitempty"`
}

// viewStatsJSON mirrors sqo.ViewStats over the wire.
type viewStatsJSON struct {
	InitRounds     int   `json:"init_rounds"`
	InitTuples     int64 `json:"init_tuples"`
	InitProbes     int64 `json:"init_probes"`
	Applies        int64 `json:"applies"`
	FullRebuilds   int64 `json:"full_rebuilds"`
	DeltaRounds    int64 `json:"delta_rounds"`
	DeltaProbes    int64 `json:"delta_probes"`
	RederiveChecks int64 `json:"rederive_checks"`
	AnswersAdded   int64 `json:"answers_added"`
	AnswersRemoved int64 `json:"answers_removed"`
}

func toViewStats(s sqo.ViewStats) viewStatsJSON {
	return viewStatsJSON{
		InitRounds:     s.InitRounds,
		InitTuples:     s.InitTuples,
		InitProbes:     s.InitProbes,
		Applies:        s.Applies,
		FullRebuilds:   s.FullRebuilds,
		DeltaRounds:    s.DeltaRounds,
		DeltaProbes:    s.DeltaProbes,
		RederiveChecks: s.RederiveChecks,
		AnswersAdded:   s.TuplesAdded,
		AnswersRemoved: s.TuplesRemoved,
	}
}

type viewResponse struct {
	Name        string   `json:"name"`
	Dataset     string   `json:"dataset"`
	Query       string   `json:"query"`
	Answers     []string `json:"answers"`
	AnswerCount int      `json:"answer_count"`
	Optimized   bool     `json:"optimized"`
	CacheHit    bool     `json:"cache_hit,omitempty"`
	// Diagnostics carries the semantic linter's findings on the
	// program as submitted; present only on view creation.
	Diagnostics   []sqo.LintFinding `json:"diagnostics,omitempty"`
	Stats         viewStatsJSON     `json:"stats"`
	MaterializeMS float64           `json:"materialize_ms,omitempty"`
}

// handleViewCreate materializes a program over a dataset and keeps it
// live across fact updates (POST /v1/datasets/{name}/views/{view},
// body: {program, ics, optimize, timeout_ms, max_tuples}). Duplicate
// view names answer 409.
func (s *Server) handleViewCreate(w http.ResponseWriter, r *http.Request) {
	name, vname := r.PathValue("name"), r.PathValue("view")
	ds, ok := s.datasets.get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_dataset", "dataset %q is not registered", name)
		return
	}
	var req viewRequest
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

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	doOptimize := req.Optimize == nil || *req.Optimize
	var (
		prog     *sqo.Program
		cacheHit bool
	)
	if doOptimize {
		res, hit, err := s.optimizeCached(ctx, req.Program, req.ICs)
		if err != nil {
			s.writeRequestError(w, err)
			return
		}
		prog, cacheHit = res.Program, hit
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
	maxTuples := s.requestMaxTuples(req.MaxTuples)

	// The dataset lock covers materialization: a concurrent fact update
	// between snapshotting the EDB and registering the view would
	// otherwise be invisible to the view forever.
	start := time.Now()
	ds.mu.Lock()
	if _, exists := ds.views[vname]; exists {
		ds.mu.Unlock()
		writeError(w, http.StatusConflict, "view_exists", "view %q already exists on dataset %q", vname, name)
		return
	}
	view, err := sqo.MaterializeCtx(ctx, prog, ds.db, sqo.ViewOptions{MaxTuples: maxTuples, Policy: s.policy})
	if err != nil {
		ds.mu.Unlock()
		s.writeEvalError(w, err)
		return
	}
	// The registration is logged before the view becomes visible (and
	// before the 200): recovery re-materializes from the stored source,
	// so only the definition needs to be durable, not the answers.
	if s.store != nil {
		err := s.store.AppendViewRegister(name, store.ViewDef{
			Name: vname, Program: req.Program, ICs: req.ICs, Optimized: doOptimize,
		})
		if err != nil {
			ds.mu.Unlock()
			s.writeStoreError(w, "view create", vname, err)
			return
		}
	}
	mv := &matView{name: vname, program: prog, optimized: doOptimize, view: view, createdAt: time.Now()}
	ds.views[vname] = mv
	ds.mu.Unlock()
	s.metrics.Views.Add(1)

	s.respondView(w, ds, mv, cacheHit, float64(time.Since(start).Microseconds())/1000,
		s.lintDiagnostics(ctx, req.Program, req.ICs))
}

// handleViewGet returns a view's current answers (GET
// /v1/datasets/{name}/views/{view}); a view broken by a failed update
// repairs itself (full rebuild) here.
func (s *Server) handleViewGet(w http.ResponseWriter, r *http.Request) {
	name, vname := r.PathValue("name"), r.PathValue("view")
	ds, ok := s.datasets.get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_dataset", "dataset %q is not registered", name)
		return
	}
	ds.mu.Lock()
	mv, ok := ds.views[vname]
	ds.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_view", "view %q is not registered on dataset %q", vname, name)
		return
	}
	s.respondView(w, ds, mv, false, 0, nil)
}

// handleViewDelete drops a view (DELETE /v1/datasets/{name}/views/{view}).
func (s *Server) handleViewDelete(w http.ResponseWriter, r *http.Request) {
	name, vname := r.PathValue("name"), r.PathValue("view")
	ds, ok := s.datasets.get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_dataset", "dataset %q is not registered", name)
		return
	}
	ds.mu.Lock()
	_, ok = ds.views[vname]
	if ok && s.store != nil {
		if err := s.store.AppendViewDrop(name, vname); err != nil {
			ds.mu.Unlock()
			s.writeStoreError(w, "view delete", vname, err)
			return
		}
	}
	delete(ds.views, vname)
	ds.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_view", "view %q is not registered on dataset %q", vname, name)
		return
	}
	s.metrics.Views.Add(-1)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": vname, "dataset": name})
}

// respondView renders a view's current answers and statistics.
// Answers() repairs a broken view first, so a view that failed an
// update deadline serves correct (rebuilt) answers here.
func (s *Server) respondView(w http.ResponseWriter, ds *dataset, mv *matView, cacheHit bool, materializeMS float64, diagnostics []sqo.LintFinding) {
	tuples, err := mv.view.Answers()
	if err != nil {
		s.writeEvalError(w, err)
		return
	}
	answers := make([]string, len(tuples))
	for i, t := range tuples {
		answers[i] = t.String()
	}
	writeJSON(w, http.StatusOK, viewResponse{
		Name:          mv.name,
		Dataset:       ds.name,
		Query:         mv.program.Query,
		Answers:       answers,
		AnswerCount:   len(answers),
		Optimized:     mv.optimized,
		CacheHit:      cacheHit,
		Diagnostics:   diagnostics,
		Stats:         toViewStats(mv.view.Stats()),
		MaterializeMS: materializeMS,
	})
}

// writeEvalError maps evaluation failures (cancellation, deadline,
// budget, engine errors) onto the uniform error envelope.
func (s *Server) writeEvalError(w http.ResponseWriter, err error) {
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
}
