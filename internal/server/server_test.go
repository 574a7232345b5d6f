package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any, out any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("unmarshal %s %s → %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, raw
}

const serverTestFacts = `
	step(1, 2). step(2, 3). step(3, 4). step(2, 5). step(5, 4).
	startPoint(1). startPoint(2).
	endPoint(4). endPoint(5).
`

const serverTestProgram = `
	path(X, Y) :- step(X, Y).
	path(X, Y) :- step(X, Z), path(Z, Y).
	goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
	?- goodPath.
`

const serverTestICs = `:- startPoint(X), endPoint(Y), Y <= X.`

func registerDataset(t *testing.T, base, name, facts string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/datasets/"+name, strings.NewReader(facts))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("dataset registration: %d %s", resp.StatusCode, b)
	}
}

func TestServerEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerDataset(t, ts.URL, "quickstart", serverTestFacts)

	// Dataset is visible.
	var infos []DatasetInfo
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil, &infos); code != http.StatusOK {
		t.Fatalf("list datasets: %d", code)
	}
	if len(infos) != 1 || infos[0].Name != "quickstart" || infos[0].Facts != 9 {
		t.Fatalf("dataset list = %+v", infos)
	}

	// First optimized query: cache miss.
	var r1 queryResponse
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program: serverTestProgram,
		ICs:     serverTestICs,
		Dataset: "quickstart",
	}, &r1)
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, raw)
	}
	if r1.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	wantAnswers := []string{"(1, 4)", "(1, 5)", "(2, 4)", "(2, 5)"}
	if !reflect.DeepEqual(r1.Answers, wantAnswers) {
		t.Fatalf("answers = %v, want %v", r1.Answers, wantAnswers)
	}
	if r1.Stats.Rounds == 0 || r1.Stats.TuplesDerived == 0 {
		t.Fatalf("stats not populated: %+v", r1.Stats)
	}

	// Second identical query: cache hit, identical answers.
	var r2 queryResponse
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program: serverTestProgram,
		ICs:     serverTestICs,
		Dataset: "quickstart",
	}, &r2); code != http.StatusOK {
		t.Fatalf("second query: %d %s", code, raw)
	}
	if !r2.CacheHit {
		t.Fatal("second identical query missed the cache")
	}
	if !reflect.DeepEqual(r2.Answers, r1.Answers) {
		t.Fatalf("cached answers diverge: %v vs %v", r2.Answers, r1.Answers)
	}
	if r2.Stats != r1.Stats {
		t.Fatalf("cached stats diverge: %+v vs %+v", r2.Stats, r1.Stats)
	}

	// Unoptimized evaluation agrees on answers (differential check).
	noOpt := false
	var r3 queryResponse
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program:  serverTestProgram,
		ICs:      serverTestICs,
		Dataset:  "quickstart",
		Optimize: &noOpt,
	}, &r3); code != http.StatusOK {
		t.Fatalf("unoptimized query: %d %s", code, raw)
	}
	if !reflect.DeepEqual(r3.Answers, r1.Answers) {
		t.Fatalf("optimized and unoptimized answers diverge: %v vs %v", r1.Answers, r3.Answers)
	}

	// Three entries: the Levy-Sagiv rewrite, the elim verdict for the
	// optimized program, and the elim verdict for the raw program the
	// unoptimized query evaluated.
	if n := s.Cache().Len(); n != 3 {
		t.Fatalf("cache entries = %d, want 3", n)
	}
	if hits := s.Metrics().CacheHits.Load(); hits == 0 {
		t.Fatal("metrics report zero cache hits")
	}
}

func TestServerConcurrentIdenticalRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 32})
	registerDataset(t, ts.URL, "d", serverTestFacts)

	const n = 12
	responses := make([]queryResponse, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = doJSONNoFatal(ts.URL+"/v1/query", queryRequest{
				Program: serverTestProgram,
				ICs:     serverTestICs,
				Dataset: "d",
			}, &responses[i])
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !reflect.DeepEqual(responses[i].Answers, responses[0].Answers) {
			t.Fatalf("request %d: answers diverge: %v vs %v", i, responses[i].Answers, responses[0].Answers)
		}
	}
	// Two entries and two misses: one Levy-Sagiv rewrite plus one elim
	// verdict, each computed exactly once across all n requests.
	if got := s.Cache().Len(); got != 2 {
		t.Fatalf("concurrent identical requests created %d cache entries, want 2", got)
	}
	st := s.Cache().Stats()
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want exactly 2 (optimize + elim)", st.Misses)
	}
	if st.Hits != 2*n-2 {
		t.Fatalf("hits = %d, want %d", st.Hits, 2*n-2)
	}
}

// doJSONNoFatal is doJSON for use inside goroutines (no *testing.T).
func doJSONNoFatal(url string, body any, out any) (int, []byte) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil {
		_ = json.Unmarshal(raw, out)
	}
	return resp.StatusCode, raw
}

func TestServerAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 2})
	registerDataset(t, ts.URL, "d", serverTestFacts)

	// Occupy both slots directly; the next request must 429 fast.
	rel1, ok := s.admit()
	if !ok {
		t.Fatal("first admit failed")
	}
	rel2, ok := s.admit()
	if !ok {
		t.Fatal("second admit failed")
	}
	start := time.Now()
	var eb errorBody
	code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program: serverTestProgram,
		Dataset: "d",
	}, &eb)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", code)
	}
	if eb.Code != "overloaded" {
		t.Fatalf("error code = %q, want overloaded", eb.Code)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("429 took %v; admission rejection must be fast", elapsed)
	}
	if got := s.Metrics().AdmissionRejections.Load(); got != 1 {
		t.Fatalf("rejections = %d, want 1", got)
	}
	rel1()
	rel2()

	// Slots released: the same request now succeeds.
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program: serverTestProgram,
		Dataset: "d",
	}, nil); code != http.StatusOK {
		t.Fatalf("post-release query: %d %s", code, raw)
	}
}

func TestServerQueryTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// A long chain makes the fixpoint slow enough that a 1ms deadline
	// fires mid-evaluation.
	var facts strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&facts, "e(%d, %d).\n", i, i+1)
	}
	registerDataset(t, ts.URL, "chain", facts.String())

	var eb errorBody
	code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program:   "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).\n?- p.",
		Dataset:   "chain",
		TimeoutMS: 1,
	}, &eb)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%+v), want 504", code, eb)
	}
	if eb.Code != "timeout" {
		t.Fatalf("error code = %q, want timeout", eb.Code)
	}
	if got := s.Metrics().QueryTimeouts.Load(); got != 1 {
		t.Fatalf("timeout counter = %d, want 1", got)
	}
}

func TestServerBudgetExceeded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var facts strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&facts, "e(%d, %d).\n", i, i+1)
	}
	registerDataset(t, ts.URL, "chain", facts.String())

	var eb errorBody
	code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program:   "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).\n?- p.",
		Dataset:   "chain",
		MaxTuples: 10,
	}, &eb)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d (%+v), want 422", code, eb)
	}
	if eb.Code != "budget_exceeded" {
		t.Fatalf("error code = %q, want budget_exceeded", eb.Code)
	}
	if got := s.Metrics().QueryBudgets.Load(); got != 1 {
		t.Fatalf("budget counter = %d, want 1", got)
	}
}

// TestServerMaxTuplesClamp: a request's max_tuples may tighten the
// server's budget but never lift it.
func TestServerMaxTuplesClamp(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxTuples: 50})
	var facts strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&facts, "e(%d, %d).\n", i, i+1)
	}
	registerDataset(t, ts.URL, "chain", facts.String())
	tc := "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).\n?- p."
	var eb errorBody
	code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program: tc, Dataset: "chain", MaxTuples: 1 << 40,
	}, &eb)
	if code != http.StatusUnprocessableEntity || eb.Code != "budget_exceeded" {
		t.Fatalf("raised max_tuples: status %d (%+v), want 422 budget_exceeded", code, eb)
	}
	// Lowering still applies: 5 tuples fit under the server's 50 but
	// not under a request budget of 3.
	small := "q(X) :- e(X, Y), X < 5.\n?- q."
	var ok queryResponse
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program: small, Dataset: "chain",
	}, &ok); code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, raw)
	}
	code, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program: small, Dataset: "chain", MaxTuples: 3,
	}, &eb)
	if code != http.StatusUnprocessableEntity || eb.Code != "budget_exceeded" {
		t.Fatalf("lowered max_tuples: status %d (%+v), want 422 budget_exceeded", code, eb)
	}
	// View registration resolves its budget through the same helper.
	if got := s.requestMaxTuples(1 << 40); got != 50 {
		t.Fatalf("requestMaxTuples(huge) = %d, want 50", got)
	}
	if got := (&Server{}).requestMaxTuples(1 << 40); got != 1<<40 {
		t.Fatalf("without -max-tuples a request budget applies, got %d", got)
	}
}

// TestServerWorkersClamp: a request's workers may shrink the
// evaluation pool but never grow it past the server's effective size.
func TestServerWorkersClamp(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	for _, tc := range []struct{ req, want int }{
		{0, 2}, {1, 1}, {2, 2}, {3, 2}, {1 << 20, 2},
	} {
		if got := s.requestWorkers(tc.req); got != tc.want {
			t.Errorf("requestWorkers(%d) = %d, want %d", tc.req, got, tc.want)
		}
	}
	// With the per-CPU default, an oversized request keeps the default.
	if got := (&Server{}).requestWorkers(1 << 20); got != 0 {
		t.Errorf("default pool: requestWorkers(huge) = %d, want 0 (one per CPU)", got)
	}
	var facts strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&facts, "e(%d, %d).\n", i, i+1)
	}
	registerDataset(t, ts.URL, "wide", facts.String())
	var resp queryResponse
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program: "q(X) :- e(X, Y), X < 100.\n?- q.", Dataset: "wide", Workers: 1 << 20,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, raw)
	}
	if len(resp.Answers) != 100 {
		t.Fatalf("answers = %d, want 100", len(resp.Answers))
	}
}

func TestServerErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerDataset(t, ts.URL, "d", serverTestFacts)

	cases := []struct {
		name     string
		req      queryRequest
		wantCode int
		wantErr  string
	}{
		{"unknown dataset", queryRequest{Program: serverTestProgram, Dataset: "nope"}, http.StatusNotFound, "unknown_dataset"},
		{"no facts source", queryRequest{Program: serverTestProgram}, http.StatusBadRequest, "bad_request"},
		{"parse error", queryRequest{Program: "p(X :-", Dataset: "d"}, http.StatusBadRequest, "parse_error"},
		{"no query decl", queryRequest{Program: "p(X, Y) :- e(X, Y).", Dataset: "d"}, http.StatusBadRequest, "bad_request"},
		{"bad ics", queryRequest{Program: serverTestProgram, ICs: ":- nope(", Dataset: "d"}, http.StatusBadRequest, "parse_error"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var eb errorBody
			code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", tc.req, &eb)
			if code != tc.wantCode {
				t.Fatalf("status = %d %s, want %d", code, raw, tc.wantCode)
			}
			if eb.Code != tc.wantErr {
				t.Fatalf("error code = %q, want %q", eb.Code, tc.wantErr)
			}
		})
	}
}

func TestServerInlineFactsDoNotMutateDataset(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerDataset(t, ts.URL, "d", serverTestFacts)

	// Query with extra inline facts that add a new answer.
	var r1 queryResponse
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program: serverTestProgram,
		Dataset: "d",
		Facts:   "startPoint(3).",
	}, &r1); code != http.StatusOK {
		t.Fatalf("query: %d %s", code, raw)
	}
	// The same query without inline facts must not see them.
	var r2 queryResponse
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program: serverTestProgram,
		Dataset: "d",
	}, &r2); code != http.StatusOK {
		t.Fatalf("query: %d %s", code, raw)
	}
	if len(r1.Answers) <= len(r2.Answers) {
		t.Fatalf("inline facts had no effect: %d vs %d answers", len(r1.Answers), len(r2.Answers))
	}
	want := []string{"(1, 4)", "(1, 5)", "(2, 4)", "(2, 5)"}
	if !reflect.DeepEqual(r2.Answers, want) {
		t.Fatalf("dataset was mutated by inline facts: %v", r2.Answers)
	}
}

func TestServerOptimizeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var r1, r2 optimizeResponse
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/optimize", optimizeRequest{
		Program: serverTestProgram, ICs: serverTestICs,
	}, &r1); code != http.StatusOK {
		t.Fatalf("optimize: %d %s", code, raw)
	}
	if r1.CacheHit || !r1.Satisfiable || r1.Program == "" || r1.Explain == "" {
		t.Fatalf("bad first response: %+v", r1)
	}
	if !strings.Contains(r1.Program, "?- goodPath.") {
		t.Fatalf("rewritten program lacks query declaration:\n%s", r1.Program)
	}
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/optimize", optimizeRequest{
		Program: serverTestProgram, ICs: serverTestICs,
	}, &r2); code != http.StatusOK {
		t.Fatal("second optimize failed")
	}
	if !r2.CacheHit {
		t.Fatal("second identical optimize missed the cache")
	}
	if r2.Program != r1.Program || r2.Explain != r1.Explain {
		t.Fatal("cached optimize output diverges from fresh output")
	}
}

func TestServerMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerDataset(t, ts.URL, "d", serverTestFacts)
	for i := 0; i < 2; i++ {
		if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
			Program: serverTestProgram, ICs: serverTestICs, Dataset: "d",
		}, nil); code != http.StatusOK {
			t.Fatalf("query: %d %s", code, raw)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"sqod_cache_hits_total 2",
		"sqod_cache_misses_total 2",
		"sqod_datasets 1",
		"sqod_eval_rounds_total",
		"sqod_tuples_derived_total",
		`sqod_requests_total{endpoint="query",code="200"} 2`,
		`sqod_request_seconds_bucket{endpoint="query",le="+Inf"} 2`,
		"sqod_inflight_evals 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	// Healthz while we're here.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hr.StatusCode)
	}
}
