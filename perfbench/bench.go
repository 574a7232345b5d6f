package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// env is one running in-process sqod: a durable store in a temporary
// directory at fsync "always" (the daemon's default), the server behind
// httptest, and a keep-alive HTTP client.
type env struct {
	dir string
	st  *store.Store
	srv *server.Server
	ts  *httptest.Server
	hc  *http.Client
}

// setup starts a server and brings it to the state the timed run starts
// from: datasets loaded, views registered, rewrite cache warmed. Every
// reply is checked; a wrong one fails the set-up.
func setup(w *workload, tmp string) (*env, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "sqod-")
	if err != nil {
		return nil, err
	}
	st, rec, err := store.Open(dir, store.Options{Fsync: store.FsyncAlways, CheckpointEvery: 4096})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("opening store: %w", err)
	}
	// sqod logs one line per request; keep the formatting, drop the output.
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := server.New(server.Config{Store: st, Recovered: rec, Logger: logger})
	e := &env{dir: dir, st: st, srv: srv, ts: httptest.NewServer(srv.Handler())}
	e.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: len(w.clients) + 1}}

	for _, d := range w.datasets {
		status, body, _, err := e.do("PUT", "/v1/datasets/"+d.name, []byte(d.body()))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("loading dataset %s: %w", d.name, err)
		}
	}
	for _, v := range w.views {
		status, body, _, err := e.do("POST", "/v1/datasets/"+v.dataset+"/views/"+v.name,
			jsonBody(map[string]string{"program": v.program}))
		if err == nil {
			err = checkView(status, body, v.wantAnswers)
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("creating view %s: %w", v.name, err)
		}
	}
	if err := e.warm(w); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// warm sends the warm-up operations from as many goroutines as the
// workload has clients.
func (e *env) warm(w *workload) error {
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
		next  = make(chan op)
	)
	for range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range next {
				for i := range o {
					status, body, _, err := e.do(o[i].method, o[i].path, o[i].body)
					if err == nil {
						_, err = check(&o[i], status, body)
					}
					if err != nil {
						mu.Lock()
						if first == nil {
							first = fmt.Errorf("warm-up %s %s: %w", o[i].method, o[i].path, err)
						}
						mu.Unlock()
					}
				}
			}
		}()
	}
	for _, o := range w.warmup {
		next <- o
	}
	close(next)
	wg.Wait()
	return first
}

func (e *env) close() {
	e.ts.Close()
	e.hc.CloseIdleConnections()
	if err := e.st.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "closing store:", err)
	}
	os.RemoveAll(e.dir)
}

// do sends one request and reads the whole reply; lat covers both.
func (e *env) do(method, path string, body []byte) (status int, reply []byte, lat time.Duration, err error) {
	req, err := http.NewRequest(method, e.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := e.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	reply, err = io.ReadAll(resp.Body)
	lat = time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, reply, lat, err
}

// --- replies and the oracle --------------------------------------------

type queryReply struct {
	Answers     []string `json:"answers"`
	Satisfiable bool     `json:"satisfiable"`
	Stats       struct {
		Rounds        int   `json:"rounds"`
		TuplesDerived int64 `json:"tuples_derived"`
		RuleFirings   int64 `json:"rule_firings"`
		JoinProbes    int64 `json:"join_probes"`
	} `json:"stats"`
}

type updateReply struct {
	FactsAdded   int `json:"facts_added"`
	FactsRemoved int `json:"facts_removed"`
	Views        []struct {
		Name           string `json:"name"`
		AnswersAdded   int    `json:"answers_added"`
		AnswersRemoved int    `json:"answers_removed"`
		Error          string `json:"error"`
	} `json:"views"`
}

type lintReply struct {
	Findings []struct {
		Check string `json:"check"`
		ID    string `json:"id"`
		Line  int    `json:"line"`
		Col   int    `json:"col"`
	} `json:"findings"`
	Errors int `json:"errors"`
}

// check holds a reply against the request's expectation and returns
// the decoded reply (*queryReply, *updateReply or *lintReply).
func check(r *request, status int, body []byte) (any, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	switch r.kind {
	case kindQuery:
		var q queryReply
		if err := json.Unmarshal(body, &q); err != nil {
			return nil, err
		}
		if !q.Satisfiable || !slices.Equal(q.Answers, r.wantAnswers) {
			return &q, fmt.Errorf("query %q: %d answers, want %d (satisfiable=%t)",
				r.program, len(q.Answers), len(r.wantAnswers), q.Satisfiable)
		}
		return &q, nil
	case kindUpdate:
		var u updateReply
		if err := json.Unmarshal(body, &u); err != nil {
			return nil, err
		}
		got := u.FactsAdded
		if r.retract {
			got = u.FactsRemoved
		}
		if got != r.wantFacts || u.FactsAdded+u.FactsRemoved != r.wantFacts {
			return &u, fmt.Errorf("update %s %s: facts added %d removed %d, want %d",
				r.method, r.facts, u.FactsAdded, u.FactsRemoved, r.wantFacts)
		}
		if len(u.Views) != len(r.wantViews) {
			return &u, fmt.Errorf("update %s %s: %d views maintained, want %d", r.method, r.facts, len(u.Views), len(r.wantViews))
		}
		for _, v := range u.Views {
			want, ok := r.wantViews[v.Name]
			if !ok || v.Error != "" || v.AnswersAdded != want[0] || v.AnswersRemoved != want[1] {
				return &u, fmt.Errorf("update %s %s: view %s +%d -%d (%s), want +%d -%d",
					r.method, r.facts, v.Name, v.AnswersAdded, v.AnswersRemoved, v.Error, want[0], want[1])
			}
		}
		return &u, nil
	default:
		var l lintReply
		if err := json.Unmarshal(body, &l); err != nil {
			return nil, err
		}
		// The program is satisfiable on a database that satisfies the
		// constraints, so no finding may be an error.
		if l.Errors != 0 {
			return &l, fmt.Errorf("lint: %d errors on a well-formed program", l.Errors)
		}
		return &l, nil
	}
}

func checkView(status int, body []byte, want int) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	var v struct {
		AnswerCount int `json:"answer_count"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return err
	}
	if v.AnswerCount != want {
		return fmt.Errorf("%d answers, want %d", v.AnswerCount, want)
	}
	return nil
}

// --- the closed loop ---------------------------------------------------

// phase is what one timed stretch of the closed loop measured.
type phase struct {
	opMS      []float64           // latency of each whole operation
	reqMS     [numKinds][]float64 // latency of each request, by kind
	respBytes [numKinds]int64     // reply bytes, by kind
	ops       int
	failed    int
	elapsed   time.Duration
	firstErr  error
	layers    layerCounts // traced phases only
	spans     []*spanBuf  // traced phases only
}

// drive runs every client in a closed loop until dur has passed and at
// least minOps operations have started; an operation started before the
// end is completed and counted. With a replayer, each request is
// replayed through the layers after its reply, inside spans.
func drive(e *env, w *workload, dur time.Duration, minOps int64, rp *replayer) *phase {
	results := make([]*phase, len(w.clients))
	base := time.Now()
	deadline := base.Add(dur)
	var started atomic.Int64
	var wg sync.WaitGroup
	for i, next := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &phase{}
			var buf *spanBuf
			if rp != nil {
				buf = &spanBuf{client: i, base: base}
				p.spans = []*spanBuf{buf}
			}
			for seq := int64(0); time.Now().Before(deadline) || started.Load() < minOps; {
				started.Add(1)
				o := next()
				var opLat time.Duration
				ok := true
				for k := range o {
					r := &o[k]
					reqID := int64(i)<<32 | seq
					seq++
					var root int
					if buf != nil {
						root = buf.begin("request", reqID, -1)
					}
					status, body, lat, err := e.do(r.method, r.path, r.body)
					if buf != nil {
						buf.end(root)
					}
					opLat += lat
					p.reqMS[r.kind] = append(p.reqMS[r.kind], ms(lat))
					p.respBytes[r.kind] += int64(len(body))
					var reply any
					if err == nil {
						reply, err = check(r, status, body)
					}
					if err == nil && rp != nil {
						err = rp.replay(buf, reqID, r, reply, &p.layers)
					}
					if err != nil {
						ok = false
						if p.firstErr == nil {
							p.firstErr = err
						}
					}
				}
				p.ops++
				p.opMS = append(p.opMS, ms(opLat))
				if !ok {
					p.failed++
				}
			}
			results[i] = p
		}()
	}
	wg.Wait()
	total := &phase{elapsed: time.Since(base)}
	for _, p := range results {
		total.opMS = append(total.opMS, p.opMS...)
		for k := range p.reqMS {
			total.reqMS[k] = append(total.reqMS[k], p.reqMS[k]...)
			total.respBytes[k] += p.respBytes[k]
		}
		total.ops += p.ops
		total.failed += p.failed
		if total.firstErr == nil {
			total.firstErr = p.firstErr
		}
		total.layers.add(&p.layers)
		total.spans = append(total.spans, p.spans...)
	}
	return total
}

func (p *phase) opsPerSec() float64 { return float64(p.ops) / p.elapsed.Seconds() }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
