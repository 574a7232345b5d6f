package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"

	sqo "repro"
	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/bounded"
	"repro/internal/eval"
	"repro/internal/incr"
	"repro/internal/lint"
	"repro/internal/magic"
	"repro/internal/parser"
	"repro/internal/qtree"
	"repro/internal/rewrite"
	"repro/internal/server"
	"repro/internal/store"
)

// The traced run replays every request, after its HTTP reply, through
// the public functions of each layer in the order the server's handler
// calls them, with a span around each call. The replay is checked
// against the server: its optimized program must print byte-identically
// to sqo.OptimizeCtx's, its answers must equal the HTTP answers, its
// eval counters the reply's stats, and its view deltas the reply's.

// layerCounts accumulates the counters read at the layer boundaries.
type layerCounts struct {
	n                             [numKinds]int64 // replayed requests, by kind
	rulesOut, boundedChecked      int64
	rounds, derived, probes, peak int64
	answers, planNS               int64
	deltaProbes, rederiveChecks   int64
	walBytes, userBytes           int64
}

func (c *layerCounts) add(o *layerCounts) {
	for k := range c.n {
		c.n[k] += o.n[k]
	}
	c.rulesOut += o.rulesOut
	c.boundedChecked += o.boundedChecked
	c.rounds += o.rounds
	c.derived += o.derived
	c.probes += o.probes
	c.peak += o.peak
	c.answers += o.answers
	c.planNS += o.planNS
	c.deltaProbes += o.deltaProbes
	c.rederiveChecks += o.rederiveChecks
	c.walBytes += o.walBytes
	c.userBytes += o.userBytes
}

type replayView struct {
	name string
	v    *incr.View
}

// replayer holds the replay's own copy of the server state: one
// database per dataset, its own rewrite and elimination caches, and,
// for workloads that write, a store and the views the updates maintain.
type replayer struct {
	ctx context.Context
	dbs map[string]*eval.DB // read-only once built

	mu   sync.Mutex
	opt  map[string]*qtree.Outcome // by server.CacheKey
	elim map[string]*ast.Program   // by the server's elim key; nil = not bounded

	upd   sync.Mutex // serializes update replays, as the dataset lock does
	st    *store.Store
	dir   string
	views []replayView // sorted by name, the order the server applies them
}

// newReplayer rebuilds the state the server holds after the workload's
// set-up, before any client has sent a request.
func newReplayer(ctx context.Context, w *workload, tmp string) (*replayer, error) {
	rp := &replayer{ctx: ctx, dbs: map[string]*eval.DB{}, opt: map[string]*qtree.Outcome{}, elim: map[string]*ast.Program{}}
	facts := map[string][]ast.Atom{}
	for _, d := range w.datasets {
		atoms, err := parser.ParseFacts(d.body())
		if err != nil {
			return nil, err
		}
		// The server evaluates over its facts in rendered order.
		sort.Slice(atoms, func(a, b int) bool { return atoms[a].String() < atoms[b].String() })
		db := eval.NewDB()
		db.AddFacts(atoms)
		rp.dbs[d.name] = db
		facts[d.name] = atoms
	}
	// Replay the set-up's warm-up outside any measurement, so the
	// replay's caches hold what the server's do when the timed run
	// starts.
	for _, o := range w.warmup {
		for i := range o {
			if o[i].kind == kindQuery {
				q := &queryReply{Answers: o[i].wantAnswers, Satisfiable: true}
				if err := rp.query(&spanBuf{}, 0, -1, &o[i], q, &layerCounts{}, false); err != nil {
					return nil, fmt.Errorf("replaying the warm-up: %w", err)
				}
			}
		}
	}
	if !w.writes {
		return rp, nil
	}
	dir, err := os.MkdirTemp(tmp, "replay-")
	if err != nil {
		return nil, err
	}
	rp.dir = dir
	rp.st, _, err = store.Open(dir, store.Options{Fsync: store.FsyncAlways, CheckpointEvery: 4096})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	for _, d := range w.datasets {
		if err := rp.st.AppendDatasetCreate(d.name, facts[d.name]); err != nil {
			rp.close()
			return nil, err
		}
	}
	for _, vs := range w.views {
		prog, err := parser.ParseProgram(vs.program)
		if err != nil {
			rp.close()
			return nil, err
		}
		out, err := qtree.OptimizeCtx(ctx, prog, nil, qtree.DefaultOptions())
		if err != nil {
			rp.close()
			return nil, err
		}
		v, err := incr.MaterializeCtx(ctx, out.Program, rp.dbs[vs.dataset], incr.Options{Policy: eval.PolicyGreedy})
		if err != nil {
			rp.close()
			return nil, err
		}
		rp.views = append(rp.views, replayView{vs.name, v})
	}
	sort.Slice(rp.views, func(i, j int) bool { return rp.views[i].name < rp.views[j].name })
	return rp, nil
}

func (rp *replayer) close() {
	if rp.st != nil {
		if err := rp.st.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "closing replay store:", err)
		}
		os.RemoveAll(rp.dir)
	}
}

// replay re-runs one answered request layer by layer under a "replay"
// root span; checks run inside the root but outside the layer spans.
func (rp *replayer) replay(b *spanBuf, req int64, r *request, reply any, c *layerCounts) error {
	root := b.begin("replay", req, -1)
	defer b.end(root)
	c.n[r.kind]++
	switch r.kind {
	case kindQuery:
		return rp.query(b, req, root, r, reply.(*queryReply), c, true)
	case kindUpdate:
		return rp.update(b, req, root, r, reply.(*updateReply), c)
	default:
		return rp.lint(b, req, root, r, reply.(*lintReply))
	}
}

func parseSources(program, ics string) (*ast.Program, []ast.IC, error) {
	p, err := parser.ParseProgram(program)
	if err != nil {
		return nil, nil, err
	}
	is, err := parser.ParseICs(ics)
	return p, is, err
}

// query follows handleQuery: parse, rewrite cache, the qtree passes on
// a miss, the cached elimination verdict (bounded.Rewrite on a miss),
// magic.Rewrite, eval.EvalCtx with the goal filter, then rendering.
// With checkStats false (the warm-up, whose replies were checked at
// set-up) only the answers are compared.
func (rp *replayer) query(b *spanBuf, req int64, root int, r *request, q *queryReply, c *layerCounts, checkStats bool) error {
	s := b.begin("parser", req, root)
	prog, ics, err := parseSources(r.program, r.ics)
	b.end(s)
	if err != nil {
		return err
	}

	s = b.begin("server.cache", req, root)
	key := server.CacheKey(prog, ics, qtree.DefaultOptions())
	rp.mu.Lock()
	out, hit := rp.opt[key]
	rp.mu.Unlock()
	b.end(s)
	if !hit {
		if out, err = optimize(rp.ctx, b, req, root, prog, ics); err != nil {
			return err
		}
		if err := sameAsOptimizer(rp.ctx, prog, ics, out); err != nil {
			return err
		}
		rp.mu.Lock()
		rp.opt[key] = out
		rp.mu.Unlock()
	}
	if out.Satisfiable != q.Satisfiable {
		return fmt.Errorf("replay: satisfiable %t, server %t", out.Satisfiable, q.Satisfiable)
	}
	p := out.Program
	c.rulesOut += int64(len(p.Rules))

	s = b.begin("server.cache", req, root)
	ekey := "elim\x00" + server.CacheKey(p, nil, qtree.Options{})
	rp.mu.Lock()
	elimmed, hit := rp.elim[ekey]
	rp.mu.Unlock()
	b.end(s)
	if !hit {
		s = b.begin("bounded", req, root)
		res, err := bounded.Rewrite(p, bounded.Options{})
		b.end(s)
		if res != nil {
			c.boundedChecked += int64(len(res.Analyses))
		}
		switch {
		case err == nil:
			elimmed = res.Program
		case !errors.Is(err, bounded.ErrNotBounded):
			return err
		}
		rp.mu.Lock()
		rp.elim[ekey] = elimmed
		rp.mu.Unlock()
	}
	if elimmed != nil {
		p = elimmed
	}

	ep := p
	if len(p.Goal) > 0 {
		s = b.begin("magic", req, root)
		res, err := magic.Rewrite(p)
		b.end(s)
		switch {
		case err == nil:
			ep = res.Program
		case !errors.Is(err, magic.ErrNotApplicable):
			return err
		}
	}

	s = b.begin("eval", req, root)
	idb, st, err := eval.EvalCtx(rp.ctx, ep, rp.dbs[r.dataset], eval.DefaultOptions())
	var tuples []eval.Tuple
	if err == nil {
		if rel := idb.Lookup(ep.Query); rel != nil {
			for _, t := range rel.Tuples() {
				if len(p.Goal) == 0 || p.MatchesGoal(t) {
					tuples = append(tuples, t)
				}
			}
		}
	}
	b.end(s)
	if err != nil {
		return err
	}

	s = b.begin("server.encode", req, root)
	answers := make([]string, len(tuples))
	for i, t := range tuples {
		answers[i] = t.String()
	}
	sort.Strings(answers)
	b.end(s)

	c.rounds += int64(st.Iterations)
	c.derived += st.TuplesDerived
	c.probes += st.JoinProbes
	c.peak += st.PeakMaterialized
	c.answers += int64(len(answers))
	c.planNS += st.PlanNanos
	if !slices.Equal(answers, q.Answers) {
		return fmt.Errorf("replay: %d answers, server %d", len(answers), len(q.Answers))
	}
	if checkStats && (st.Iterations != q.Stats.Rounds || st.TuplesDerived != q.Stats.TuplesDerived ||
		st.RuleFirings != q.Stats.RuleFirings || st.JoinProbes != q.Stats.JoinProbes) {
		return fmt.Errorf("replay: eval counters %d/%d/%d/%d, server %+v",
			st.Iterations, st.TuplesDerived, st.RuleFirings, st.JoinProbes, q.Stats)
	}
	return nil
}

// optimize re-runs qtree.OptimizeCtx's passes one by one, each in its
// own span under a "qtree" span.
func optimize(ctx context.Context, b *spanBuf, req int64, root int, p *ast.Program, ics []ast.IC) (*qtree.Outcome, error) {
	q := b.begin("qtree", req, root)
	defer b.end(q)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.ValidateICs(ics); err != nil {
		return nil, err
	}
	out := &qtree.Outcome{}
	cur := p.Clone()

	s := b.begin("qtree.normalize", req, q)
	cur = rewrite.NormalizeOrder(cur)
	b.end(s)

	s = b.begin("qtree.local", req, q)
	cur = rewrite.RewriteLocalPlanned(cur, rewrite.PlanICs(ics))
	b.end(s)

	s = b.begin("qtree.push", req, q)
	cur, err := rewrite.PushOrder(cur)
	if err == nil {
		cur = rewrite.PropagateHeadEqualities(cur)
	}
	b.end(s)
	if err != nil {
		return nil, err
	}

	s = b.begin("qtree.specialize", req, q)
	sp, err := adorn.Specialize(cur)
	b.end(s)
	if err != nil {
		return nil, err
	}

	s = b.begin("qtree.bottomup", req, q)
	res, err := adorn.BottomUp(sp, ics)
	b.end(s)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	s = b.begin("qtree.build", req, q)
	defer b.end(s)
	tree := qtree.Build(res)
	tree.Prune()
	out.Tree = tree
	out.Warnings = res.Warnings
	out.Program = tree.Extract()
	out.Satisfiable = tree.Satisfiable() && len(out.Program.RulesFor(out.Program.Query)) > 0
	if out.Satisfiable {
		if pushed, err := rewrite.PushOrder(out.Program); err == nil {
			out.Program = pushed
		}
	}
	if len(p.Goal) > 0 {
		out.Program.Goal = append([]ast.Term(nil), p.Goal...)
	}
	return out, nil
}

// sameAsOptimizer checks the pass-by-pass replay against the optimizer
// the server calls.
func sameAsOptimizer(ctx context.Context, p *ast.Program, ics []ast.IC, out *qtree.Outcome) error {
	want, err := sqo.OptimizeCtx(ctx, p, ics, sqo.DefaultOptions())
	if err != nil {
		return err
	}
	if got, exp := sqo.FormatProgram(out.Program), sqo.FormatProgram(want.Program); got != exp || out.Satisfiable != want.Satisfiable {
		return fmt.Errorf("replay: optimized program differs from sqo.OptimizeCtx:\n%s\nwant:\n%s", got, exp)
	}
	return nil
}

// lint follows handleLint: parse, then lint.Run with the server's
// options.
func (rp *replayer) lint(b *spanBuf, req int64, root int, r *request, l *lintReply) error {
	s := b.begin("parser", req, root)
	prog, ics, err := parseSources(r.program, r.ics)
	b.end(s)
	if err != nil {
		return err
	}
	s = b.begin("lint", req, root)
	rep := lint.Run(rp.ctx, prog, ics, nil, lint.Options{MagicEnabled: true, ElimEnabled: true})
	b.end(s)
	if len(rep.Findings) != len(l.Findings) {
		return fmt.Errorf("replay: %d lint findings, server %d", len(rep.Findings), len(l.Findings))
	}
	for i, f := range rep.Findings {
		g := l.Findings[i]
		if f.Check != g.Check || f.ID != g.ID || f.Line != g.Line || f.Col != g.Col {
			return fmt.Errorf("replay: lint finding %d is %s/%s, server %s/%s", i, f.Check, f.ID, g.Check, g.ID)
		}
	}
	return nil
}

// update follows updateDataset: parse, the write-ahead append, then
// View.ApplyCtx on every view in name order. The snapshot rebuild is
// left to the server and so falls into server.overhead_ms.
func (rp *replayer) update(b *spanBuf, req int64, root int, r *request, u *updateReply, c *layerCounts) error {
	s := b.begin("parser", req, root)
	facts, err := parser.ParseFacts(r.facts)
	b.end(s)
	if err != nil {
		return err
	}
	var adds, dels []ast.Atom
	if r.retract {
		dels = facts
	} else {
		adds = facts
	}

	rp.upd.Lock()
	defer rp.upd.Unlock()
	before := rp.st.Counters().Bytes
	s = b.begin("store.append", req, root)
	err = rp.st.AppendFacts(r.dataset, adds, dels)
	b.end(s)
	if err != nil {
		return err
	}
	c.walBytes += rp.st.Counters().Bytes - before
	c.userBytes += int64(len(r.facts))

	if len(u.Views) != len(rp.views) {
		return fmt.Errorf("replay: %d views, server maintained %d", len(rp.views), len(u.Views))
	}
	for i, v := range rp.views {
		st0 := v.v.Stats()
		s = b.begin("incr.apply", req, root)
		ch, err := v.v.ApplyCtx(rp.ctx, adds, dels)
		b.end(s)
		if err != nil {
			return err
		}
		st1 := v.v.Stats()
		c.deltaProbes += st1.DeltaProbes - st0.DeltaProbes
		c.rederiveChecks += st1.RederiveChecks - st0.RederiveChecks
		if got := u.Views[i]; got.Name != v.name || got.AnswersAdded != len(ch.Added) || got.AnswersRemoved != len(ch.Removed) {
			return fmt.Errorf("replay: view %s +%d -%d, server %s +%d -%d",
				v.name, len(ch.Added), len(ch.Removed), got.Name, got.AnswersAdded, got.AnswersRemoved)
		}
	}
	return nil
}
