package eval

// The fixpoint engine. Every evaluation interns the EDB relations the
// program references (intern.go), compiles one plan per (rule, delta
// occurrence) (plan.go), and runs semi-naive snapshot rounds: each
// round, every rule runs once per IDB subgoal occurrence with that
// occurrence restricted to the previous round's delta and every other
// subgoal reading the IDB as of the round start. Each task runs the
// plan executor (join.go) over those views into a private buffer, the
// tasks of a round run concurrently over a bounded worker pool, and
// the barrier merges the buffers strictly in task order — so answers,
// Stats, and provenance are identical for every worker count.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/shard"
)

// evaluate validates p and evaluates it over edb, recording provenance
// steps into prov when non-nil.
func evaluate(ctx context.Context, p *ast.Program, edb *DB, opts Options, prov *Provenance) (*DB, *Stats, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	ev := &engine{
		ctx:     ctx,
		prog:    p,
		opts:    opts,
		policy:  opts.effectivePolicy(),
		workers: opts.effectiveWorkers(),
		stats:   &Stats{},
		prov:    prov,
	}
	if err := ev.prepare(edb); err != nil {
		return nil, nil, err
	}
	if err := ev.run(); err != nil {
		return nil, nil, err
	}
	return ev.publicIDB(), ev.stats, nil
}

type engine struct {
	ctx     context.Context
	prog    *ast.Program
	opts    Options
	policy  JoinOrderPolicy
	workers int
	stats   *Stats
	idbPr   map[string]bool
	in      *interner
	edb     map[string]*irel
	idb     map[string]*irel
	delta   map[string]*irel // tuples new in the current round
	negs    [][]view         // per rule: views of its negated subgoals
	plans   map[planKey]*plan
	// Cost/adaptive state (nil under greedy): cur holds the plans the
	// current round runs, re-chosen at every round barrier from live
	// relation statistics; planCache memoizes compiled plans by join
	// order so a recurring order costs one map hit; curEst holds the
	// per-depth match estimates backing the adaptive misestimate check.
	// All three are touched only at single-threaded round barriers.
	cur       map[planKey]*plan
	planCache map[planKey]map[string]*plan
	curEst    map[planKey][]float64
	prov      *Provenance
	// Sharding state (zero when Options.Shards < 2): owner slices are
	// extended only at single-threaded round barriers and read
	// concurrently by tasks.
	shards int
	part   shard.Partitioner
	owners map[*irel][]uint8
}

// task is one unit of round work: run the plan of one rule with one
// subgoal occurrence restricted to the previous delta (occ == -1 for
// none) over views, optionally over a partition [lo, hi) of the rows
// of the relation probed first (hi == 0 means the whole relation).
// Tasks are independent: they read the round's frozen snapshot and
// write only their own buffers.
//
// Under sharded evaluation (nShards > 0) the depth-0 partition is a
// hash partition instead of a range: the task only probes depth-0 rows
// whose precomputed owner (owners[row]) equals shard. Sharded tasks
// are never additionally range-partitioned.
type task struct {
	ruleIdx int
	occ     int
	views   []view // per positive subgoal, shared by a unit's partitions
	lo, hi  int
	shard   int
	nShards int     // 0 = unsharded
	owners  []uint8 // per-row shard owner of the depth-0 relation
}

// minPartitionChunk is the smallest per-partition tuple range worth a
// separate task; below it, goroutine and buffer overhead dominates.
const minPartitionChunk = 8

// appendPartitioned appends t split into up to workers contiguous
// range partitions of the depth-0 relation (relLen tuples). The split
// never changes results or stats: partitions cover the same tuple
// ranges a single task would scan, in the same merged order.
func appendPartitioned(ts []task, t task, relLen, workers int) []task {
	parts := workers
	if parts > relLen/minPartitionChunk {
		parts = relLen / minPartitionChunk
	}
	if workers <= 1 || parts <= 1 {
		return append(ts, t)
	}
	chunk := (relLen + parts - 1) / parts
	for lo := 0; lo < relLen; lo += chunk {
		nt := t
		nt.lo, nt.hi = lo, min(lo+chunk, relLen)
		ts = append(ts, nt)
	}
	return ts
}

// prepare compiles the program's plans and interns the EDB relations
// the program references. Interning is O(EDB) with small constants and
// happens once per evaluation, before any join runs.
func (ev *engine) prepare(edb *DB) error {
	if s := ev.opts.effectiveShards(); s > 0 {
		ev.shards = s
		ev.part = ev.opts.partitioner()
		ev.owners = map[*irel][]uint8{}
	}
	ev.idbPr = ev.prog.IDB()
	arity, err := ev.prog.PredArity()
	if err != nil {
		return err
	}
	ev.in = newInterner()
	ev.plans = map[planKey]*plan{}
	planStart := time.Now()
	for i, r := range ev.prog.Rules {
		ev.plans[planKey{i, -1}] = compilePlan(ev.in, r, i, -1)
		ev.stats.PlansCompiled++
		for occ, a := range r.Pos {
			if ev.idbPr[a.Pred] {
				ev.plans[planKey{i, occ}] = compilePlan(ev.in, r, i, occ)
				ev.stats.PlansCompiled++
			}
		}
	}
	ev.stats.PlanNanos += time.Since(planStart).Nanoseconds()
	if ev.policy != PolicyGreedy {
		// The greedy plans above stay the constant-interning pass and
		// the cache seed; the round loop re-chooses orders from live
		// statistics before building each round's tasks.
		ev.cur = map[planKey]*plan{}
		ev.planCache = map[planKey]map[string]*plan{}
		ev.curEst = map[planKey][]float64{}
	}

	referenced := map[string]bool{}
	for _, r := range ev.prog.Rules {
		for _, a := range r.Pos {
			if !ev.idbPr[a.Pred] {
				referenced[a.Pred] = true
			}
		}
		for _, a := range r.Neg {
			referenced[a.Pred] = true
		}
	}
	preds := make([]string, 0, len(referenced))
	for pred := range referenced {
		preds = append(preds, pred)
	}
	sort.Strings(preds) // deterministic interning order
	ev.edb = make(map[string]*irel, len(preds))
	for _, pred := range preds {
		rel := edb.Lookup(pred)
		if rel == nil {
			continue
		}
		ir := newIrel(rel.Arity, rel.Len())
		buf := make([]uint32, rel.Arity)
		for _, t := range rel.tuples {
			for j, v := range t {
				buf[j] = ev.in.intern(v)
			}
			ir.add(buf)
		}
		ev.edb[pred] = ir
	}

	ev.idb = make(map[string]*irel, len(ev.idbPr))
	for pred := range ev.idbPr {
		ev.idb[pred] = newIrel(arity[pred], 0)
	}
	// Negation ranges over the frozen EDB, so every rule's negated
	// views are fixed for the whole evaluation.
	ev.negs = make([][]view, len(ev.prog.Rules))
	for i, r := range ev.prog.Rules {
		for _, a := range r.Neg {
			ev.negs[i] = append(ev.negs[i], fullView(ev.edb[a.Pred]))
		}
	}
	return nil
}

// run is the semi-naive fixpoint. Round 0 runs the rules without IDB
// subgoals; every later round runs each rule once per IDB subgoal
// occurrence, restricted to the previous round's delta, until a round
// derives nothing new.
func (ev *engine) run() error {
	var initKeys, deltaKeys []planKey
	for i, r := range ev.prog.Rules {
		if r.IsInit(ev.idbPr) {
			initKeys = append(initKeys, planKey{i, -1})
		}
		for occ, a := range r.Pos {
			if ev.idbPr[a.Pred] {
				deltaKeys = append(deltaKeys, planKey{i, occ})
			}
		}
	}
	keys := initKeys
	var prevDelta map[string]*irel
	var tasks []task
	for {
		if err := ev.ctx.Err(); err != nil {
			return err
		}
		ev.delta = ev.newDelta()
		ev.stats.Iterations++
		tasks = ev.buildTasks(tasks[:0], keys, prevDelta)
		if err := ev.runRound(tasks); err != nil {
			return err
		}
		if totalRows(ev.delta) == 0 {
			return nil
		}
		keys, prevDelta = deltaKeys, ev.delta
	}
}

// planFor resolves the plan a task runs: the current round's
// cost-chosen plan when the policy re-plans, the prepare-time greedy
// plan otherwise.
func (ev *engine) planFor(ruleIdx, occ int) *plan {
	if ev.cur != nil {
		if pl, ok := ev.cur[planKey{ruleIdx, occ}]; ok {
			return pl
		}
	}
	return ev.plans[planKey{ruleIdx, occ}]
}

// planOrdered returns a compiled plan for the given order, reusing the
// prepare-time greedy plan when the orders coincide and memoizing
// everything else by order signature.
func (ev *engine) planOrdered(k planKey, r ast.Rule, order []int) *plan {
	if base := ev.plans[k]; intsEqual(base.order, order) {
		return base
	}
	sig := orderSig(order)
	byOrder := ev.planCache[k]
	if byOrder == nil {
		byOrder = map[string]*plan{}
		ev.planCache[k] = byOrder
	}
	pl := byOrder[sig]
	if pl == nil {
		pl = compilePlanOrdered(ev.in, r, k.ruleIdx, k.occ, false, order)
		ev.stats.PlansCompiled++
		byOrder[sig] = pl
	}
	return pl
}

// taskParts is the partition count for depth-0 range splitting. The
// adaptive policy disables partitioning: its decisions are task-local,
// so tasks must be identical for every worker count to keep answers,
// Stats, and provenance worker-invariant.
func (ev *engine) taskParts() int {
	if ev.policy == PolicyAdaptive {
		return 1
	}
	return ev.workers
}

func (ev *engine) newDelta() map[string]*irel {
	d := make(map[string]*irel, len(ev.idb))
	for pred, ir := range ev.idb {
		d[pred] = newIrel(ir.arity, 0)
	}
	return d
}

func totalRows(d map[string]*irel) int {
	n := 0
	for _, ir := range d {
		n += ir.n
	}
	return n
}

// buildTasks resolves each key's subgoal views against the round
// snapshot, re-chooses its join order from their statistics under the
// cost and adaptive policies, and expands it into (possibly
// partitioned) tasks over the relation its plan probes first.
func (ev *engine) buildTasks(tasks []task, keys []planKey, prevDelta map[string]*irel) []task {
	n := 0
	for _, k := range keys {
		n += len(ev.prog.Rules[k.ruleIdx].Pos)
	}
	buf := make([]view, n) // every key's views in one allocation
	for _, k := range keys {
		r := ev.prog.Rules[k.ruleIdx]
		views := buf[:len(r.Pos):len(r.Pos)]
		buf = buf[len(r.Pos):]
		for si, a := range r.Pos {
			switch {
			case si == k.occ:
				views[si] = fullView(prevDelta[a.Pred])
			case ev.idbPr[a.Pred]:
				views[si] = fullView(ev.idb[a.Pred])
			default:
				views[si] = fullView(ev.edb[a.Pred])
			}
		}
		if ev.policy != PolicyGreedy {
			start := time.Now()
			order, ests := costJoinOrder(r, k.occ, viewsEstimate(views), nil)
			ev.cur[k] = ev.planOrdered(k, r, order)
			ev.curEst[k] = ests
			ev.stats.PlanNanos += time.Since(start).Nanoseconds()
		}
		t := task{ruleIdx: k.ruleIdx, occ: k.occ, views: views}
		pl := ev.planFor(k.ruleIdx, k.occ)
		if len(pl.subs) == 0 {
			tasks = append(tasks, t)
			continue
		}
		first := views[pl.subs[0].subIdx]
		if ev.shards > 0 {
			tasks = appendSharded(tasks, t, ev.ownersFor(first.r), ev.shards)
			continue
		}
		tasks = appendPartitioned(tasks, t, first.hi, ev.taskParts())
	}
	return tasks
}

// planSeg records, for provenance under adaptive reorders, which plan
// was live from a given head index onward: a head row must be
// materialized with the plan (and slot numbering) that produced its
// binding snapshot.
type planSeg struct {
	fromHead int
	pl       *plan
}

// taskOut is the private output buffer of one task: the deduplicated
// head rows (flat, head-arity values each) and, when provenance is on,
// the slot-binding snapshot per head.
type taskOut struct {
	headRows []uint32
	nHeads   int
	rowIdx   []int32  // sharded tasks: depth-0 row index per head
	snaps    []uint32 // nSlots values per head
	probes   int64
	firings  int64
	// Adaptive-policy accounting, merged into Stats at the barrier.
	skips         int64
	reorders      int64
	plansCompiled int64
	planNanos     int64
	segs          []planSeg // mid-task plan swaps (provenance only)
	err           error
}

// runRound executes the round's tasks — concurrently over a bounded
// worker pool when Workers > 1 — and then merges each task's buffered
// head rows into the IDB (and the round's delta) strictly in task
// order. Tasks only read the frozen snapshot, so the merge order alone
// determines insertion order, making answers and Stats identical for
// every worker count.
func (ev *engine) runRound(tasks []task) error {
	results := make([]taskOut, len(tasks))
	workers := min(ev.workers, len(tasks))
	if workers > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(tasks) {
						return
					}
					ev.runTask(tasks[i], &results[i])
				}
			}()
		}
		wg.Wait()
	} else {
		for i, t := range tasks {
			ev.runTask(t, &results[i])
			if results[i].err != nil {
				break
			}
		}
	}

	roundDelta := map[string]int64{}
	for i := 0; i < len(results); {
		if tasks[i].nShards == 0 {
			if err := ev.mergeOne(&results[i], tasks[i], roundDelta); err != nil {
				return err
			}
			i++
			continue
		}
		// A shard group: the nShards tasks of one (rule, occ) unit,
		// merged by depth-0 row index to replay single-task order.
		j := i + 1
		for j < len(results) && tasks[j].nShards > 0 &&
			tasks[j].ruleIdx == tasks[i].ruleIdx && tasks[j].occ == tasks[i].occ {
			j++
		}
		if err := ev.mergeShardGroup(results[i:j], tasks[i:j], roundDelta); err != nil {
			return err
		}
		i = j
	}
	ev.stats.RoundDeltas = append(ev.stats.RoundDeltas, roundDelta)
	// Footprint at the round barrier: every IDB tuple plus the
	// semi-naive delta copy.
	peak := int64(totalRows(ev.idb) + totalRows(ev.delta))
	if peak > ev.stats.PeakMaterialized {
		ev.stats.PeakMaterialized = peak
	}
	if ev.opts.MaxTuples > 0 && ev.stats.TuplesDerived > ev.opts.MaxTuples {
		return budgetErr(ev.opts.MaxTuples)
	}
	return nil
}

func budgetErr(budget int64) error {
	return fmt.Errorf("eval: %w (budget %d)", ErrBudget, budget)
}

// addCounters merges one task's counters into Stats.
func (ev *engine) addCounters(res *taskOut) error {
	if res.err != nil {
		return res.err
	}
	ev.stats.JoinProbes += res.probes
	ev.stats.RuleFirings += res.firings
	ev.stats.AdaptiveSkips += res.skips
	ev.stats.AdaptiveReorders += res.reorders
	ev.stats.PlansCompiled += res.plansCompiled
	ev.stats.PlanNanos += res.planNanos
	return nil
}

// addHead merges head h of res, produced under plan pl, into the IDB
// and the round's delta, reporting whether it was new (another task
// may have derived it first this round).
func (ev *engine) addHead(pl *plan, res *taskOut, h int, roundDelta map[string]int64) bool {
	ha := len(pl.head.isConst)
	row := res.headRows[h*ha : (h+1)*ha]
	if !ev.idb[pl.head.pred].add(row) {
		return false
	}
	ev.stats.TuplesDerived++
	roundDelta[pl.head.pred]++
	ev.delta[pl.head.pred].add(row)
	if ev.prov != nil {
		fact, rule := ev.materialize(pl, res.snaps[h*pl.nSlots:(h+1)*pl.nSlots])
		ev.prov.steps[fact.Key()] = rule
	}
	return true
}

// mergeOne merges one unsharded task result in derivation order.
func (ev *engine) mergeOne(res *taskOut, t task, roundDelta map[string]int64) error {
	if err := ev.addCounters(res); err != nil {
		return err
	}
	// Under adaptive reorders the task may have switched plans
	// mid-run; pl tracks the plan live for each head index so its
	// snapshot is decoded with the right slot numbering. The head
	// arity and snap stride are order-invariant.
	pl, segIdx := ev.planFor(t.ruleIdx, t.occ), 0
	for h := 0; h < res.nHeads; h++ {
		for segIdx < len(res.segs) && res.segs[segIdx].fromHead <= h {
			pl = res.segs[segIdx].pl
			segIdx++
		}
		ev.addHead(pl, res, h, roundDelta)
	}
	return nil
}

// materialize converts a head row's slot snapshot back to the ground
// rule instance recorded as its provenance step. Only runs at the
// merge for facts that are new.
func (ev *engine) materialize(pl *plan, snap []uint32) (ast.Atom, ast.Rule) {
	head := ev.groundTpl(pl.head, snap)
	inst := ast.Rule{Head: head}
	for _, tpl := range pl.posTpls {
		inst.Pos = append(inst.Pos, ev.groundTpl(tpl, snap))
	}
	for _, tpl := range pl.negTpls {
		inst.Neg = append(inst.Neg, ev.groundTpl(tpl, snap))
	}
	return head, inst
}

func (ev *engine) groundTpl(tpl atomTpl, snap []uint32) ast.Atom {
	args := make([]ast.Term, len(tpl.vals))
	for j, v := range tpl.vals {
		if tpl.isConst[j] {
			args[j] = ev.in.term(v)
		} else {
			args[j] = ev.in.term(snap[v])
		}
	}
	return ast.Atom{Pred: tpl.pred, Args: args}
}

// taskExec is one task's executor plus the engine state its emit and
// adaptive checkpoint need, allocated together.
type taskExec struct {
	planExec
	ev     *engine
	out    *taskOut
	seen   rowHash // dedups out.headRows within this task
	idbRel *irel   // the snapshot IDB relation of the head predicate
	base   int64   // TuplesDerived at round start, for the budget
	// Adaptive policy: the planner's per-depth estimates for the live
	// plan, and whether this task already reordered.
	est       []float64
	reordered bool
}

// runTask runs one task's plan through the executor into out.
func (ev *engine) runTask(t task, out *taskOut) {
	pl := ev.planFor(t.ruleIdx, t.occ)
	if ev.policy == PolicyAdaptive {
		// Early exit on empty intermediates: a rule with any empty
		// positive subgoal cannot fire, whatever the join order.
		for _, v := range t.views {
			if v.hi == 0 {
				out.skips = 1
				return
			}
		}
	}
	te := &taskExec{ev: ev, out: out, idbRel: ev.idb[pl.head.pred], base: ev.stats.TuplesDerived}
	te.init(ev.ctx, ev.in, pl, t.views, ev.negs[t.ruleIdx], te)
	te.scan = ev.opts.Scan
	te.lo, te.hi = t.lo, t.hi
	if t.nShards > 0 {
		te.owners, te.shard = t.owners, uint8(t.shard)
	}
	te.seen = rowHash{data: &out.headRows, arity: len(pl.head.isConst)}
	if ev.policy == PolicyAdaptive && len(pl.subs) > 1 {
		te.est = ev.curEst[planKey{t.ruleIdx, t.occ}]
		te.matches = make([]int64, len(pl.subs))
		te.reorder = te.check
	}
	if err := te.joinFrom(0); err != nil {
		out.err = err
	}
	out.probes = te.probes
}

// emit is where the engine's semantics live: the derived-tuple budget,
// firing counts (before dedup), per-task dedup plus a snapshot-IDB
// membership check, and the shard row index and provenance snapshot of
// every buffered head.
func (te *taskExec) emit(row []uint32) error {
	out := te.out
	if budget := te.ev.opts.MaxTuples; budget > 0 && te.base+int64(out.nHeads) > budget {
		return budgetErr(budget)
	}
	out.firings++
	slot, hv, found := te.seen.insertLookup(row)
	if found || te.idbRel.contains(row) {
		return nil
	}
	out.headRows = append(out.headRows, row...)
	te.seen.place(slot, hv, int32(out.nHeads))
	out.nHeads++
	if te.owners != nil {
		out.rowIdx = append(out.rowIdx, te.cur)
	}
	if te.ev.prov != nil {
		out.snaps = append(out.snaps, te.binding...)
	}
	return nil
}

// Adaptive mid-task reorder thresholds: an observation needs a minimum
// sample before it is trusted, and must be more than adaptFactor above
// the planner's estimate (the ">10x off" rule) to trigger.
const (
	adaptMinMatches = 32
	adaptFactor     = 10.0
)

// check is the adaptive policy's checkpoint, run between depth-0 rows
// (so no deeper join frame is live). It compares each depth's observed
// fan-out — matches[d] per arrival, where arrivals at depth d are
// matches[d-1] — against the plan estimate; on a >10x misestimate it
// recomputes the tail order with the observation fed back, compiles
// the new plan task-privately (the interner is only read: every rule
// constant was interned in prepare), and swaps it in. The depth-0
// subgoal is pinned — its iteration is in progress — and the binding
// buffer carries over: nSlots is order-invariant, and a slot is only
// read at depths where the live plan bound it. At most one reorder per
// task, and every input is task-local and content-deterministic, so
// results stay identical for every worker count.
func (te *taskExec) check() {
	if te.reordered {
		return
	}
	pl := te.pl
	var override map[int]float64
	for d := 1; d < len(pl.subs); d++ {
		arrivals := te.matches[d-1]
		if arrivals == 0 || te.matches[d] < adaptMinMatches {
			continue
		}
		est := max(te.est[d], 1)
		if float64(te.matches[d]) > adaptFactor*est*float64(arrivals) {
			if override == nil {
				override = map[int]float64{}
			}
			override[pl.subs[d].subIdx] = float64(te.matches[d]) / float64(arrivals)
		}
	}
	if override == nil {
		return
	}
	te.reordered = true // one reorder per task, even if the order stands
	ev, out := te.ev, te.out
	r := ev.prog.Rules[pl.ruleIdx]
	start := time.Now()
	order, ests := costJoinOrder(r, pl.order[0], viewsEstimate(te.views), override)
	if intsEqual(order, pl.order) {
		out.planNanos += time.Since(start).Nanoseconds()
		return
	}
	npl := compilePlanOrdered(ev.in, r, pl.ruleIdx, pl.occ, false, order)
	out.planNanos += time.Since(start).Nanoseconds()
	out.plansCompiled++
	out.reorders++
	if ev.prov != nil {
		out.segs = append(out.segs, planSeg{fromHead: out.nHeads, pl: npl})
	}
	te.pl = npl
	te.est = ests
	clear(te.matches)
	te.probeBufs = makeProbeBufs(npl)
}

// publicIDB converts the interned IDB back to a public DB. Rows are
// already deduplicated, so tuples and seen keys are written directly;
// the keys reuse each distinct term's rendered Term.Key, making the
// conversion linear with small constants.
func (ev *engine) publicIDB() *DB {
	out := NewDB()
	var b strings.Builder
	for pred, ir := range ev.idb {
		rel := NewRelation(ir.arity)
		rel.tuples = make([]Tuple, 0, ir.n)
		for i := 0; i < ir.n; i++ {
			row := ir.row(i)
			t := make(Tuple, ir.arity)
			for j, id := range row {
				t[j] = ev.in.term(id)
			}
			rel.seen[ev.in.rowKey(&b, row)] = true
			rel.tuples = append(rel.tuples, t)
		}
		out.rels[pred] = rel
	}
	return out
}
