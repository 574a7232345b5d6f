package eval

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/ast"
	"repro/internal/bounded"
	"repro/internal/magic"
	"repro/internal/shard"
)

// ErrBudget is wrapped by the error returned when evaluation exceeds
// Options.MaxTuples; distinguish it from cancellation with errors.Is.
var ErrBudget = errors.New("derived-tuple budget exceeded")

// Stats reports instrumentation collected during evaluation. All
// counters are deterministic: for a fixed program, database, and
// options they do not depend on Options.Workers, because every fixpoint
// round evaluates against a frozen snapshot and merges per-task results
// in a fixed order (see runRound).
type Stats struct {
	// Iterations is the number of fixpoint rounds executed.
	Iterations int
	// RuleFirings counts complete rule instantiations that produced a
	// (possibly duplicate) head fact.
	RuleFirings int64
	// TuplesDerived counts distinct new IDB tuples.
	TuplesDerived int64
	// JoinProbes counts candidate tuples examined while extending
	// partial rule instantiations — the dominant cost of evaluation
	// and the quantity semantic query optimization reduces.
	JoinProbes int64
	// RoundDeltas records, for each fixpoint round, how many new tuples
	// were merged into each IDB relation that round (relation name →
	// tuple count; relations with no new tuples are omitted, a round
	// that derived nothing records an empty map). len(RoundDeltas) ==
	// Iterations after a completed run, and the contents are
	// deterministic like every other counter. This is what makes
	// incremental-maintenance work (internal/incr) comparable with full
	// runs in sqobench and /metrics.
	RoundDeltas []map[string]int64

	// The fields below are planning diagnostics, not evaluation
	// semantics. They are excluded from Equal: they legitimately differ
	// across join-order policies, which is exactly what the P6 shootout
	// measures. All except PlanNanos remain deterministic for a fixed
	// program, database, and options.

	// PlanNanos is wall-clock time spent choosing join orders and
	// compiling plans, in nanoseconds. Measurement noise by nature;
	// never assert on it.
	PlanNanos int64
	// PlansCompiled counts join-plan compilations, including per-round
	// recompiles under the cost policy and mid-round recompiles under
	// the adaptive policy.
	PlansCompiled int64
	// AdaptiveSkips counts rule tasks the adaptive policy discarded
	// outright because a positive subgoal's relation was empty.
	AdaptiveSkips int64
	// AdaptiveReorders counts mid-round join reorders triggered by the
	// adaptive policy's misestimate rule (observed intermediate size
	// >10x its estimate).
	AdaptiveReorders int64
	// MagicApplied reports whether the query was evaluated through the
	// magic-sets demand rewrite (Query/QueryCtx with a bound goal and
	// Options.Magic not off). Excluded from Equal like the other
	// diagnostics: the magic-rewritten fixpoint legitimately differs
	// from bottom-up in every counter — that difference is the point —
	// while the answers stay identical.
	MagicApplied bool
	// ShardExchanged counts, under sharded evaluation (Options.Shards >
	// 1), the new tuples whose deriving shard is not their hash owner —
	// the cross-shard delta traffic a distributed deployment would ship
	// at each round barrier. Zero when sharding is off. Deterministic
	// for a fixed program, database, and options (the partitioner hashes
	// row contents, not intern ids), but excluded from Equal because it
	// is a distribution diagnostic that legitimately varies with the
	// shard count.
	ShardExchanged int64
	// PeakMaterialized is the largest total number of materialized IDB
	// tuples (relations plus the semi-naive delta) observed at any
	// round barrier. This is the memory-footprint metric the P8
	// experiment tracks: demand pruning and streaming unfolding lower
	// it while leaving answers unchanged. Deterministic for a fixed
	// program, database, and options, but excluded from Equal because
	// it is a footprint diagnostic, not evaluation semantics.
	PeakMaterialized int64
	// ElimApplied reports whether the query was evaluated through the
	// bounded-recursion elimination rewrite (Query/QueryCtx with
	// Options.Elim not off and at least one predicate proven bounded,
	// its fixpoint compiled into a flat union of conjunctive queries).
	// Excluded from Equal like MagicApplied: the flattened program
	// legitimately differs from the fixpoint in every counter while
	// the answers stay identical.
	ElimApplied bool
	// ElimChecked counts the self-recursive predicates the boundedness
	// analyzer examined before evaluation (zero when Options.Elim is
	// off or the program has no self-recursion). An analysis
	// diagnostic, excluded from Equal for the same reason as
	// ElimApplied.
	ElimChecked int
}

// statsEqualExcluded names the Stats fields deliberately NOT compared
// by Equal: planning, rewrite, and footprint diagnostics that
// legitimately differ across policies, shard counts, and rewrites
// while the answers stay identical. The statsequal analyzer
// (internal/analyzers/statsequal, run via go vet -vettool in CI) fails
// the build when a new Stats field is neither compared in Equal nor
// listed here — adding a field means making that choice explicitly.
var statsEqualExcluded = map[string]bool{
	"PlanNanos":        true,
	"PlansCompiled":    true,
	"AdaptiveSkips":    true,
	"AdaptiveReorders": true,
	"MagicApplied":     true,
	"ShardExchanged":   true,
	"PeakMaterialized": true,
	"ElimApplied":      true,
	"ElimChecked":      true,
}

// Equal reports whether two Stats are identical, including the
// per-round delta sizes. Stats stopped being comparable with == when
// RoundDeltas (a slice) was added; use this instead. The diagnostics
// listed in statsEqualExcluded are deliberately not compared — see
// their field docs.
func (s *Stats) Equal(o *Stats) bool {
	if s == nil || o == nil {
		return s == o
	}
	if s.Iterations != o.Iterations || s.RuleFirings != o.RuleFirings ||
		s.TuplesDerived != o.TuplesDerived || s.JoinProbes != o.JoinProbes ||
		len(s.RoundDeltas) != len(o.RoundDeltas) {
		return false
	}
	for i := range s.RoundDeltas {
		a, b := s.RoundDeltas[i], o.RoundDeltas[i]
		if len(a) != len(b) {
			return false
		}
		for k, v := range a {
			if bv, ok := b[k]; !ok || bv != v {
				return false
			}
		}
	}
	return true
}

// MagicMode controls whether Query/QueryCtx apply the magic-sets
// demand rewrite before evaluation. The rewrite only ever changes how
// answers are computed, never the answers: when it does not apply
// (unbound goal, query predicate without rules, adornment blowup),
// evaluation silently falls back to bottom-up.
type MagicMode string

const (
	// MagicAuto (the zero value) applies the rewrite whenever the goal
	// binds at least one argument.
	MagicAuto MagicMode = "auto"
	// MagicOn behaves like MagicAuto — the rewrite still falls back to
	// bottom-up when inapplicable — but states the intent explicitly.
	MagicOn MagicMode = "on"
	// MagicOff disables the rewrite; goals are evaluated bottom-up and
	// filtered afterwards.
	MagicOff MagicMode = "off"
)

// ParseMagicMode parses a magic mode name; the empty string means
// MagicAuto (the zero value of Options.Magic).
func ParseMagicMode(s string) (MagicMode, error) {
	switch m := MagicMode(s); m {
	case "":
		return MagicAuto, nil
	case MagicAuto, MagicOn, MagicOff:
		return m, nil
	}
	return "", fmt.Errorf("eval: unknown magic mode %q (want auto, on, or off)", s)
}

// ElimMode controls whether Query/QueryCtx run the boundedness
// analysis (internal/bounded) and compile provably bounded recursion
// into flat unions of conjunctive queries before evaluation. Like the
// magic rewrite, elimination only ever changes how answers are
// computed, never the answers: when no predicate is provably bounded
// (the honest outcome for genuine recursion such as transitive
// closure), evaluation silently falls back to the fixpoint.
type ElimMode string

const (
	// ElimAuto (the zero value) analyzes every self-recursive
	// predicate under the default budgets and rewrites the bounded
	// ones. The structural pre-checks make this near-free on programs
	// with no self-recursion.
	ElimAuto ElimMode = "auto"
	// ElimOn behaves like ElimAuto — elimination still falls back when
	// nothing is provably bounded — but states the intent explicitly.
	ElimOn ElimMode = "on"
	// ElimOff disables the analysis; recursion is always evaluated as
	// a fixpoint.
	ElimOff ElimMode = "off"
)

// ParseElimMode parses an elimination mode name; the empty string
// means ElimAuto (the zero value of Options.Elim).
func ParseElimMode(s string) (ElimMode, error) {
	switch m := ElimMode(s); m {
	case "":
		return ElimAuto, nil
	case ElimAuto, ElimOn, ElimOff:
		return m, nil
	}
	return "", fmt.Errorf("eval: unknown elim mode %q (want auto, on, or off)", s)
}

// JoinOrderPolicy selects how the engine orders the positive subgoals
// of each rule. Answers and provenance are identical under every
// policy; only the work done to reach them (JoinProbes, plan time)
// differs.
type JoinOrderPolicy string

const (
	// PolicyGreedy orders joins statically by bound-position count at
	// compile time, with no cardinality input. The default.
	PolicyGreedy JoinOrderPolicy = "greedy"
	// PolicyCost reorders joins at every round barrier using the
	// per-relation statistics maintained in the intern layer (row
	// counts and per-column distinct estimates; see stats.go): each
	// step greedily picks the subgoal with the smallest estimated
	// match count given the bindings accumulated so far.
	PolicyCost JoinOrderPolicy = "cost"
	// PolicyAdaptive is cost ordering plus run-time adaptivity: rule
	// tasks with an empty positive subgoal are skipped outright, and a
	// running task reorders its remaining joins when an observed
	// intermediate size is more than 10x its estimate. To keep results
	// worker-invariant, adaptive tasks are never range-partitioned.
	PolicyAdaptive JoinOrderPolicy = "adaptive"
)

// ParseJoinOrderPolicy parses a policy name; the empty string means
// PolicyGreedy (the zero value of Options.Policy).
func ParseJoinOrderPolicy(s string) (JoinOrderPolicy, error) {
	switch p := JoinOrderPolicy(s); p {
	case "":
		return PolicyGreedy, nil
	case PolicyGreedy, PolicyCost, PolicyAdaptive:
		return p, nil
	}
	return "", fmt.Errorf("eval: unknown join-order policy %q (want greedy, cost, or adaptive)", s)
}

// Options configures evaluation. The zero value is the default
// engine: semi-naive, hash-indexed, greedy join ordering, one worker
// per CPU, no budget.
type Options struct {
	// Scan disables hash-index lookups on bound argument positions, so
	// every subgoal is a full scan: the paper's 1995-era cost model,
	// kept for the E-series experiments that report probes under it.
	Scan bool
	// MaxTuples aborts evaluation when the total number of derived IDB
	// tuples exceeds the bound (0 = unlimited). Guards runaway tests.
	MaxTuples int64
	// Workers bounds the number of goroutines that evaluate rule tasks
	// concurrently within a fixpoint round. 0 means one worker per
	// available CPU (runtime.GOMAXPROCS(0)); 1 forces fully sequential
	// execution with no goroutines. Answers and Stats are identical for
	// every worker count.
	Workers int
	// Policy selects the join-order policy (the empty string means
	// PolicyGreedy).
	Policy JoinOrderPolicy
	// Magic controls the magic-sets demand rewrite in Query/QueryCtx
	// (the empty string means MagicAuto). EvalCtx ignores it: its
	// contract is the full IDB of the given program, which demand
	// pruning deliberately does not compute.
	Magic MagicMode
	// Elim controls bounded-recursion elimination in Query/QueryCtx
	// (the empty string means ElimAuto): predicates whose recursion is
	// statically provably bounded are compiled into flat unions of
	// conjunctive queries before evaluation, ahead of the magic
	// rewrite. EvalCtx ignores it for the same reason it ignores
	// Magic: its contract is the given program, evaluated as written.
	Elim ElimMode
	// Stream enables the streaming unfolding rewrite in Query/QueryCtx:
	// non-recursive IDB predicates consumed by exactly one subgoal are
	// inlined into their consumer, so their tuples are never
	// materialized. Applied after the magic rewrite when both are on.
	Stream bool
	// Shards hash-partitions every rule's depth-0 relation by its first
	// column and runs fixpoint rounds shard-parallel, exchanging deltas
	// at the round barrier (see shard.go). 0 and 1 mean off. Answers,
	// Stats, and provenance are bit-identical to unsharded evaluation
	// at any shard count and worker count; Stats.ShardExchanged reports
	// the cross-shard traffic a distributed deployment would ship. At
	// most shard.MaxShards; incompatible with PolicyAdaptive, whose
	// task-local reordering cannot stay shard-invariant.
	Shards int
	// ShardPartitioner names the hash partitioner used when Shards > 1:
	// "modulo" (the default) or "rendezvous" (consistent hashing; see
	// internal/shard). The choice never affects answers, only which
	// shard owns which rows.
	ShardPartitioner string
}

// DefaultOptions are the options used by Eval: the zero value.
func DefaultOptions() Options { return Options{} }

// effectivePolicy resolves the empty string to PolicyGreedy.
func (o Options) effectivePolicy() JoinOrderPolicy {
	if o.Policy == "" {
		return PolicyGreedy
	}
	return o.Policy
}

// validate rejects unknown policy, magic, elim, and partitioner names,
// out-of-range shard counts, and the adaptive policy under sharding.
func (o Options) validate() error {
	pol, err := ParseJoinOrderPolicy(string(o.Policy))
	if err != nil {
		return err
	}
	if _, err := ParseMagicMode(string(o.Magic)); err != nil {
		return err
	}
	if _, err := ParseElimMode(string(o.Elim)); err != nil {
		return err
	}
	if o.Shards < 0 {
		return fmt.Errorf("eval: negative shard count %d", o.Shards)
	}
	if o.Shards > shard.MaxShards {
		return fmt.Errorf("eval: shard count %d exceeds the maximum %d", o.Shards, shard.MaxShards)
	}
	if _, err := shard.Parse(o.ShardPartitioner); err != nil {
		return err
	}
	if o.Shards > 1 && pol == PolicyAdaptive {
		return fmt.Errorf("eval: the adaptive policy is task-local and cannot keep Stats invariant across shard counts; use greedy or cost with Options.Shards")
	}
	return nil
}

// effectiveMagic resolves the empty string to MagicAuto.
func (o Options) effectiveMagic() MagicMode {
	if o.Magic == "" {
		return MagicAuto
	}
	return o.Magic
}

// effectiveElim resolves the empty string to ElimAuto.
func (o Options) effectiveElim() ElimMode {
	if o.Elim == "" {
		return ElimAuto
	}
	return o.Elim
}

// effectiveWorkers resolves Options.Workers to a concrete pool size.
func (o Options) effectiveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Eval evaluates the program bottom-up over the given EDB and returns
// a database containing the IDB relations (the EDB is not modified and
// not included in the result).
func Eval(p *ast.Program, edb *DB) (*DB, *Stats, error) {
	return EvalWith(p, edb, DefaultOptions())
}

// EvalWith evaluates with explicit options.
func EvalWith(p *ast.Program, edb *DB, opts Options) (*DB, *Stats, error) {
	return EvalCtx(context.Background(), p, edb, opts)
}

// EvalCtx is EvalWith under a context: cancellation (or deadline
// expiry) stops the fixpoint promptly — it is checked at every round
// barrier and periodically inside long join scans — and the context's
// error is returned. Results and Stats remain deterministic for every
// worker count whenever evaluation runs to completion.
func EvalCtx(ctx context.Context, p *ast.Program, edb *DB, opts Options) (*DB, *Stats, error) {
	return evaluate(ctx, p, edb, opts, nil)
}

// Query evaluates the program and returns the tuples of its query
// predicate.
func Query(p *ast.Program, edb *DB) ([]Tuple, *Stats, error) {
	return QueryWith(p, edb, DefaultOptions())
}

// QueryWith is Query with explicit engine options.
func QueryWith(p *ast.Program, edb *DB, opts Options) ([]Tuple, *Stats, error) {
	return QueryCtx(context.Background(), p, edb, opts)
}

// QueryCtx is QueryWith under a context; see EvalCtx for the
// cancellation contract.
//
// When the program carries a goal (`?- pred(t1, ..., tn).`), QueryCtx
// is goal-directed: under Options.Magic auto/on a goal with at least
// one bound argument is evaluated through the magic-sets rewrite
// (internal/magic), which computes only the part of the fixpoint the
// goal's bindings demand; when the rewrite is inapplicable — or under
// MagicOff — the program is evaluated bottom-up. Either way the
// returned tuples are exactly the query-relation tuples matching the
// goal (constants equal at their positions, repeated goal variables
// equal across theirs), so the two paths are interchangeable
// answer-wise; Stats.MagicApplied records which one ran.
//
// Under Options.Elim auto/on the boundedness analysis runs first:
// self-recursive predicates proven bounded (internal/bounded) are
// compiled into flat unions of conjunctive queries, and the magic and
// streaming rewrites then work on the flattened program — elimination
// is what makes a bounded predicate eligible for streaming unfolding
// and gives the magic rewrite non-recursive rules to prune. When
// nothing is provably bounded (ErrNotBounded), the fixpoint is
// evaluated as written; Stats.ElimApplied/ElimChecked record the
// outcome.
func QueryCtx(ctx context.Context, p *ast.Program, edb *DB, opts Options) ([]Tuple, *Stats, error) {
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	prog := p
	elimApplied := false
	elimChecked := 0
	if opts.effectiveElim() != ElimOff && len(p.Rules) > 0 {
		res, err := bounded.Rewrite(p, bounded.Options{})
		if res != nil {
			elimChecked = len(res.Analyses)
		}
		switch {
		case err == nil:
			prog = res.Program
			elimApplied = true
		case errors.Is(err, bounded.ErrNotBounded):
			// Nothing provably bounded: evaluate the fixpoint as written.
		default:
			return nil, nil, err
		}
	}
	magicApplied := false
	if opts.effectiveMagic() != MagicOff && len(p.Goal) > 0 {
		res, err := magic.Rewrite(prog)
		switch {
		case err == nil:
			prog = res.Program
			magicApplied = true
		case errors.Is(err, magic.ErrNotApplicable):
			// Fall back to bottom-up evaluation of the original program.
		default:
			return nil, nil, err
		}
	}
	if opts.Stream {
		prog, _ = magic.Unfold(prog)
	}
	idb, stats, err := EvalCtx(ctx, prog, edb, opts)
	if err != nil {
		return nil, nil, err
	}
	stats.MagicApplied = magicApplied
	stats.ElimApplied = elimApplied
	stats.ElimChecked = elimChecked
	r := idb.Lookup(prog.Query)
	if r == nil {
		return nil, stats, nil
	}
	tuples := r.Tuples()
	if len(p.Goal) == 0 {
		return tuples, stats, nil
	}
	// Restrict to the goal on both paths: bottom-up computes the whole
	// relation, and the magic-rewritten relation can hold tuples for
	// bindings demanded recursively beyond the goal's own constants.
	var out []Tuple
	for _, t := range tuples {
		if p.MatchesGoal(t) {
			out = append(out, t)
		}
	}
	return out, stats, nil
}
