package eval

// Sharded evaluation (Options.Shards): the depth-0 relation of every
// rule task is hash-partitioned by its first column instead of
// range-partitioned, one task per shard, and the per-shard deltas are
// exchanged and merged deterministically at the round barrier. Each
// shard evaluates its partition against the full round snapshot (the
// in-process analogue of broadcasting the probed subrelations), so the
// union of the shards' work is exactly the single-shard work:
// RuleFirings, JoinProbes, and TuplesDerived are sums over a partition
// of the same depth-0 tuples and cannot depend on the partitioning.
//
// Provenance and insertion order need one extra mechanism: with range
// partitioning, merging buffers in task order replays the single-task
// derivation order, but a hash partition interleaves depth-0 rows
// across shards. Every sharded task therefore records the depth-0 row
// index of each buffered head, and the barrier k-way-merges the
// group's buffers by that index — reconstructing the exact order a
// single task would have derived heads in, so the first derivation of
// every fact (which is what provenance records) is bit-identical at
// any shard count.
//
// Partition keys are rendered term contents (ast.Term.Key), never
// intern ids: interning order differs from run to run, while the
// rendered key of a row is stable. That is what makes shard
// assignment — and the ShardExchanged counter — deterministic across
// runs and symbol-table growth.

import (
	"repro/internal/shard"
)

// effectiveShards resolves Options.Shards: 0 and 1 mean sharding off.
func (o Options) effectiveShards() int {
	if o.Shards > 1 {
		return o.Shards
	}
	return 0
}

// partitioner resolves Options.ShardPartitioner; validate has
// already rejected unknown names.
func (o Options) partitioner() shard.Partitioner {
	p, err := shard.Parse(o.ShardPartitioner)
	if err != nil {
		return shard.Modulo{}
	}
	return p
}

// appendSharded appends one task per shard, all filtering the same
// depth-0 relation through the precomputed owners slice.
func appendSharded(ts []task, t task, owners []uint8, shards int) []task {
	for s := 0; s < shards; s++ {
		nt := t
		nt.shard, nt.nShards, nt.owners = s, shards, owners
		ts = append(ts, nt)
	}
	return ts
}

// ownersFor returns the per-row shard owners of rel, extending the
// memoized slice to cover rows appended since the last round. The key
// is the rendered term of each row's first column ("" for arity-0
// relations, which puts all their rows on one shard); termKey is safe
// here because barriers are single-threaded and the interner stopped
// growing after prepare. Tasks read the returned slice concurrently
// but never write it.
func (ev *engine) ownersFor(rel *irel) []uint8 {
	if rel == nil {
		return nil
	}
	o := ev.owners[rel]
	for i := len(o); i < rel.n; i++ {
		o = append(o, uint8(ev.part.Shard(ev.rowShardKey(rel.row(i)), ev.shards)))
	}
	ev.owners[rel] = o
	return o
}

func (ev *engine) rowShardKey(row []uint32) string {
	if len(row) == 0 {
		return ""
	}
	return ev.in.termKey(row[0])
}

// mergeShardGroup merges the buffers of one (rule, occ) shard group.
// Counters are summed in task order; heads are k-way merged by the
// depth-0 row index that produced them, which is exactly the order a
// single unsharded task derives them in (each buffer is ascending in
// rowIdx, and a depth-0 row belongs to exactly one shard). New tuples
// not owned by their deriving shard count as cross-shard exchange
// traffic. Adaptive plan swaps cannot occur here — the policy is
// rejected with Options.Shards — so the group shares one plan.
func (ev *engine) mergeShardGroup(results []taskOut, tasks []task, roundDelta map[string]int64) error {
	for i := range results {
		if err := ev.addCounters(&results[i]); err != nil {
			return err
		}
	}
	pl := ev.planFor(tasks[0].ruleIdx, tasks[0].occ)
	ha := len(pl.head.isConst)
	pos := make([]int, len(results))
	for {
		best := -1
		var bestRow int32
		for k := range results {
			if pos[k] >= results[k].nHeads {
				continue
			}
			if r := results[k].rowIdx[pos[k]]; best < 0 || r < bestRow {
				best, bestRow = k, r
			}
		}
		if best < 0 {
			return nil
		}
		res, h := &results[best], pos[best]
		pos[best]++
		if !ev.addHead(pl, res, h, roundDelta) {
			continue // a lower-rowIdx derivation merged it first
		}
		if ev.part.Shard(ev.rowShardKey(res.headRows[h*ha:(h+1)*ha]), ev.shards) != tasks[best].shard {
			ev.stats.ShardExchanged++
		}
	}
}
