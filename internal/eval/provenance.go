package eval

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/ast"
)

// Provenance records, for every derived IDB fact, one rule
// instantiation that produced it — enough to reconstruct a full
// derivation tree for any answer (the ground counterpart of the
// paper's symbolic derivation trees).
type Provenance struct {
	steps map[string]ast.Rule // fact key → ground rule instance
}

// Derivation is a node of a ground derivation tree: the derived fact,
// the instantiated rule that produced it, and the sub-derivations of
// its positive subgoals (EDB leaves have no children and no rule).
type Derivation struct {
	Fact     ast.Atom
	Rule     *ast.Rule // nil for EDB leaves
	Children []*Derivation
}

// EvalProv evaluates like Eval but also returns provenance for the
// derived facts. Provenance is compatible with parallel rounds: each
// task snapshots the bindings of the heads it buffers, and steps are
// recorded at the single-threaded round barrier, in deterministic
// merge order, so the recorded derivation of every fact is the same
// for any worker count.
func EvalProv(p *ast.Program, edb *DB) (*DB, *Provenance, *Stats, error) {
	return evalProvOpts(context.Background(), p, edb, DefaultOptions())
}

// evalProvOpts is EvalProv with an explicit context and options.
func evalProvOpts(ctx context.Context, p *ast.Program, edb *DB, opts Options) (*DB, *Provenance, *Stats, error) {
	prov := &Provenance{steps: map[string]ast.Rule{}}
	idb, stats, err := evaluate(ctx, p, edb, opts, prov)
	if err != nil {
		return nil, nil, nil, err
	}
	return idb, prov, stats, nil
}

// Tree reconstructs the derivation tree for a ground IDB fact. EDB
// facts yield leaves. It returns an error if the fact was never
// derived (or present).
func (pv *Provenance) Tree(fact ast.Atom, idbPreds map[string]bool, edb *DB) (*Derivation, error) {
	if !fact.Ground() {
		return nil, fmt.Errorf("eval: provenance requires a ground fact, got %s", fact)
	}
	if !idbPreds[fact.Pred] {
		if edb.Contains(fact) {
			return &Derivation{Fact: fact}, nil
		}
		return nil, fmt.Errorf("eval: EDB fact %s is not in the database", fact)
	}
	rule, ok := pv.steps[fact.Key()]
	if !ok {
		return nil, fmt.Errorf("eval: no derivation recorded for %s", fact)
	}
	node := &Derivation{Fact: fact, Rule: &rule}
	for _, sub := range rule.Pos {
		child, err := pv.Tree(sub, idbPreds, edb)
		if err != nil {
			return nil, err
		}
		node.Children = append(node.Children, child)
	}
	return node, nil
}

// String renders the derivation tree as indented text.
func (d *Derivation) String() string {
	var b strings.Builder
	d.render(&b, 0)
	return b.String()
}

func (d *Derivation) render(b *strings.Builder, depth int) {
	ind := strings.Repeat("  ", depth)
	if d.Rule == nil {
		fmt.Fprintf(b, "%s%s  [EDB]\n", ind, d.Fact)
		return
	}
	fmt.Fprintf(b, "%s%s  [via %s]\n", ind, d.Fact, d.Rule)
	for _, c := range d.Children {
		c.render(b, depth+1)
	}
}

// Size counts the nodes of the derivation tree.
func (d *Derivation) Size() int {
	n := 1
	for _, c := range d.Children {
		n += c.Size()
	}
	return n
}

// Depth returns the height of the derivation tree (a leaf has depth 1).
func (d *Derivation) Depth() int {
	max := 0
	for _, c := range d.Children {
		if dd := c.Depth(); dd > max {
			max = dd
		}
	}
	return max + 1
}
