// Package evalref is a deliberately naive reference evaluator for the
// datalog dialect of package ast, small enough to be obviously correct:
// it re-runs every rule over the whole database until nothing new
// appears, matching subgoals left to right under a map binding, with no
// interning, index, plan, or goroutine. Tests check the engine with it.
package evalref

import (
	"sort"

	"repro/internal/ast"
)

// Facts is the read surface of a database; *eval.DB implements it.
type Facts interface {
	Preds() []string
	Facts(pred string) []ast.Atom
}

// Eval returns every IDB predicate's facts in the least model of p over
// edb, rendered with Atom.String and sorted (empty and non-nil when
// none). Facts of IDB predicates in edb are ignored.
func Eval(p *ast.Program, edb Facts) map[string][]string {
	facts, out := model(p, edb), map[string][]string{}
	for pred := range p.IDB() {
		out[pred] = render(facts[pred], nil)
	}
	return out
}

// Answers returns Eval's facts of the query predicate that match the
// goal (all of them when there is none).
func Answers(p *ast.Program, edb Facts) []string {
	if !p.IDB()[p.Query] {
		return []string{}
	}
	return render(model(p, edb)[p.Query], p)
}

// render renders facts sorted, keeping those matching goal's goal.
func render(facts []ast.Atom, goal *ast.Program) []string {
	out := make([]string, 0, len(facts))
	for _, a := range facts {
		if goal == nil || goal.MatchesGoal(a.Args) {
			out = append(out, a.String())
		}
	}
	sort.Strings(out)
	return out
}

// model computes the least model, keyed by predicate. A head is added
// as soon as it is derived; a full pass deriving nothing ends the loop.
func model(p *ast.Program, edb Facts) map[string][]ast.Atom {
	idb := p.IDB()
	facts, known := map[string][]ast.Atom{}, map[string]bool{} // by pred; by key
	add := func(a ast.Atom) bool {
		if known[a.Key()] {
			return false
		}
		known[a.Key()] = true
		facts[a.Pred] = append(facts[a.Pred], a)
		return true
	}
	for _, pred := range edb.Preds() {
		for _, a := range edb.Facts(pred) {
			if !idb[pred] {
				add(a)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, r := range p.Rules {
			match(r.Pos, map[string]ast.Term{}, facts, known, func(b map[string]ast.Term) {
				if filtersHold(r, b, known) && add(subst(r.Head, b)) {
					changed = true
				}
			})
		}
	}
	return facts
}

// match calls yield with every extension of b satisfying atoms in
// order: an atom ground under b is a membership test, any other atom is
// matched against every fact of its predicate.
func match(atoms []ast.Atom, b map[string]ast.Term, facts map[string][]ast.Atom, known map[string]bool, yield func(map[string]ast.Term)) {
	if len(atoms) == 0 {
		yield(b)
		return
	}
	a := subst(atoms[0], b)
	if a.Ground() {
		if known[a.Key()] {
			match(atoms[1:], b, facts, known, yield)
		}
		return
	}
	for _, f := range facts[a.Pred] {
		var bound []string
		ok := true
		for i, t := range a.Args {
			if t.IsConst() { // a constant, or a variable bound before this atom
				ok = t.Equal(f.Args[i])
			} else if v, seen := b[t.Name]; seen { // repeated within this atom
				ok = v.Equal(f.Args[i])
			} else {
				b[t.Name] = f.Args[i]
				bound = append(bound, t.Name)
			}
			if !ok {
				break
			}
		}
		if ok {
			match(atoms[1:], b, facts, known, yield)
		}
		for _, name := range bound {
			delete(b, name)
		}
	}
}

// filtersHold checks r's comparisons and (EDB-only) negated subgoals.
func filtersHold(r ast.Rule, b map[string]ast.Term, known map[string]bool) bool {
	for _, c := range r.Cmp {
		lr := subst(ast.Atom{Args: []ast.Term{c.Left, c.Right}}, b).Args
		if !ast.NewCmp(lr[0], c.Op, lr[1]).Eval() {
			return false
		}
	}
	for _, a := range r.Neg {
		if known[subst(a, b).Key()] {
			return false
		}
	}
	return true
}

func subst(a ast.Atom, b map[string]ast.Term) ast.Atom {
	out := ast.Atom{Pred: a.Pred, Args: make([]ast.Term, len(a.Args))}
	for i, t := range a.Args {
		out.Args[i] = t
		if v, ok := b[t.Name]; ok && t.IsVar() {
			out.Args[i] = v
		}
	}
	return out
}
