package eval

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func TestProvenanceLinearChain(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := NewDB()
	db.AddFacts(parser.MustParseFacts(`step(1, 2). step(2, 3). step(3, 4).`))
	idb, prov, _, err := EvalProv(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if idb.Count("path") != 6 {
		t.Fatalf("path count = %d", idb.Count("path"))
	}
	tree, err := prov.Tree(ast.NewAtom("path", ast.N(1), ast.N(4)), p.IDB(), db)
	if err != nil {
		t.Fatal(err)
	}
	// A derivation of path(1,4) must bottom out in the three steps.
	s := tree.String()
	for _, leaf := range []string{"step(1, 2)", "step(2, 3)", "step(3, 4)"} {
		if !strings.Contains(s, leaf) {
			t.Fatalf("derivation misses %s:\n%s", leaf, s)
		}
	}
	if tree.Depth() < 3 {
		t.Fatalf("depth = %d, expected a nested derivation:\n%s", tree.Depth(), s)
	}
	if tree.Size() < 6 {
		t.Fatalf("size = %d:\n%s", tree.Size(), s)
	}
	if tree.Rule == nil {
		t.Fatal("root must carry its rule")
	}
}

func TestProvenanceEDBLeaf(t *testing.T) {
	p := parser.MustParseProgram(`
		q(X) :- e(X).
		?- q.
	`)
	db := NewDB()
	db.AddFacts(parser.MustParseFacts(`e(7).`))
	_, prov, _, err := EvalProv(p, db)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := prov.Tree(ast.NewAtom("e", ast.N(7)), p.IDB(), db)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.Rule != nil || len(leaf.Children) != 0 {
		t.Fatal("EDB fact must be a leaf")
	}
	if _, err := prov.Tree(ast.NewAtom("e", ast.N(99)), p.IDB(), db); err == nil {
		t.Fatal("absent EDB fact must error")
	}
	if _, err := prov.Tree(ast.NewAtom("q", ast.N(99)), p.IDB(), db); err == nil {
		t.Fatal("underived IDB fact must error")
	}
	if _, err := prov.Tree(ast.NewAtom("q", ast.V("X")), p.IDB(), db); err == nil {
		t.Fatal("non-ground fact must error")
	}
}

func TestProvenanceEveryDerivedFactHasATree(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		sym(X) :- path(X, X).
		?- sym.
	`)
	db := NewDB()
	db.AddFacts(parser.MustParseFacts(`edge(1, 2). edge(2, 1). edge(2, 3).`))
	idb, prov, _, err := EvalProv(p, db)
	if err != nil {
		t.Fatal(err)
	}
	idbPreds := p.IDB()
	for _, pred := range []string{"path", "sym"} {
		for _, f := range idb.Facts(pred) {
			tree, err := prov.Tree(f, idbPreds, db)
			if err != nil {
				t.Fatalf("no derivation for %s: %v", f, err)
			}
			if !tree.Fact.Equal(f) {
				t.Fatalf("tree root mismatch: %s vs %s", tree.Fact, f)
			}
			// Every leaf must be a genuine EDB fact.
			var walk func(d *Derivation)
			walk = func(d *Derivation) {
				if d.Rule == nil {
					if !db.Contains(d.Fact) {
						t.Fatalf("leaf %s is not an EDB fact", d.Fact)
					}
					return
				}
				if !d.Rule.Head.Equal(d.Fact) {
					t.Fatalf("instantiated rule head %s does not match fact %s", d.Rule.Head, d.Fact)
				}
				for _, c := range d.Children {
					walk(c)
				}
			}
			walk(tree)
		}
	}
}

// checkDerivation verifies a derivation tree independently of the
// engine that recorded it: every internal node is a ground instance of
// some rule of p (head, positive and negated subgoals unify under one
// substitution that also satisfies the rule's comparisons) whose
// positive subgoals are exactly its children's facts; every leaf is an
// EDB fact of a predicate p does not derive; and every negated body
// atom is absent from the EDB.
func checkDerivation(p *ast.Program, edb *DB, d *Derivation) error {
	idb := p.IDB()
	if d.Rule == nil {
		if idb[d.Fact.Pred] || !edb.Contains(d.Fact) {
			return fmt.Errorf("leaf %s is not an EDB fact", d.Fact)
		}
		return nil
	}
	inst := d.Rule
	if !inst.Head.Equal(d.Fact) {
		return fmt.Errorf("rule head %s does not match fact %s", inst.Head, d.Fact)
	}
	if len(d.Children) != len(inst.Pos) {
		return fmt.Errorf("%s: %d children for %d positive subgoals", d.Fact, len(d.Children), len(inst.Pos))
	}
	for i, c := range d.Children {
		if !c.Fact.Equal(inst.Pos[i]) {
			return fmt.Errorf("%s: child %s does not match subgoal %s", d.Fact, c.Fact, inst.Pos[i])
		}
	}
	for _, a := range inst.Neg {
		if edb.Contains(a) {
			return fmt.Errorf("%s: negated subgoal %s is in the EDB", d.Fact, a)
		}
	}
	if !instanceOfSomeRule(p, *inst) {
		return fmt.Errorf("%s is not a ground instance of any rule", inst)
	}
	for _, c := range d.Children {
		if err := checkDerivation(p, edb, c); err != nil {
			return err
		}
	}
	return nil
}

// instanceOfSomeRule reports whether inst is ground and equals θ(r) for
// some rule r of p and substitution θ satisfying r's comparisons.
func instanceOfSomeRule(p *ast.Program, inst ast.Rule) bool {
	for _, r := range p.Rules {
		if len(r.Pos) != len(inst.Pos) || len(r.Neg) != len(inst.Neg) {
			continue
		}
		theta := map[string]ast.Term{}
		ok := unifyGround(r.Head, inst.Head, theta)
		for i := 0; ok && i < len(r.Pos); i++ {
			ok = unifyGround(r.Pos[i], inst.Pos[i], theta)
		}
		for i := 0; ok && i < len(r.Neg); i++ {
			ok = unifyGround(r.Neg[i], inst.Neg[i], theta)
		}
		for _, c := range r.Cmp {
			if !ok {
				break
			}
			l, lok := resolveTerm(c.Left, theta)
			rr, rok := resolveTerm(c.Right, theta)
			ok = lok && rok && ast.NewCmp(l, c.Op, rr).Eval()
		}
		if ok {
			return true
		}
	}
	return false
}

// unifyGround extends theta so that pattern maps onto the ground atom g.
func unifyGround(pattern, g ast.Atom, theta map[string]ast.Term) bool {
	if pattern.Pred != g.Pred || len(pattern.Args) != len(g.Args) || !g.Ground() {
		return false
	}
	for i, t := range pattern.Args {
		if t.IsConst() {
			if !t.Equal(g.Args[i]) {
				return false
			}
			continue
		}
		if v, ok := theta[t.Name]; ok {
			if !v.Equal(g.Args[i]) {
				return false
			}
			continue
		}
		theta[t.Name] = g.Args[i]
	}
	return true
}

func resolveTerm(t ast.Term, theta map[string]ast.Term) (ast.Term, bool) {
	if t.IsConst() {
		return t, true
	}
	v, ok := theta[t.Name]
	return v, ok
}

// TestCheckDerivationRejectsUnsound pins the checker itself: a tree
// whose rule instance no rule produces, whose leaf is not in the EDB,
// or whose negated subgoal is present must each be rejected.
func TestCheckDerivationRejectsUnsound(t *testing.T) {
	p := parser.MustParseProgram(`
		q(X) :- e(X, Y), X < Y, !bad(X).
		?- q.
	`)
	db := NewDB()
	db.AddFacts(parser.MustParseFacts(`e(1, 2). e(5, 2). e(3, 4). bad(3).`))
	leaf := func(a ast.Atom) *Derivation { return &Derivation{Fact: a} }
	node := func(x, y float64) *Derivation {
		head := ast.NewAtom("q", ast.N(x))
		body := ast.NewAtom("e", ast.N(x), ast.N(y))
		r := ast.Rule{Head: head, Pos: []ast.Atom{body}, Neg: []ast.Atom{ast.NewAtom("bad", ast.N(x))}}
		return &Derivation{Fact: head, Rule: &r, Children: []*Derivation{leaf(body)}}
	}
	if err := checkDerivation(p, db, node(1, 2)); err != nil {
		t.Fatalf("sound derivation rejected: %v", err)
	}
	for name, d := range map[string]*Derivation{
		"comparison fails": node(5, 2),
		"leaf not in EDB":  node(1, 5),
		"negated present":  node(3, 4),
	} {
		if checkDerivation(p, db, d) == nil {
			t.Errorf("%s: unsound derivation accepted", name)
		}
	}
}
