// Package eval implements bottom-up evaluation of the datalog dialect
// of package ast: a semi-naive fixpoint over interned relations, with
// every rule compiled into a join plan and run by one plan executor
// (hash-indexed joins, negated EDB subgoals, dense-order comparison
// filters). The engine reports instrumentation (rule firings, join
// probes, derived tuples) so that the effect of semantic query
// optimization can be observed independently of wall-clock time. DB
// is the string-keyed input (EDB) and output (IDB) format.
package eval

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
)

// Tuple is a row: a sequence of constant terms.
type Tuple []ast.Term

// Key returns a canonical string key for the tuple.
func (t Tuple) Key() string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte('\x01')
		}
		b.WriteString(v.Key())
	}
	return b.String()
}

// String renders the tuple as (v1, ..., vn).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Relation is a set of same-arity tuples in insertion order.
//
// Concurrency: any number of goroutines may read a relation (Len,
// Contains, Tuples) concurrently; mutation (Add) requires that no
// reader runs concurrently.
type Relation struct {
	Arity  int
	tuples []Tuple
	seen   map[string]bool
}

// NewRelation returns an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	return &Relation{Arity: arity, seen: map[string]bool{}}
}

// Add inserts the tuple, reporting whether it was new. It panics on an
// arity mismatch or a non-constant term.
func (r *Relation) Add(t Tuple) bool {
	if len(t) != r.Arity {
		panic(fmt.Sprintf("eval: arity mismatch: tuple %s into arity-%d relation", t, r.Arity))
	}
	for _, v := range t {
		if v.IsVar() {
			panic("eval: variable in tuple " + t.String())
		}
	}
	k := t.Key()
	if r.seen[k] {
		return false
	}
	r.seen[k] = true
	r.tuples = append(r.tuples, t)
	return true
}

// Contains reports membership.
func (r *Relation) Contains(t Tuple) bool { return r.seen[t.Key()] }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuples returns the stored tuples in insertion order. Callers must
// not modify the slice.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// DB is a database: a map from predicate names to relations.
type DB struct {
	rels map[string]*Relation
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{rels: map[string]*Relation{}} }

// Rel returns the relation for pred, creating an empty one of the
// given arity if absent.
func (db *DB) Rel(pred string, arity int) *Relation {
	r, ok := db.rels[pred]
	if !ok {
		r = NewRelation(arity)
		db.rels[pred] = r
	}
	return r
}

// Lookup returns the relation for pred, or nil if absent.
func (db *DB) Lookup(pred string) *Relation { return db.rels[pred] }

// AddFact inserts a ground atom, reporting whether it was new.
func (db *DB) AddFact(a ast.Atom) bool {
	if !a.Ground() {
		panic("eval: AddFact on non-ground atom " + a.String())
	}
	return db.Rel(a.Pred, a.Arity()).Add(Tuple(a.Args))
}

// AddFacts inserts a batch of ground atoms.
func (db *DB) AddFacts(atoms []ast.Atom) {
	for _, a := range atoms {
		db.AddFact(a)
	}
}

// Contains reports whether the ground atom is present.
func (db *DB) Contains(a ast.Atom) bool {
	r := db.rels[a.Pred]
	if r == nil {
		return false
	}
	return r.Contains(Tuple(a.Args))
}

// Count returns the number of tuples for pred (0 if absent).
func (db *DB) Count(pred string) int {
	if r := db.rels[pred]; r != nil {
		return r.Len()
	}
	return 0
}

// Preds returns the predicate names present, sorted.
func (db *DB) Preds() []string {
	out := make([]string, 0, len(db.rels))
	for p := range db.rels {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the database. The source relations are
// already deduplicated, so tuples and seen keys are copied directly —
// no tuple is re-rendered or re-hashed.
func (db *DB) Clone() *DB {
	out := NewDB()
	for p, r := range db.rels {
		nr := &Relation{
			Arity:  r.Arity,
			tuples: append([]Tuple(nil), r.tuples...),
			seen:   make(map[string]bool, len(r.seen)),
		}
		for k := range r.seen {
			nr.seen[k] = true
		}
		out.rels[p] = nr
	}
	return out
}

// Facts returns all tuples of pred as ground atoms, in insertion
// order.
func (db *DB) Facts(pred string) []ast.Atom {
	r := db.rels[pred]
	if r == nil {
		return nil
	}
	out := make([]ast.Atom, r.Len())
	for i, t := range r.tuples {
		out[i] = ast.NewAtom(pred, t...)
	}
	return out
}

// SortedFacts returns all tuples of pred rendered as strings, sorted;
// convenient for order-insensitive comparisons in tests.
func (db *DB) SortedFacts(pred string) []string {
	facts := db.Facts(pred)
	out := make([]string, len(facts))
	for i, f := range facts {
		out[i] = f.String()
	}
	sort.Strings(out)
	return out
}
