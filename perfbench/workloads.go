package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// The four workloads. Every input is generated from the seed, and every
// expected answer is derived in closed form from the generator's own
// construction (chain offsets, chain lengths, toggle state), never from
// the engine under test.

type opKind int

const (
	kindQuery opKind = iota
	kindUpdate
	kindLint
	numKinds
)

var kindNames = [numKinds]string{"query", "update", "lint"}

// request is one HTTP call: what is sent, what the replay needs to
// re-run it layer by layer, and the oracle for its reply.
type request struct {
	kind   opKind
	method string
	path   string
	body   []byte

	program, ics string // query, lint: the sources as sent
	dataset      string // query, update
	facts        string // update: the fact batch as sent
	retract      bool   // update: DELETE rather than POST

	wantAnswers []string          // query: expected answers, sorted
	wantFacts   int               // update: facts_added (facts_removed on retract)
	wantViews   map[string][2]int // update: view -> {answers_added, answers_removed}
}

// op is one unit of a client's closed loop. It is one request, except
// on rewrite-churn, where a client lints a fresh program and then runs
// it.
type op []request

// dataset is a registered fact set, sent once per set-up as a PUT.
type dataset struct {
	name  string
	facts []string // rendered facts, in the order sent
}

func (d dataset) body() string { return strings.Join(d.facts, "\n") + "\n" }

// viewSpec is a materialized view registered at set-up.
type viewSpec struct {
	dataset, name, program string
	wantAnswers            int
}

// workload is a generated workload: the data loaded at set-up, the
// views registered on it, the warm-up requests that fill the rewrite
// cache, and one seeded request generator per closed-loop client.
type workload struct {
	name     string
	primary  string // what one timed operation is
	datasets []dataset
	views    []viewSpec
	warmup   []op
	clients  []func() op
	// processes is how many child processes an untraced run is split
	// over. On the 2-vCPU host the benchmark was tuned on, timings
	// differed more between processes than between stretches of one
	// process, so pooling several steadies the medians; their set-ups
	// give setup_s its median. Workloads with a cheap set-up use more.
	processes int
	writes    bool // the clients mutate the datasets
}

// sizes scales the generated data; tests shrink it.
type sizes struct {
	chains, chainLen, goals      int // serve-large: edge chains and point-query goals
	linkChains, linkLen, regions int // serve-large: link chains (views) and write-only edge pairs
}

var defaultSizes = sizes{
	chains: 2500, chainLen: 40, goals: 32,
	linkChains: 40, linkLen: 5, regions: 64,
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"serve-large-read", "serve-large-write", "rewrite-churn"}

// clients is the number of closed-loop clients of each workload. On the
// shared 2-CPU host the benchmark was built on, runs whose two clients
// kept both CPUs busy slowed about twice as much under a neighbour's
// load as runs with one client, so the read and churn workloads use
// one. Writes to one dataset run one at a time under its lock, so the
// write workload's second client adds a queue of two writers, not a
// second busy CPU.
var clients = map[string]int{"serve-large-read": 1, "serve-large-write": 2, "rewrite-churn": 1}

// newWorkload generates the named workload for nclients clients.
func newWorkload(name string, seed int64, nclients int, sz sizes) (*workload, error) {
	switch name {
	case "serve-large-read", "serve-large-write":
		return serveLarge(name, seed, nclients, sz), nil
	case "rewrite-churn":
		return rewriteChurn(seed, nclients), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// clientRNG gives each client its own stream, fixed by the seed.
func clientRNG(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(c) + 1))
}

// pair renders an answer tuple of two integers as the server does.
// Every generated node is below 1e6, where sqod renders numbers in
// plain decimal (from 1e6 on, strconv's shortest 'g' format switches to
// exponent notation).
func pair(a, b int) string { return fmt.Sprintf("(%d, %d)", a, b) }

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings always marshal
	}
	return b
}

// --- serve-large ------------------------------------------------------

const (
	pathProgram = "path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n?- path(%d, Y).\n"
	reachView   = "reach(X, Y) :- link(X, Y).\nreach(X, Y) :- link(X, Z), reach(Z, Y).\n?- reach.\n"
	hop2View    = "hop2(X, Z) :- link(X, Y), link(Y, Z).\n?- hop2.\n"
)

// serveLarge builds both serve-large workloads over one dataset:
// sz.chains disjoint edge chains of sz.chainLen edges (100k edges by
// default), a small link relation of sz.linkChains chains of sz.linkLen
// edges carrying two views, and sz.regions edge pairs that no goal
// reaches. The read workload sends magic point queries `?- path(c, Y).`
// from chain heads c; the write workload toggles single facts,
// alternating between link and the unreachable edge region.
func serveLarge(name string, seed int64, nclients int, sz sizes) *workload {
	rng := rand.New(rand.NewSource(seed))
	stride := sz.chainLen + 1
	perm := rng.Perm(sz.chains)
	var facts []string
	heads := make([]int, sz.chains)
	for c := 0; c < sz.chains; c++ {
		base := perm[c]*stride + 1
		heads[c] = base
		for j := 0; j < sz.chainLen; j++ {
			facts = append(facts, fmt.Sprintf("edge(%d, %d).", base+j, base+j+1))
		}
	}
	// Region pairs start past every chain node, so no goal reaches them.
	regionBase := sz.chains*stride + 1
	region := func(k int) string { return fmt.Sprintf("edge(%d, %d).", regionBase+2*k, regionBase+2*k+1) }
	// Link chains: m = linkLen edges over nodes base..base+m, and an
	// extension node base+m+1 that writes attach to the tail.
	m := sz.linkLen
	linkBase := regionBase + 2*sz.regions + 1
	linkNode := func(c, j int) int { return linkBase + c*(m+2) + j }
	linkExt := func(c int) string { return fmt.Sprintf("link(%d, %d).", linkNode(c, m), linkNode(c, m+1)) }
	for c := 0; c < sz.linkChains; c++ {
		for j := 0; j < m; j++ {
			facts = append(facts, fmt.Sprintf("link(%d, %d).", linkNode(c, j), linkNode(c, j+1)))
		}
	}
	rng.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })

	w := &workload{
		name:      name,
		processes: 3,
		datasets:  []dataset{{name: "large", facts: facts}},
		views: []viewSpec{
			{dataset: "large", name: "reach", program: reachView, wantAnswers: sz.linkChains * m * (m + 1) / 2},
			{dataset: "large", name: "hop2", program: hop2View, wantAnswers: sz.linkChains * (m - 1)},
		},
	}

	// The goal set: sz.goals distinct chain heads. A head's answers are
	// the chainLen nodes after it on its chain.
	if name == "serve-large-read" {
		w.primary = "POST /v1/query, a magic point query"
		queries := make([]request, sz.goals)
		for i, c := range rng.Perm(sz.chains)[:sz.goals] {
			head := heads[c]
			prog := fmt.Sprintf(pathProgram, head)
			want := make([]string, sz.chainLen)
			for j := 1; j <= sz.chainLen; j++ {
				want[j-1] = pair(head, head+j)
			}
			sort.Strings(want)
			queries[i] = request{
				kind: kindQuery, method: "POST", path: "/v1/query",
				body:    jsonBody(map[string]string{"program": prog, "dataset": "large"}),
				program: prog, dataset: "large", wantAnswers: want,
			}
			w.warmup = append(w.warmup, op{queries[i]})
		}
		for i := 0; i < nclients; i++ {
			crng := clientRNG(seed, i)
			w.clients = append(w.clients, func() op { return op{queries[crng.Intn(len(queries))]} })
		}
		return w
	}

	w.primary = "POST or DELETE /v1/datasets/large/facts, one fact"
	w.writes = true
	update := func(fact string, retract bool, views map[string][2]int) request {
		method := "POST"
		if retract {
			method = "DELETE"
		}
		return request{
			kind: kindUpdate, method: method, path: "/v1/datasets/large/facts",
			body: []byte(fact), dataset: "large", facts: fact, retract: retract,
			wantFacts: 1, wantViews: views,
		}
	}
	for i := 0; i < nclients; i++ {
		crng := clientRNG(seed, i)
		// Client i owns the link chains and region pairs whose index is
		// i modulo nclients, so its toggle state is its own.
		var links, pairs []int
		for c := i; c < sz.linkChains; c += nclients {
			links = append(links, c)
		}
		for k := i; k < sz.regions; k += nclients {
			pairs = append(pairs, k)
		}
		linkOn := map[int]bool{}
		pairOn := map[int]bool{}
		n := 0
		w.clients = append(w.clients, func() op {
			n++
			if n%2 == 1 {
				// Attach (or detach) an extension node to a link chain
				// tail: reach gains (loses) the m+1 pairs ending at the
				// extension node, hop2 the one pair two hops back.
				c := links[crng.Intn(len(links))]
				on := linkOn[c]
				linkOn[c] = !on
				if on {
					return op{update(linkExt(c), true, map[string][2]int{"reach": {0, m + 1}, "hop2": {0, 1}})}
				}
				return op{update(linkExt(c), false, map[string][2]int{"reach": {m + 1, 0}, "hop2": {1, 0}})}
			}
			k := pairs[crng.Intn(len(pairs))]
			on := pairOn[k]
			pairOn[k] = !on
			return op{update(region(k), on, map[string][2]int{"reach": {0, 0}, "hop2": {0, 0}})}
		})
	}
	return w
}

// --- rewrite-churn ----------------------------------------------------

const (
	goodPathProgram = "path(X, Y) :- step(X, Y).\npath(X, Y) :- step(X, Z), path(Z, Y).\ngoodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).\n?- goodPath.\n"
	goodPathICs     = ":- startPoint(X), step(X, Y), X < %d.\n:- step(X, Y), X >= Y.\n"
	churnLow        = 30      // low-chain steps, nodes 1..31
	churnHigh       = 30      // high-chain steps
	churnHighBase   = 100_000 // first high-chain node
	churnMinT       = 100     // smallest threshold; above every low node
)

// rewriteChurn builds the Section 3 goodPath program over 70 facts: a
// low step chain on nodes 1..31, a high chain from churnHighBase, four
// start points in the first half of the high chain and four end points
// in its second half (plus two end points on the low chain). Every
// request carries the threshold constraint `X < T` with a T used
// nowhere else in the run, drawn from [churnMinT, churnHighBase): every
// start point lies above T, so the database satisfies every
// constraint, the rewrite prunes the low chain identically each time,
// and the answers are always the 16 (start, end) pairs.
func rewriteChurn(seed int64, nclients int) *workload {
	rng := rand.New(rand.NewSource(seed))
	var facts []string
	for j := 1; j <= churnLow; j++ {
		facts = append(facts, fmt.Sprintf("step(%d, %d).", j, j+1))
	}
	for j := 0; j < churnHigh; j++ {
		facts = append(facts, fmt.Sprintf("step(%d, %d).", churnHighBase+j, churnHighBase+j+1))
	}
	half := churnHigh / 2
	starts := rng.Perm(half)[:4]
	ends := rng.Perm(churnHigh - half)[:4]
	var want []string
	for _, s := range starts {
		facts = append(facts, fmt.Sprintf("startPoint(%d).", churnHighBase+s))
		for _, e := range ends {
			want = append(want, pair(churnHighBase+s, churnHighBase+half+1+e))
		}
	}
	for _, e := range ends {
		facts = append(facts, fmt.Sprintf("endPoint(%d).", churnHighBase+half+1+e))
	}
	facts = append(facts, "endPoint(5).", "endPoint(20).")
	sort.Strings(want)
	rng.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })

	step := func(t int) op {
		ics := fmt.Sprintf(goodPathICs, t)
		return op{
			{
				kind: kindLint, method: "POST", path: "/v1/lint",
				body:    jsonBody(map[string]string{"program": goodPathProgram, "ics": ics}),
				program: goodPathProgram, ics: ics,
			},
			{
				kind: kindQuery, method: "POST", path: "/v1/query",
				body:    jsonBody(map[string]string{"program": goodPathProgram, "ics": ics, "dataset": "churn"}),
				program: goodPathProgram, ics: ics, dataset: "churn", wantAnswers: want,
			},
		}
	}
	w := &workload{
		name:      "rewrite-churn",
		processes: 6,
		primary:   "POST /v1/lint then POST /v1/query of a program with a fresh constraint",
		datasets:  []dataset{{name: "churn", facts: facts}},
		warmup:    []op{step(churnMinT)},
	}
	// Thresholds: client i takes first+i, first+i+nclients, ... so no
	// two requests of a run share one.
	first := churnMinT + 1 + rng.Intn(1000)
	for i := 0; i < nclients; i++ {
		t := first + i
		w.clients = append(w.clients, func() op {
			o := step(t)
			t += nclients
			return o
		})
	}
	return w
}
