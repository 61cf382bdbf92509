package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	htd "hypertree"
	"hypertree/internal/cq"
	"hypertree/internal/elim"
	"hypertree/internal/heur"
)

// cqShape is one query of the catalog with the size of its catalog
// database: every relation holds tuples random pairs over [0, domain).
// The stream grades each shape's databases from lo to hi times that size;
// the ranges differ so that every shape's ops cost about the same (2 to 25
// ms on a 2-core box), and no shape's cost mode owns a percentile. naive
// marks shapes whose smallest database NaiveEvaluate can still answer.
type cqShape struct {
	name, text string
	rels       []string
	tuples     int
	domain     int
	lo, hi     float64
	naive      bool
}

// cqShapes are the five catalog query shapes: a chain, a star, a triangle,
// a cycle and a constant filter. The star's six-way fan-out makes nested
// loops too slow even on its smallest database.
var cqShapes = []cqShape{
	{"chain_5", "ans(X0,X5) :- r0(X0,X1), r1(X1,X2), r2(X2,X3), r3(X3,X4), r4(X4,X5).",
		[]string{"r0", "r1", "r2", "r3", "r4"}, 2000, 60, 0.04, 0.16, true},
	{"star_6", "ans(C) :- s0(C,L0), s1(C,L1), s2(C,L2), s3(C,L3), s4(C,L4), s5(C,L5).",
		[]string{"s0", "s1", "s2", "s3", "s4", "s5"}, 1500, 50, 0.25, 2.0, false},
	{"triangle", "ans(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X).",
		[]string{"e"}, 600, 70, 0.75, 2.0, true},
	{"cycle_6", "ans(X0,X3) :- e0(X0,X1), e1(X1,X2), e2(X2,X3), e3(X3,X4), e4(X4,X5), e5(X5,X0).",
		[]string{"e0", "e1", "e2", "e3", "e4", "e5"}, 800, 40, 0.05, 0.15, true},
	{"const_filter", "ans(X,Z) :- r(X,Y), s(Y,Z), t(Z,'7').",
		[]string{"r", "s", "t"}, 2500, 50, 0.25, 1.5, true},
}

// cqGrades is the number of database sizes per shape.
const cqGrades = 10

// pairs is the seeded content of one relation.
type pairs [][2]string

func randomPairs(rng *rand.Rand, n, domain int) pairs {
	out := make(pairs, n)
	for i := range out {
		out[i] = [2]string{fmt.Sprint(rng.Intn(domain)), fmt.Sprint(rng.Intn(domain))}
	}
	return out
}

// loadDatabase is the program call that loads a database.
func loadDatabase(rels []string, data []pairs) *htd.Database {
	db := htd.NewDatabase()
	for r, name := range rels {
		for _, p := range data[r] {
			db.Add(name, p[0], p[1])
		}
	}
	return db
}

// answerDigest is a compact fingerprint of an answer set: its size and a
// hash of its rows in order (the engine returns them sorted).
type answerDigest struct {
	rows int
	hash uint64
}

func digestRows(rows [][]string) answerDigest {
	h := fnv.New64a()
	for _, row := range rows {
		for _, v := range row {
			h.Write([]byte(v))
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	return answerDigest{rows: len(rows), hash: h.Sum64()}
}

// cqInput is one query over one seeded database.
type cqInput struct {
	name  string
	shape *cqShape
	naive bool // also checked against NaiveEvaluate
	data  []pairs
	q     *htd.Query
	db    *htd.Database
}

// cqAnswer answers queries through htd.AnswerQueryCtx: a min-fill plan,
// then the parallel Yannakakis engine.
type cqAnswer struct {
	pool []cqInput
	outs []cqOut

	// Traced-run accumulators: Stats of all traced ops, and the tuple
	// counts and evaluation time of the first traced block.
	stats            *htd.Stats
	firstOps         int
	joins, semijoins int64
	firstEval        time.Duration
}

type cqOut struct {
	op, input int
	got       answerDigest
}

type cqRaw struct {
	rows [][]string
	eval time.Duration
}

func newCQAnswer(seed int64) (*cqAnswer, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &cqAnswer{stats: new(htd.Stats)}
	for s := range cqShapes {
		sh := &cqShapes[s]
		for g := 0; g < cqGrades; g++ {
			sc := sh.lo + (sh.hi-sh.lo)*float64(g)/(cqGrades-1)
			in := cqInput{name: fmt.Sprintf("%s_x%.3f", sh.name, sc), shape: sh, naive: sh.naive && g == 0}
			n := int(sc * float64(sh.tuples))
			for range sh.rels {
				in.data = append(in.data, randomPairs(rng, n, sh.domain))
			}
			w.pool = append(w.pool, in)
		}
	}
	rng.Shuffle(len(w.pool), func(i, j int) { w.pool[i], w.pool[j] = w.pool[j], w.pool[i] })
	return w, nil
}

// setup parses every query and loads its database.
func (w *cqAnswer) setup(ctx context.Context, traced bool) error {
	for i := range w.pool {
		in := &w.pool[i]
		q, err := htd.ParseQuery(in.shape.text)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", in.shape.name, err)
		}
		in.q = q
		in.db = loadDatabase(in.shape.rels, in.data)
	}
	return nil
}

func (w *cqAnswer) warmupOps() int     { return len(w.pool) }
func (w *cqAnswer) blockOps() int      { return len(w.pool) }
func (w *cqAnswer) input(i int) string { return w.pool[i%len(w.pool)].name }

func (w *cqAnswer) op(ctx context.Context, i int, t *opTrace) (any, error) {
	in := &w.pool[i%len(w.pool)]
	opt := htd.Options{Method: htd.MethodMinFill, Jobs: jobs}
	if t == nil {
		rows, err := htd.AnswerQueryCtx(ctx, in.q, in.db, opt)
		return cqRaw{rows: rows}, err
	}
	// The traced op makes the same two calls AnswerQueryCtx makes, with a
	// span around each.
	opt.Stats = t.st()
	sp := t.begin("cq.plan")
	d, err := htd.DecomposeCtx(ctx, in.q.Hypergraph(), opt)
	t.end(sp)
	if err != nil {
		return cqRaw{}, err
	}
	sp = t.begin("cq.eval")
	rows, err := htd.AnswerQueryWithCtx(ctx, in.q, in.db, d, opt)
	return cqRaw{rows: rows, eval: t.end(sp)}, err
}

func (w *cqAnswer) digest(i int, out any, err error, t *opTrace) error {
	if err != nil {
		return err
	}
	r := out.(cqRaw)
	w.outs = append(w.outs, cqOut{op: i, input: i % len(w.pool), got: digestRows(r.rows)})
	if t != nil {
		s := t.stats.Snapshot()
		w.stats.AddSnapshot(s)
		if t.first() {
			w.firstOps++
			w.joins += s.CQJoinTuples
			w.semijoins += s.CQSemijoinTuples
			w.firstEval += r.eval
		}
	}
	return nil
}

// finish compares every answer set with the reference of its input: a
// sequential evaluation over BB's decomposition, which must agree with
// NaiveEvaluate on each shape's smallest database where that is affordable.
func (w *cqAnswer) finish(ctx context.Context) []failure {
	var fails []failure
	refs := map[int]cqReference{}
	for _, o := range w.outs {
		in := &w.pool[o.input]
		r, ok := refs[o.input]
		if !ok {
			r = referenceAnswers(ctx, in.q, in.db, in.naive)
			refs[o.input] = r
		}
		if r.reason != "" {
			fails = append(fails, failure{op: o.op, input: in.name, reason: "no reference: " + r.reason})
		} else if o.got != r.want {
			fails = append(fails, failure{op: o.op, input: in.name,
				reason: fmt.Sprintf("%d answers (hash %x), reference %d (hash %x)", o.got.rows, o.got.hash, r.want.rows, r.want.hash)})
		}
	}
	return fails
}

// cqReference is a reference answer set, or the reason there is none.
type cqReference struct {
	want   answerDigest
	reason string
}

// referenceAnswers evaluates q sequentially over a decomposition built by
// BB instead of min-fill; with naive set, NaiveEvaluate must agree.
func referenceAnswers(ctx context.Context, q *htd.Query, db *htd.Database, naive bool) cqReference {
	rctx, cancel := context.WithTimeout(ctx, 6*opDeadline)
	defer cancel()
	d, err := htd.DecomposeCtx(rctx, q.Hypergraph(), htd.Options{Method: htd.MethodBB})
	if err != nil {
		return cqReference{reason: fmt.Sprintf("bb plan: %v", err)}
	}
	rows, err := cq.EvaluateWithCtx(rctx, q, db, d, cq.EvalOptions{Jobs: 1})
	if err != nil {
		return cqReference{reason: fmt.Sprintf("sequential evaluation: %v", err)}
	}
	want := digestRows(rows)
	if naive {
		nrows, err := cq.NaiveEvaluate(q, db)
		if err != nil {
			return cqReference{reason: fmt.Sprintf("naive evaluation: %v", err)}
		}
		sortRows(nrows)
		if got := digestRows(nrows); got != want {
			return cqReference{reason: fmt.Sprintf("sequential %d answers, naive %d", want.rows, got.rows)}
		}
	}
	return cqReference{want: want}
}

// layers times the min-fill seed on every query hypergraph of the stream;
// the plan, evaluation and join counters come from the traced ops.
func (w *cqAnswer) layers(ctx context.Context, tr *tracer, res *result) error {
	for j := range w.pool {
		in := &w.pool[j]
		h := in.q.Hypergraph()
		tr.timed("heur.MinFill", -1, j, func() {
			heur.MinFill(elim.New(h.PrimalGraph()), rand.New(rand.NewSource(int64(j))))
		})
	}
	res.set("heur.minfill_ms_p50", tr.msQuantile("heur.MinFill", 0.5), "ms")
	res.set("cq.plan_ms_p50", tr.msQuantile("cq.plan", 0.5), "ms")
	res.set("cq.eval_ms_p50", tr.msQuantile("cq.eval", 0.5), "ms")
	s := w.stats.Snapshot()
	res.set("cq.level_wait_ms_p50", s.CQLevelWaitNs.P50()/1e6, "ms")
	if w.firstOps > 0 {
		res.set("cq.join_tuples_per_op", float64(w.joins)/float64(w.firstOps), "count")
		res.set("cq.semijoin_tuples_per_op", float64(w.semijoins)/float64(w.firstOps), "count")
	}
	if t := w.joins + w.semijoins; t > 0 {
		res.set("csp.ns_per_tuple", float64(w.firstEval.Nanoseconds())/float64(t), "ns")
	}
	return nil
}

// sortRows orders rows lexicographically, as the engine returns them.
func sortRows(rows [][]string) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}
