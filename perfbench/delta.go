package main

import (
	"context"
	"fmt"
	"math/rand"

	htd "hypertree"
)

// cq_delta keeps a standing chain_5 query current under single-tuple
// deltas, inserts and deletes 2:1. The stream tracks the database, so
// every insert adds an absent pair and every delete removes a present one:
// each delta changes the database.
const (
	deltaWarmup     = 50
	deltaBlock      = 50 // deltas per block of the traced run
	deltaCheckEvery = 25 // traced deltas between re-evaluation checkpoints
)

// relState is one relation's current content, indexable for uniform
// deletes.
type relState struct {
	rows [][2]string
	at   map[[2]string]int
}

func (r *relState) add(p [2]string) {
	r.at[p] = len(r.rows)
	r.rows = append(r.rows, p)
}

func (r *relState) remove(p [2]string) {
	i := r.at[p]
	last := r.rows[len(r.rows)-1]
	r.rows[i], r.at[last] = last, i
	r.rows = r.rows[:len(r.rows)-1]
	delete(r.at, p)
}

// delta is one Insert or Delete.
type delta struct {
	insert bool
	rel    int
	pair   [2]string
}

func (d delta) String() string {
	op := "-"
	if d.insert {
		op = "+"
	}
	return fmt.Sprintf("%s%s(%s,%s)", op, cqShapes[0].rels[d.rel], d.pair[0], d.pair[1])
}

type cqDelta struct {
	shape *cqShape
	rng   *rand.Rand
	state []relState
	db    *htd.Database // the initial database, read by every set-up
	q     *htd.Query
	sq    *htd.StandingQuery
	last  delta // the delta of the latest op

	// Traced-run accumulators.
	traced   bool
	stats    *htd.Stats        // attached to the standing query in the traced run
	prev     htd.StatsSnapshot // stats after the previous op
	tracedN  int
	firstOps int
	tuples   int64
}

func newCQDelta(seed int64) (*cqDelta, error) {
	rng := rand.New(rand.NewSource(seed))
	sh := &cqShapes[0] // chain_5
	w := &cqDelta{shape: sh, rng: rng, stats: new(htd.Stats)}
	var data []pairs
	for range sh.rels {
		st := relState{at: map[[2]string]int{}}
		for _, p := range randomPairs(rng, sh.tuples, sh.domain) {
			if _, dup := st.at[p]; !dup {
				st.add(p)
			}
		}
		w.state = append(w.state, st)
		data = append(data, st.rows)
	}
	w.db = loadDatabase(sh.rels, data)
	q, err := htd.ParseQuery(sh.text)
	if err != nil {
		return nil, fmt.Errorf("cq_delta: %w", err)
	}
	w.q = q
	return w, nil
}

// setup opens the standing query over the initial database.
func (w *cqDelta) setup(ctx context.Context, traced bool) error {
	opt := htd.Options{Jobs: jobs}
	if traced {
		opt.Stats = w.stats
	}
	w.traced = traced
	sq, err := htd.OpenStandingQuery(ctx, w.q, w.db, opt)
	if err != nil {
		return err
	}
	w.sq = sq
	return nil
}

func (w *cqDelta) warmupOps() int     { return deltaWarmup }
func (w *cqDelta) blockOps() int      { return deltaBlock }
func (w *cqDelta) input(i int) string { return w.last.String() }

// next draws the next delta of the stream. It depends only on the seed and
// the deltas applied so far.
func (w *cqDelta) next() delta {
	rel := w.rng.Intn(len(w.state))
	st := &w.state[rel]
	if w.rng.Intn(3) == 0 && len(st.rows) > 0 {
		return delta{rel: rel, pair: st.rows[w.rng.Intn(len(st.rows))]}
	}
	for {
		p := [2]string{fmt.Sprint(w.rng.Intn(w.shape.domain)), fmt.Sprint(w.rng.Intn(w.shape.domain))}
		if _, present := st.at[p]; !present {
			return delta{insert: true, rel: rel, pair: p}
		}
	}
}

// op applies the next delta of the stream; i is ignored, as the stream is
// stateful.
func (w *cqDelta) op(ctx context.Context, i int, t *opTrace) (any, error) {
	d := w.next()
	w.last = d
	rel := w.shape.rels[d.rel]
	sp := t.begin("cq.delta")
	defer t.end(sp)
	if d.insert {
		return nil, w.sq.Insert(ctx, rel, d.pair[0], d.pair[1])
	}
	return nil, w.sq.Delete(ctx, rel, d.pair[0], d.pair[1])
}

// digest mirrors an applied delta in the tracked database. In traced
// blocks it also re-evaluates the query from scratch at checkpoints and
// checks the standing answers against it.
func (w *cqDelta) digest(i int, out any, err error, t *opTrace) error {
	if err != nil {
		return err // the standing query rolled the delta back
	}
	if st := &w.state[w.last.rel]; w.last.insert {
		st.add(w.last.pair)
	} else {
		st.remove(w.last.pair)
	}
	if w.traced {
		s := w.stats.Snapshot()
		if t.first() {
			w.firstOps++
			w.tuples += s.CQJoinTuples + s.CQSemijoinTuples - w.prev.CQJoinTuples - w.prev.CQSemijoinTuples
		}
		w.prev = s
	}
	if t == nil {
		return nil
	}
	w.tracedN++
	if w.tracedN%deltaCheckEvery != 0 {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	db := w.current()
	var want [][]string
	t.tr.timed("cq.reeval", -1, i, func() {
		want, err = htd.AnswerQueryCtx(ctx, w.q, db, htd.Options{Method: htd.MethodMinFill, Jobs: jobs})
	})
	if err != nil {
		return fmt.Errorf("re-evaluation at checkpoint: %w", err)
	}
	return w.compare(want)
}

// current loads the tracked database.
func (w *cqDelta) current() *htd.Database {
	data := make([]pairs, len(w.state))
	for r := range w.state {
		data[r] = w.state[r].rows
	}
	return loadDatabase(w.shape.rels, data)
}

func (w *cqDelta) compare(want [][]string) error {
	got, ref := digestRows(w.sq.Answers()), digestRows(want)
	if got != ref {
		return fmt.Errorf("standing query has %d answers (hash %x), fresh evaluation %d (hash %x)",
			got.rows, got.hash, ref.rows, ref.hash)
	}
	return nil
}

// finish checks the standing answers against a fresh AnswerQueryCtx over
// the final database.
func (w *cqDelta) finish(ctx context.Context) []failure {
	rctx, cancel := context.WithTimeout(ctx, opDeadline)
	defer cancel()
	want, err := htd.AnswerQueryCtx(rctx, w.q, w.current(), htd.Options{Method: htd.MethodMinFill, Jobs: jobs})
	if err == nil {
		err = w.compare(want)
	}
	if err != nil {
		return []failure{{op: -1, input: "final database", reason: err.Error()}}
	}
	return nil
}

// layers reports the delta work counter of the first traced block and the
// cost of a delta against a full re-evaluation.
func (w *cqDelta) layers(ctx context.Context, tr *tracer, res *result) error {
	if w.firstOps > 0 {
		res.set("cq.delta_tuples_per_op", float64(w.tuples)/float64(w.firstOps), "count")
	}
	reeval := tr.msQuantile("cq.reeval", 0.5)
	res.set("cq.reeval_ms_p50", reeval, "ms")
	if reeval > 0 {
		res.set("cq.delta_reeval_ratio", tr.msQuantile("cq.delta", 0.5)/reeval, "ratio")
	}
	return nil
}
