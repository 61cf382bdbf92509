package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	htd "hypertree"
	"hypertree/internal/cover"
	"hypertree/internal/elim"
	"hypertree/internal/exp"
	"hypertree/internal/gen"
	"hypertree/internal/heur"
	"hypertree/internal/order"
	"hypertree/internal/setcover"
)

// The ghw_portfolio stream: ghwPerN[n-ghwMinN] random CSP hypergraphs for
// every vertex count n in [ghwMinN, ghwMaxN] (m ≈ n hyperedges of arity
// ≤ 4), plus the small exact members of the catalog. Op latencies have two
// modes: inputs BB closes at the root (about 1.5 ms, mostly n ≤ 13) and
// inputs it searches (about 10 ms). The counts lean toward larger n so that
// about a quarter of the ops fall in the first mode and the median lies
// inside the second, not in the valley between them.
//
// The random hypergraphs are drawn once from ghwDrawSeed; a run's seed
// relabels the vertices and reorders the hyperedges of every input, orders
// the stream and picks each op's Options.Seed. A fixed draw keeps the mix
// of easy and hard inputs, which sets the figures, the same from seed to
// seed; the relabelling still changes every engine's tie-breaking and
// search order.
const (
	ghwMinN     = 10
	ghwMaxN     = 18
	ghwArity    = 4
	ghwDrawSeed = 1
	ghwReplay   = 60 // inputs replayed layer by layer in the traced run
)

var ghwPerN = []int{20, 20, 30, 40, 70, 90, 110, 110, 110}

// ghwCatalog names the catalog members in the stream: the small ones of
// the "exact" family. grid2d_6 is left out because no engine closes it
// within seconds, so it is not small in this sense.
var ghwCatalog = []string{"adder_10", "clique_10", "chain_15", "queenhg_4"}

// hgInput is one hypergraph of a stream: its text in the TU-Wien format,
// parsed at set-up, and the Options.Seed of its ops.
type hgInput struct {
	name string
	text string
	seed int64
	h    *htd.Hypergraph
}

// ghwPortfolio is the everyday "optimal GHD" call: htd.ExplainCtx with the
// default GHW portfolio on a stream of small hypergraphs.
type ghwPortfolio struct {
	pool []hgInput
	outs []ghwOut // outputs that passed the per-op checks, for finish

	// Traced-run accumulators.
	tracedOps, started int
	winnerShare        float64
	overheadMs         []float64
	coverHits, misses  int64
}

type ghwOut struct {
	op, input, width int
}

type ghwRaw struct {
	d   *htd.Decomposition
	res htd.Result
	dur time.Duration // the traced call's span
}

func newGHWPortfolio(seed int64) (*ghwPortfolio, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &ghwPortfolio{}
	add := func(name string, h *htd.Hypergraph) error {
		s := rng.Int63()
		var buf bytes.Buffer
		if err := htd.WriteHypergraph(&buf, relabel(h, s)); err != nil {
			return fmt.Errorf("ghw_portfolio: writing %s: %w", name, err)
		}
		w.pool = append(w.pool, hgInput{name: fmt.Sprintf("%s_relabel%d", name, s), text: buf.String(), seed: rng.Int63()})
		return nil
	}
	draw := rand.New(rand.NewSource(ghwDrawSeed))
	for n := ghwMinN; n <= ghwMaxN; n++ {
		for j := 0; j < ghwPerN[n-ghwMinN]; j++ {
			m := n - 1 + draw.Intn(3)
			s := draw.Int63()
			if err := add(fmt.Sprintf("rand_n%d_m%d_s%d", n, m, s), gen.RandomHypergraph(n, m, ghwArity, s)); err != nil {
				return nil, err
			}
		}
	}
	for _, inst := range exp.Hypergraphs(false) {
		for _, name := range ghwCatalog {
			if inst.Name == name {
				if err := add(name, inst.Build()); err != nil {
					return nil, err
				}
			}
		}
	}
	rng.Shuffle(len(w.pool), func(i, j int) { w.pool[i], w.pool[j] = w.pool[j], w.pool[i] })
	return w, nil
}

// relabel returns h with its vertices renamed and its hyperedges reordered
// by seeded permutations: an isomorphic copy, so every width is unchanged.
func relabel(h *htd.Hypergraph, seed int64) *htd.Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(h.NumVertices())
	edges := make([][]int, h.NumEdges())
	for e, to := range rng.Perm(h.NumEdges()) {
		for _, v := range h.EdgeSet(e).Slice() {
			edges[to] = append(edges[to], perm[v])
		}
	}
	return htd.FromEdges(h.NumVertices(), edges)
}

// setup parses the stream's hypergraphs.
func (w *ghwPortfolio) setup(ctx context.Context, traced bool) error {
	return parsePool(w.pool)
}

func parsePool(pool []hgInput) error {
	for i := range pool {
		h, err := htd.ParseHypergraph(strings.NewReader(pool[i].text))
		if err != nil {
			return fmt.Errorf("parsing %s: %w", pool[i].name, err)
		}
		pool[i].h = h
	}
	return nil
}

func (w *ghwPortfolio) warmupOps() int     { return 150 }
func (w *ghwPortfolio) blockOps() int      { return len(w.pool) }
func (w *ghwPortfolio) input(i int) string { return w.pool[i%len(w.pool)].name }

func (w *ghwPortfolio) op(ctx context.Context, i int, t *opTrace) (any, error) {
	in := &w.pool[i%len(w.pool)]
	sp := t.begin("htd.ExplainCtx")
	d, res, err := htd.ExplainCtx(ctx, in.h, htd.Options{
		Method: htd.MethodPortfolio, Jobs: jobs, Seed: in.seed, Stats: t.st(),
	})
	return ghwRaw{d: d, res: res, dur: t.end(sp)}, err
}

// digest checks the proof claim of one op: an exact result whose lower
// bound meets its width, with a decomposition of that width. The width
// itself is compared with the reference in finish.
func (w *ghwPortfolio) digest(i int, out any, err error, t *opTrace) error {
	if err != nil {
		return err
	}
	r := out.(ghwRaw)
	switch {
	case !r.res.Exact:
		return fmt.Errorf("not exact: width %d, lower bound %d", r.res.Width, r.res.LowerBound)
	case r.res.LowerBound != r.res.Width:
		return fmt.Errorf("exact but lower bound %d != width %d (winner %s)", r.res.LowerBound, r.res.Width, r.res.Winner)
	case r.d.GHWidth() != r.res.Width:
		return fmt.Errorf("decomposition width %d != reported width %d", r.d.GHWidth(), r.res.Width)
	}
	w.outs = append(w.outs, ghwOut{op: i, input: i % len(w.pool), width: r.res.Width})
	if t == nil {
		return nil
	}
	var total, winner time.Duration
	for _, wk := range r.res.Workers {
		if wk.Elapsed > 0 {
			w.started++
		}
		total += wk.Elapsed
		if wk.Method == r.res.Winner && winner == 0 {
			winner = wk.Elapsed
		}
	}
	w.tracedOps++
	if total > 0 {
		w.winnerShare += float64(winner) / float64(total)
	}
	w.overheadMs = append(w.overheadMs, ms(r.dur-winner))
	s := t.stats.Snapshot()
	w.coverHits += s.CoverHits
	w.misses += s.CoverMisses
	return nil
}

// finish compares every op's width with the reference ghw of its input:
// the width BB and A* both prove exactly.
func (w *ghwPortfolio) finish(ctx context.Context) []failure {
	var fails []failure
	refs := map[int]reference{}
	for _, o := range w.outs {
		in := &w.pool[o.input]
		r, ok := refs[o.input]
		if !ok {
			r = referenceGHW(ctx, in)
			refs[o.input] = r
		}
		if r.reason != "" {
			fails = append(fails, failure{op: o.op, input: in.name, reason: "no reference: " + r.reason})
		} else if o.width != r.width {
			fails = append(fails, failure{op: o.op, input: in.name, reason: fmt.Sprintf("width %d, reference %d", o.width, r.width)})
		}
	}
	return fails
}

// reference is a width both reference engines proved, or the reason why
// they did not agree on one.
type reference struct {
	width  int
	reason string
}

// referenceGHW runs BB and A* sequentially; the reference is the ghw both
// prove exactly.
func referenceGHW(ctx context.Context, in *hgInput) reference {
	var widths []int
	for _, m := range []htd.Method{htd.MethodBB, htd.MethodAStar} {
		rctx, cancel := context.WithTimeout(ctx, 6*opDeadline)
		res, err := htd.GHWCtx(rctx, in.h, htd.Options{Method: m, Jobs: 1, Seed: in.seed})
		cancel()
		if err != nil {
			return reference{reason: fmt.Sprintf("%v: %v", m, err)}
		}
		if !res.Exact {
			return reference{reason: fmt.Sprintf("%v not exact", m)}
		}
		widths = append(widths, res.Width)
	}
	if widths[0] != widths[1] {
		return reference{reason: fmt.Sprintf("bb ghw %d != astar ghw %d", widths[0], widths[1])}
	}
	return reference{width: widths[0]}
}

// layers replays the first ghwReplay inputs layer by layer: the min-fill
// seed, a sequential BB run, the set-cover lower bound, cold exact set
// covers and fractional covers of every bag of BB's decomposition, and
// λ-materialization through a fresh cover oracle.
func (w *ghwPortfolio) layers(ctx context.Context, tr *tracer, res *result) error {
	var nodes int64
	n := min(ghwReplay, len(w.pool))
	for j := 0; j < n; j++ {
		in := &w.pool[j]
		root := tr.begin("replay", -1, j)
		tr.timed("heur.MinFill", root, j, func() {
			heur.MinFill(elim.New(in.h.PrimalGraph()), rand.New(rand.NewSource(in.seed)))
		})
		var (
			d   *htd.Decomposition
			r   htd.Result
			err error
		)
		tr.timed("bb.ExplainCtx", root, j, func() {
			d, r, err = htd.ExplainCtx(ctx, in.h, htd.Options{Method: htd.MethodBB, Jobs: 1, Seed: in.seed})
		})
		if err != nil {
			return fmt.Errorf("bb replay of %s: %w", in.name, err)
		}
		nodes += r.Nodes
		tr.timed("setcover.GHWLowerBound", root, j, func() { htd.GHWLowerBound(in.h, in.seed) })
		tr.timed("order.GHDWith", root, j, func() {
			order.GHDWith(in.h, r.Ordering, rand.New(rand.NewSource(in.seed)), true, cover.New(in.h, cover.Options{}))
		})
		solver := setcover.New(in.h, rand.New(rand.NewSource(in.seed)))
		orc := cover.New(in.h, cover.Options{})
		for _, nd := range d.Nodes() {
			tr.timed("setcover.Exact", root, j, func() { solver.Exact(nd.Chi) })
			var ferr error
			tr.timed("cover.FracValue", root, j, func() { _, ferr = orc.FracValue(nd.Chi) })
			if ferr != nil {
				return fmt.Errorf("fractional cover of a bag of %s: %w", in.name, ferr)
			}
		}
		tr.end(root)
	}
	res.set("heur.minfill_ms_p50", tr.msQuantile("heur.MinFill", 0.5), "ms")
	res.set("bb.ms_p50", tr.msQuantile("bb.ExplainCtx", 0.5), "ms")
	res.set("bb.nodes_per_op", float64(nodes)/float64(n), "count")
	res.set("setcover.exact_us_p50", 1000*tr.msQuantile("setcover.Exact", 0.5), "us")
	res.set("setcover.lb_ms_p50", tr.msQuantile("setcover.GHWLowerBound", 0.5), "ms")
	res.set("cover.lambda_ms_p50", tr.msQuantile("order.GHDWith", 0.5), "ms")
	res.set("frac.cover_us_p50", 1000*tr.msQuantile("cover.FracValue", 0.5), "us")
	if w.tracedOps > 0 {
		res.set("portfolio.workers_started_per_op", float64(w.started)/float64(w.tracedOps), "count")
		res.set("portfolio.winner_share", w.winnerShare/float64(w.tracedOps), "ratio")
		res.set("portfolio.overhead_ms_p50", median(w.overheadMs), "ms")
	}
	if t := w.coverHits + w.misses; t > 0 {
		res.set("cover.hit_ratio", float64(w.coverHits)/float64(t), "ratio")
	}
	return nil
}
