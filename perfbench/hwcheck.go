package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	htd "hypertree"
	"hypertree/internal/cover"
	"hypertree/internal/detk"
	"hypertree/internal/gen"
)

// The hw_check stream: edge-shuffled adders and bridges of graded size,
// hw = 2 by construction, hwCopies shuffles of each size. Every input gets
// two ops: k = 1 (a complete refutation) and k = 2 (a witness).
// Witness costs vary several-fold from one edge order to the next, so the
// stream holds many shuffles of a few sizes rather than a few shuffles of
// many.
const (
	hwCopies = 60
	hwReplay = 10 // inputs replayed at Jobs 1 and Jobs 2 in the traced run
)

var (
	hwAdderBits    = []int{4, 5, 6, 7, 8, 9, 10, 11, 12}
	hwBridgePanels = []int{4, 6, 8, 10, 12, 14, 16, 18}
)

// hwCheck decides "is hw(H) ≤ k?" through the balanced-separator engine,
// with a fresh shared cover oracle per op as the facade builds one per run.
type hwCheck struct {
	pool []hgInput

	// Traced-run accumulators.
	guesses           int64
	guessTime         time.Duration
	coverHits, misses int64
}

type hwRaw struct {
	res detk.BalancedResult
	orc cover.CounterSnapshot
	dur time.Duration
}

func newHWCheck(seed int64) (*hwCheck, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &hwCheck{}
	add := func(name string, h *htd.Hypergraph) error {
		s := rng.Int63()
		var buf bytes.Buffer
		if err := htd.WriteHypergraph(&buf, gen.ShuffleEdges(h, s)); err != nil {
			return fmt.Errorf("hw_check: writing %s: %w", name, err)
		}
		w.pool = append(w.pool, hgInput{name: fmt.Sprintf("%s_perm%d", name, s), text: buf.String(), seed: rng.Int63()})
		return nil
	}
	for c := 0; c < hwCopies; c++ {
		for _, b := range hwAdderBits {
			if err := add(fmt.Sprintf("adder_%d", b), gen.Adder(b)); err != nil {
				return nil, err
			}
		}
		for _, p := range hwBridgePanels {
			if err := add(fmt.Sprintf("bridge_%d", p), gen.Bridge(p)); err != nil {
				return nil, err
			}
		}
	}
	rng.Shuffle(len(w.pool), func(i, j int) { w.pool[i], w.pool[j] = w.pool[j], w.pool[i] })
	return w, nil
}

// setup parses the stream's hypergraphs.
func (w *hwCheck) setup(ctx context.Context, traced bool) error { return parsePool(w.pool) }

func (w *hwCheck) warmupOps() int { return 100 }
func (w *hwCheck) blockOps() int  { return 200 }

// at maps op i to its input and k.
func (w *hwCheck) at(i int) (*hgInput, int) {
	return &w.pool[(i/2)%len(w.pool)], 1 + i%2
}

func (w *hwCheck) input(i int) string {
	in, k := w.at(i)
	return fmt.Sprintf("%s k=%d", in.name, k)
}

func (w *hwCheck) op(ctx context.Context, i int, t *opTrace) (any, error) {
	in, k := w.at(i)
	name := "detk.refute"
	if k == 2 {
		name = "detk.witness"
	}
	sp := t.begin(name)
	orc := cover.New(in.h, cover.Options{})
	res := detk.DecomposeBalancedCtx(ctx, in.h, k, detk.BalancedOptions{
		Jobs: jobs, Seed: in.seed, Oracle: orc, Stats: t.st(),
	})
	dur := t.end(sp)
	return hwRaw{res: res, orc: orc.Counters(), dur: dur}, res.Err
}

// digest checks one decision: at k = 1 a complete refutation, at k = 2 a
// hypertree decomposition of width ≤ 2.
func (w *hwCheck) digest(i int, out any, err error, t *opTrace) error {
	if err != nil {
		return err
	}
	r := out.(hwRaw)
	_, k := w.at(i)
	if err := checkBalanced(r.res, k); err != nil {
		return err
	}
	if t != nil {
		w.guesses += r.res.Guesses
		w.guessTime += r.dur
		w.coverHits += r.orc.Hits
		w.misses += r.orc.Misses
	}
	return nil
}

func checkBalanced(r detk.BalancedResult, k int) error {
	if !r.Complete {
		return fmt.Errorf("k=%d: search incomplete", k)
	}
	if k == 1 {
		if r.Found {
			return fmt.Errorf("k=1: found a witness, but hw = 2 by construction")
		}
		return nil
	}
	if !r.Found {
		return fmt.Errorf("k=%d: no witness, but hw = 2 by construction", k)
	}
	d := r.Decomposition
	if err := d.ValidateGHD(); err != nil {
		return fmt.Errorf("k=%d: invalid witness: %w", k, err)
	}
	if !detk.CheckSpecial(d) {
		return fmt.Errorf("k=%d: witness violates the descendant condition", k)
	}
	if wd := d.GHWidth(); wd > k {
		return fmt.Errorf("k=%d: witness width %d", k, wd)
	}
	return nil
}

func (w *hwCheck) finish(ctx context.Context) []failure { return nil }

// layers replays the first hwReplay inputs at both k with Jobs 1, whose
// guess count is deterministic, and with Jobs 2, for the speed-up.
func (w *hwCheck) layers(ctx context.Context, tr *tracer, res *result) error {
	var guesses int64
	var seq, par time.Duration
	n := min(hwReplay, len(w.pool))
	for j := 0; j < 2*n; j++ {
		in, k := w.at(j)
		for _, jb := range []int{1, 2} {
			var r detk.BalancedResult
			d := tr.timed(fmt.Sprintf("detk.jobs%d", jb), -1, j, func() {
				r = detk.DecomposeBalancedCtx(ctx, in.h, k, detk.BalancedOptions{
					Jobs: jb, Seed: in.seed, Oracle: cover.New(in.h, cover.Options{}),
				})
			})
			if err := checkBalanced(r, k); err != nil {
				return fmt.Errorf("%s at Jobs %d: %w", w.input(j), jb, err)
			}
			if jb == 1 {
				guesses += r.Guesses
				seq += d
			} else {
				par += d
			}
		}
	}
	res.set("detk.guesses_per_op", float64(guesses)/float64(2*n), "count")
	res.set("detk.jobs_speedup", seq.Seconds()/par.Seconds(), "ratio")
	res.set("detk.refute_ms_p50", tr.msQuantile("detk.refute", 0.5), "ms")
	res.set("detk.witness_ms_p50", tr.msQuantile("detk.witness", 0.5), "ms")
	if w.guessTime > 0 {
		res.set("detk.guesses_per_s", float64(w.guesses)/w.guessTime.Seconds(), "1/s")
	}
	if t := w.coverHits + w.misses; t > 0 {
		res.set("cover.hit_ratio", float64(w.coverHits)/float64(t), "ratio")
	}
	return nil
}
