package htd

import (
	"context"
	"math/rand"

	"hypertree/internal/cover"
	"hypertree/internal/detk"
	"hypertree/internal/heur"
	"hypertree/internal/order"
)

// balsepGHW drives MethodBalSep under the house anytime contract: a
// min-fill ordering seeds the incumbent, then the balanced-separator
// engine deepens k from the tw-ksc lower bound towards the incumbent's
// width, stepping by Approx+1 in approx mode. Each level either produces
// a witness (its extracted elimination ordering becomes the incumbent) or
// a completeness-flagged failure; a deadline mid-level falls back to the
// incumbent. The result is Exact only when its width meets the lower
// bound.
func balsepGHW(ctx context.Context, h *Hypergraph, opt Options, sc *scope, orc *cover.Oracle) (Result, error) {
	ord, _, err := heur.MinFillCtxStats(ctx, elimNew(h.PrimalGraph()),
		rand.New(rand.NewSource(opt.Seed)), sc.engineStats())
	if err != nil {
		// Cancelled before any incumbent exists.
		return Result{}, err
	}
	w0 := order.GHWidthWith(h, ord, nil, true, orc)
	if hook := sc.incumbentHook(); hook != nil {
		hook(w0)
	}
	lb := GHWLowerBound(h, opt.Seed)
	if lb < 1 {
		lb = 1
	}
	best := Result{Width: w0, Ordering: ord, LowerBound: lb}
	if w0 <= lb {
		best.LowerBound, best.Exact = w0, true
		return best, nil
	}
	approx := opt.Approx
	if approx < 0 {
		approx = 0
	}
	// A complete failure at level k proves hw(H) > k+Approx, which bounds
	// ghw only at k = 1: hw = 1 ⇔ ghw = 1 ⇔ H is α-acyclic. Above that
	// ghw ≤ hw leaves room for a smaller ghw, so later failures raise no
	// bound and exactness rests on the width meeting lb alone.
	for k := lb; k < w0; k += approx + 1 {
		r := detk.DecomposeBalancedCtx(ctx, h, k, detk.BalancedOptions{
			Jobs:       opt.Jobs,
			MaxGuesses: opt.MaxNodes,
			Approx:     approx,
			Seed:       opt.Seed,
			Oracle:     orc,
			Stats:      sc.engineStats(),
			Trace:      sc.traceRef(),
			Track:      sc.trackID(),
		})
		if r.Err != nil {
			// Deadline mid-level: the incumbent stands, unproven.
			break
		}
		if r.Found {
			o := order.FromDecomposition(r.Decomposition)
			w := order.GHWidthWith(h, o, nil, true, orc)
			if hook := sc.incumbentHook(); hook != nil {
				hook(w)
			}
			if w <= best.Width {
				best.Width = w
				best.Ordering = o
			}
			break
		}
		if k == 1 && r.Complete {
			best.LowerBound = 2
		}
	}
	best.Exact = best.Width == best.LowerBound
	return best, nil
}
