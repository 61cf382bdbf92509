// Command perfbench is the repository benchmark for the hypertree toolkit.
//
// It is one closed-loop client: each op is sent only after the previous op
// returned. A run drives a single workload, generates its inputs from the
// seed, checks every output, and prints its metrics as one JSON object on
// the last line of standard output. Run it from the repository root:
//
//	bash perfbench/run.sh --workload ghw_portfolio --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// runs the traced measurement and reports the per-layer metrics instead.
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// jobs is the within-op parallelism of every workload (Options.Jobs,
// BalancedOptions.Jobs, EvalOptions.Jobs).
const jobs = 2

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 15

// newWorkload returns the named workload with inputs drawn from seed.
func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "ghw_portfolio":
		return newGHWPortfolio(seed)
	case "hw_check":
		return newHWCheck(seed)
	case "cq_answer":
		return newCQAnswer(seed)
	case "cq_delta":
		return newCQDelta(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (ghw_portfolio|hw_check|cq_answer|cq_delta)", name)
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: ghw_portfolio, hw_check, cq_answer or cq_delta")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs the traced measurement and reports per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*workloadName, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range res.failures {
		fmt.Fprintf(os.Stderr, "FAIL %s op %d input %s: %s\n", *workloadName, f.op, f.input, f.reason)
	}
	fmt.Printf("# env workload=%s seed=%d jobs=%d num_cpu=%d gomaxprocs=%d go=%s trace=%d\n",
		*workloadName, *seed, jobs, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *trace)
	for _, line := range res.notes {
		fmt.Println("#", line)
	}
	fmt.Printf("# fail_ratio %.6f ratio (%d of %d ops)\n", res.failRatio(), len(res.failures), res.attempted)
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.metrics[name]
		fmt.Printf("# %-32s %14.6f %s\n", name, m.Value, m.Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.failures) == 0, res.attempted, len(res.failures), res.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// failure is one op whose output the checker rejected.
type failure struct {
	op     int
	input  string
	reason string
}

// result is what a run reports.
type result struct {
	attempted int
	failures  []failure
	metrics   map[string]metric
	notes     []string // human-readable lines printed before the JSON
}

func (r *result) failRatio() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(len(r.failures)) / float64(r.attempted)
}

func (r *result) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// run performs one benchmark run of the named workload.
func run(name string, seed int64, seconds time.Duration, traced bool) (*result, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	res := &result{metrics: map[string]metric{}}

	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(ctx, traced); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// The warm-up pass: untimed, but its outputs are checked like any other.
	// It lets the CPU clock, the heap and the program's lazy state settle.
	cl := newClient(w)
	for i := 0; i < w.warmupOps(); i++ {
		cl.do(ctx, i, nil)
	}
	start := w.warmupOps()

	if traced {
		err = runTraced(ctx, fmt.Sprintf("%s-seed%d", name, seed), w, cl, start, seconds, res)
	} else {
		ph := cl.measure(ctx, start, seconds)
		res.set("setup_s", median(setups), "s")
		ph.report(res)
	}
	if err != nil {
		return nil, err
	}
	res.failures = append(res.failures, cl.failures...)
	res.failures = append(res.failures, w.finish(ctx)...)
	res.attempted = cl.ops
	return res, nil
}
