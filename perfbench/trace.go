package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	htd "hypertree"
)

// layerMetrics lists every per-layer metric of the traced run with its
// unit. A workload whose ops never enter a layer reports that layer's
// metrics as 0.
var layerMetrics = []struct{ name, unit string }{
	{"portfolio.workers_started_per_op", "count"},
	{"portfolio.winner_share", "ratio"},
	{"portfolio.overhead_ms_p50", "ms"},
	{"heur.minfill_ms_p50", "ms"},
	{"bb.ms_p50", "ms"},
	{"bb.nodes_per_op", "count"},
	{"setcover.exact_us_p50", "us"},
	{"setcover.lb_ms_p50", "ms"},
	{"cover.hit_ratio", "ratio"},
	{"cover.lambda_ms_p50", "ms"},
	{"frac.cover_us_p50", "us"},
	{"detk.guesses_per_op", "count"},
	{"detk.guesses_per_s", "1/s"},
	{"detk.refute_ms_p50", "ms"},
	{"detk.witness_ms_p50", "ms"},
	{"detk.jobs_speedup", "ratio"},
	{"cq.plan_ms_p50", "ms"},
	{"cq.eval_ms_p50", "ms"},
	{"cq.join_tuples_per_op", "count"},
	{"cq.semijoin_tuples_per_op", "count"},
	{"cq.level_wait_ms_p50", "ms"},
	{"csp.ns_per_tuple", "ns"},
	{"cq.delta_tuples_per_op", "count"},
	{"cq.reeval_ms_p50", "ms"},
	{"cq.delta_reeval_ratio", "ratio"},
	{"gc.cpu_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// span is one timed call into a layer, recorded by the benchmark around
// its own call into the layer's public function.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index of the enclosing span, -1 for none
	Op     int           `json:"op"`     // op (or replayed input) the span belongs to
}

// tracer keeps the spans of a traced run in memory.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.base), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = time.Since(t.base)
	return s.End - s.Start
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent, op int, fn func()) time.Duration {
	id := t.begin(name, parent, op)
	fn()
	return t.end(id)
}

// msQuantile is the q-quantile of the named spans' durations in ms.
func (t *tracer) msQuantile(name string, q float64) float64 {
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name {
			xs = append(xs, ms(s.End-s.Start))
		}
	}
	return quantile(xs, q)
}

// layerTime is the total and self time of all spans of one name. Self
// time is a span's duration minus the part its child spans cover; the
// client is single-threaded, so children never overlap.
type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

func (t *tracer) selfTimes() []layerTime {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	idx := map[string]int{}
	var out []layerTime
	for i, s := range t.spans {
		k, ok := idx[s.Name]
		if !ok {
			k = len(out)
			idx[s.Name] = k
			out = append(out, layerTime{name: s.Name})
		}
		out[k].count++
		out[k].total += s.End - s.Start
		out[k].self += s.End - s.Start - child[i]
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// write stores the spans as JSON lines in .bench_build/spans/<name>.jsonl
// under the working directory and returns the file's path.
func (t *tracer) write(name string) (string, error) {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// opTrace is what a traced op gets: the tracer, its own "op" span as the
// parent of the spans it opens, the traced block it runs in, and a fresh
// Stats to attach to the program's options. A nil *opTrace (untraced ops)
// records nothing.
type opTrace struct {
	tr     *tracer
	op     int
	parent int
	block  int
	stats  *htd.Stats
}

func (t *opTrace) begin(name string) int {
	if t == nil {
		return -1
	}
	return t.tr.begin(name, t.parent, t.op)
}

func (t *opTrace) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	return t.tr.end(id)
}

// st is the Stats to attach to the program's options (nil when untraced).
func (t *opTrace) st() *htd.Stats {
	if t == nil {
		return nil
	}
	return t.stats
}

// first reports whether the op runs in the first traced block, the one
// deterministic counters are taken from.
func (t *opTrace) first() bool { return t != nil && t.block == 0 }
