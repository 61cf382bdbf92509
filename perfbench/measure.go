package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	htd "hypertree"
)

// opDeadline bounds every op. No op of any workload is expected to come
// near it, so an op that reaches it is a failure (the checkers see the
// truncated, inexact or missing result).
const opDeadline = 10 * time.Second

// workload is one kind of traffic. Ops are numbered from 0 in the order the
// client sends them; stateless workloads map op i to input i mod pool size.
type workload interface {
	// setup makes the program calls a user pays before the first op, such
	// as parsing the inputs or opening a standing query. It is timed as
	// setup_s and runs several times; each call replaces the previous
	// state. traced attaches telemetry where the program takes it at
	// set-up time.
	setup(ctx context.Context, traced bool) error
	// warmupOps is the length of the untimed warm-up pass.
	warmupOps() int
	// blockOps is the number of ops in one block of the traced run.
	blockOps() int
	// input names op i's input for failure reports.
	input(i int) string
	// op sends op i. t is nil outside traced blocks.
	op(ctx context.Context, i int, t *opTrace) (any, error)
	// digest checks or records op i's output off the clock; a non-nil
	// error is a failure of that op.
	digest(i int, out any, err error, t *opTrace) error
	// finish runs the checks that need the whole run (reference answers,
	// final state) after the last op, off the clock.
	finish(ctx context.Context) []failure
	// layers runs the traced run's layer replays and sets the workload's
	// per-layer metrics.
	layers(ctx context.Context, tr *tracer, res *result) error
}

// client is the closed-loop client: it sends op i+1 only after op i
// returned and its output was digested.
type client struct {
	w        workload
	ops      int
	failures []failure
}

func newClient(w workload) *client { return &client{w: w} }

// do sends one op and returns its latency. t is nil outside traced blocks.
func (c *client) do(ctx context.Context, i int, t *opTrace) time.Duration {
	opCtx, cancel := context.WithTimeout(ctx, opDeadline)
	t0 := time.Now()
	span := -1
	if t != nil {
		span = t.tr.begin("op", -1, i)
		t.op, t.parent = i, span
	}
	out, err := c.w.op(opCtx, i, t)
	if t != nil {
		t.tr.end(span)
	}
	lat := time.Since(t0)
	cancel()
	c.ops++
	if ferr := c.w.digest(i, out, err, t); ferr != nil {
		c.failures = append(c.failures, failure{op: i, input: c.w.input(i), reason: ferr.Error()})
	}
	return lat
}

// slices is the number of equal time slices a measured phase is cut into.
// On a shared virtual machine the hypervisor can take 1% to 40% of the CPU
// time (measured on a 2-vCPU VM) in phases of seconds to minutes. The
// timing metrics therefore come from the least disturbed half of the run:
// the slices with the highest throughput, pooled. With runs of 20 s that
// half holds at least 200 ops of every workload, so its p90 has ten samples
// beyond it. peak_heap_mb is the median over all slices.
const slices = 10

// phase is one timed stretch of ops.
type phase struct {
	lats  []time.Duration
	slice []int // time slice each op started in
	alloc uint64
	peaks []uint64 // per slice: heap high-water mark above the phase's baseline
}

// measure runs ops from start on until the phase has lasted d.
func (c *client) measure(ctx context.Context, start int, d time.Duration) phase {
	var ph phase
	m := startMemWatch(d)
	for i := start; ; i++ {
		k := m.slice()
		if k >= slices {
			break
		}
		ph.lats = append(ph.lats, c.do(ctx, i, nil))
		ph.slice = append(ph.slice, k)
	}
	ph.alloc, ph.peaks = m.stop()
	return ph
}

// report sets the end-to-end metrics of an untraced phase.
func (ph phase) report(res *result) {
	type slice struct {
		lats []time.Duration
		busy time.Duration
	}
	var per [slices]slice
	for i, l := range ph.lats {
		per[ph.slice[i]].lats = append(per[ph.slice[i]].lats, l)
		per[ph.slice[i]].busy += l
	}
	rate := func(s slice) float64 {
		if s.busy == 0 {
			return 0
		}
		return float64(len(s.lats)) / s.busy.Seconds()
	}
	var rates, peaks []float64
	for k := range per {
		rates = append(rates, rate(per[k]))
		peaks = append(peaks, float64(ph.peaks[k])/1e6)
	}
	sorted := per[:]
	sort.SliceStable(sorted, func(i, j int) bool { return rate(sorted[i]) > rate(sorted[j]) })
	var kept slice
	for _, s := range sorted[:slices/2] {
		kept.lats = append(kept.lats, s.lats...)
		kept.busy += s.busy
	}
	ms := durationsMs(kept.lats)
	n := len(ph.lats)
	res.set("ops_per_s", rate(kept), "1/s")
	res.set("latency_p50_ms", quantile(ms, 0.50), "ms")
	res.set("latency_p90_ms", quantile(ms, 0.90), "ms")
	res.set("alloc_mb_per_op", float64(ph.alloc)/1e6/float64(n), "MB")
	res.set("peak_heap_mb", median(peaks), "MB")
	res.notes = append(res.notes, fmt.Sprintf("slices: ops_per_s %.4g, peak heap %.4g MB", rates, peaks))
	// Whole-run figures, for reading: the highest percentile with at least
	// ten samples beyond it, p99 from 1000 samples on.
	all := durationsMs(ph.lats)
	res.notes = append(res.notes, fmt.Sprintf("whole run: %d ops, %.3f ops/s, p50 %.3f ms, p90 %.3f ms; kept half: %d ops",
		n, float64(n)/sumDur(ph.lats).Seconds(), quantile(all, 0.5), quantile(all, 0.9), len(kept.lats)))
	if n >= 1000 {
		res.notes = append(res.notes, fmt.Sprintf("whole run: latency_p99_ms %.6f ms", quantile(all, 0.99)))
	} else {
		res.notes = append(res.notes, fmt.Sprintf("latency_p99_ms not reported: %d samples, 1000 needed", n))
	}
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// memWatch measures one phase's memory: bytes allocated, and per time
// slice the heap's high-water mark above the live heap at the start of the
// phase. It runs a GC first, so garbage left by earlier phases is not
// charged to this one.
type memWatch struct {
	t0     time.Time
	d      time.Duration
	alloc0 uint64
	base   uint64
	peak   [slices]atomic.Uint64
	done   chan struct{}
	wg     sync.WaitGroup
}

// memSampleEvery is the heap sampling period: short against an op, and
// the read (runtime/metrics, no stop-the-world) costs about a microsecond.
const memSampleEvery = 2 * time.Millisecond

// startMemWatch starts watching a phase that lasts d.
func startMemWatch(d time.Duration) *memWatch {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := &memWatch{t0: time.Now(), d: d, alloc0: ms.TotalAlloc, base: ms.HeapAlloc, done: make(chan struct{})}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-m.done:
				return
			case <-tick.C:
				metrics.Read(sample)
				m.observe(sample[0].Value.Uint64())
			}
		}
	}()
	return m
}

// slice is the time slice the phase is in now; slices means it is over.
func (m *memWatch) slice() int {
	return int(int64(time.Since(m.t0)) * slices / int64(m.d))
}

func (m *memWatch) observe(heap uint64) {
	p := &m.peak[min(m.slice(), slices-1)]
	for {
		old := p.Load()
		if heap <= old || p.CompareAndSwap(old, heap) {
			return
		}
	}
}

// stop ends the sampler and returns the bytes allocated since the start
// and each slice's heap high-water mark above the starting live heap.
func (m *memWatch) stop() (alloc uint64, peaks []uint64) {
	close(m.done)
	m.wg.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.observe(ms.HeapAlloc)
	for k := range m.peak {
		peaks = append(peaks, max(m.peak[k].Load(), m.base)-m.base)
	}
	return ms.TotalAlloc - m.alloc0, peaks
}

// gcClock reads the process's GC CPU time and total CPU time.
func gcClock() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// runTraced is the traced run. It alternates an untraced block of ops with
// a traced block over the same op numbers (stateless workloads see the
// same inputs in both) until the run has lasted d, then runs the layer
// replays. Spans are kept in memory and written when the run ends.
func runTraced(ctx context.Context, name string, w workload, c *client, start int, d time.Duration, res *result) error {
	for _, l := range layerMetrics {
		res.set(l.name, 0, l.unit)
	}
	tr := newTracer()
	var plain, traced time.Duration
	gc0, cpu0 := gcClock()
	t0 := time.Now()
	i, b := start, w.blockOps()
	for block := 0; block == 0 || time.Since(t0) < d; block++ {
		for k := 0; k < b; k++ {
			plain += c.do(ctx, i+k, nil)
		}
		for k := 0; k < b; k++ {
			t := &opTrace{tr: tr, block: block, stats: new(htd.Stats)}
			traced += c.do(ctx, i+k, t)
		}
		i += b
	}
	gc1, cpu1 := gcClock()
	if cpu1 > cpu0 {
		res.set("gc.cpu_share", (gc1-gc0)/(cpu1-cpu0), "ratio")
	}
	res.set("trace.overhead_ratio", traced.Seconds()/plain.Seconds(), "ratio")
	if err := w.layers(ctx, tr, res); err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	for _, s := range tr.selfTimes() {
		res.notes = append(res.notes, fmt.Sprintf("span %-22s count %6d total_ms %12.3f self_ms %12.3f",
			s.name, s.count, ms(s.total), ms(s.self)))
	}
	path, err := tr.write(name)
	if err != nil {
		return err
	}
	res.notes = append(res.notes, "spans written to "+path)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
