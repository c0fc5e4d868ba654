package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/g-rpqs/rlc-go/internal/core"
)

// sizes are the input sizes and schedule of one run. fullSizes is the
// benchmark; the package tests run tinySizes.
type sizes struct {
	Scale   float64 // replica vertices as a share of the original's
	WBEdges int     // edge cap of the WB replica
	LJEdges int     // edge cap of the LJ replica

	EmbeddedPool, EmbeddedBatch int

	HotPool int

	ColdPool, ColdBatch int
	ColdBudget          int64 // MaxIndexBytes of the tiered index

	LivePool      int
	LiveHoldout   int     // one in LiveHoldout edges is held out of the base
	LiveRate      float64 // writes per second
	LiveThreshold int     // journal length that starts a background fold

	Setups      int           // setups per run; setup_s is their median
	Slices      int           // read metrics are medians over this many slices of the window
	Warmup      time.Duration // untimed load before the measured window
	SampleEvery int           // traced runs replay every n-th request directly
	SampleMax   int           // cap on the queries replayed directly
}

var fullSizes = sizes{
	Scale:   0.004,
	WBEdges: 120_000,
	LJEdges: 28_000,

	EmbeddedPool: 100_000, EmbeddedBatch: 1024,

	HotPool: 4_000,

	ColdPool: 200_000, ColdBatch: 256,
	// About half of the full WB replica's index (922,504 bytes), fixed as
	// a byte count so that setup builds once.
	ColdBudget: 461_000,

	LivePool:      4_000,
	LiveHoldout:   10,
	LiveRate:      100,
	LiveThreshold: 50,

	Setups:      3,
	Slices:      5,
	Warmup:      time.Second,
	SampleEvery: 16,
	SampleMax:   4096,
}

// config is one run's settings.
type config struct {
	sizes
	Seed   int64
	Window time.Duration
	Trace  bool
	Out    string // directory for traces and the scratch directory
	Dir    string // scratch directory for bundles, removed by the caller
}

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// result is one run's outcome.
type result struct {
	Workload  string
	Correct   bool
	Attempted int64
	Failed    int64
	EndToEnd  []metric
	Layers    []metric
	Shown     []metric // the report's view, under the workload's own names
	Notes     []string
	Spans     *tracer
}

func (r *result) e2e(name, unit string, v float64) {
	r.EndToEnd = append(r.EndToEnd, metric{name, unit, v})
}

func (r *result) layer(name, unit string, v float64) {
	r.Layers = append(r.Layers, metric{name, unit, v})
}

func (r *result) show(name, unit string, v float64) {
	r.Shown = append(r.Shown, metric{name, unit, v})
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// wrong records a failed exactness gate: the run is not correct.
func (r *result) wrong(format string, args ...any) {
	r.Correct = false
	r.notef("WRONG: "+format, args...)
}

// count folds a load loop's tallies into the result.
func (r *result) count(st *opStats, what string) {
	r.Attempted += st.attempted
	r.Failed += st.failed
	if st.firstErr != nil {
		r.notef("%s: %d of %d failed, first: %v", what, st.failed, st.attempted, st.firstErr)
	}
	if st.wrong > 0 {
		r.wrong("%s: %d wrong answers, first: %s", what, st.wrong, st.firstBad)
	}
}

// workload is one named traffic mix.
type workload struct {
	Name string
	Why  string
	Run  func(cfg config, res *result) error
}

var workloads = []workload{
	{"embedded-batch", "library batches on LJ: 1 closed-loop caller, QueryBatchInto of 1024 from a 100k pool; the packed probe and batch fan-out do the work", runEmbedded},
	{"hot-point", "GET /query on a served v2 bundle of WB: 2 closed-loop clients, Zipf s=1.1 over 4k queries; HTTP path and result cache dominate", runHotPoint},
	{"cold-tiered-batch", "POST /batch of 256 on a half-budget tiered WB index: 2 closed-loop clients, uniform over 200k; tier filters and traversal fallback dominate", runColdTiered},
	{"live-ingest", "mutable WB minus a 1-in-10 holdout: 1 closed-loop GET /query reader (Zipf, 4k) beside 1 open-loop POST /update writer at 100/s with folds", runLiveIngest},
}

// rng derives an independent stream for one purpose from the run's seed.
func rng(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// heapMB collects garbage and returns the live Go heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timeSetups runs setup n times and returns the last instance, closing the
// earlier ones, with the median wall time in seconds. Each setup starts
// from a collected heap so that one setup's garbage does not bill the next.
func timeSetups[T any](n int, setup func() (T, error), closeFn func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		if i > 0 {
			closeFn(last)
		}
		last = v
	}
	return last, median(secs), nil
}

// buildMetrics reports the index builder's own counters.
func buildMetrics(res *result, st core.BuildStats, buildS float64) {
	res.layer("core.build_s", "s", buildS)
	res.layer("core.kbs_nodes", "count", float64(st.KernelBFSNodes))
	res.layer("core.build_waste_ratio", "ratio", ratio(float64(st.Speculated-st.Committed), float64(st.Speculated)))
	res.layer("core.build_rerun", "count", float64(st.Rerun))
	res.layer("core.prune_ratio", "ratio", ratio(float64(st.PrunedPR1+st.PrunedPR2+st.PrunedDup), float64(st.Attempts())))
}

// readMetrics reports a measured window's read numbers. The window is cut
// into equal time slices; throughput and median latency are the medians of
// their per-slice values, so that one stall in one slice does not move
// them, and the p99 is taken over the whole window. The median latency is
// the end-to-end metric. Throughput and p99 swing by more than a bound can
// absorb from run to run on a shared 2-CPU host, so they are per-layer
// metrics of traced runs; the report shows all three under the workload's
// own names (query_* or batch_*).
func readMetrics(res *result, kind string, st *opStats, elapsed time.Duration, slices int) error {
	width := elapsed.Seconds() / float64(slices)
	lats := make([][]float64, slices)
	answered := make([]float64, slices)
	for i, at := range st.at {
		j := min(int(at/width), slices-1)
		lats[j] = append(lats[j], st.lat[i])
		answered[j] += float64(st.n[i])
	}
	var qps, p50 []float64
	for j := range lats {
		if len(lats[j]) == 0 {
			return fmt.Errorf("window slice %d completed no reads", j)
		}
		qps = append(qps, answered[j]/width)
		p50 = append(p50, median(lats[j]))
	}
	all := summarize(st.lat)
	res.e2e("read_p50_us", "us", median(p50))
	res.layer("read_qps", "1/s", median(qps))
	res.layer("read_p99_us", "us", all.P99)
	res.show(kind+"_qps", "1/s", median(qps))
	res.show(kind+"_p50_us", "us", median(p50))
	res.show(kind+"_p99_us", "us", all.P99)
	res.notef("read window: %d operations answering %d queries in %d slices of %.2f s; per slice qps %.0f, p50 us %.1f",
		all.N, st.answered, slices, width, qps, p50)
	if !all.HasP99 {
		res.notef("read window: %d reads leave %d beyond the p99, too few; %s_p99_us reported as 0", all.N, beyond99(all.N), kind)
	} else {
		res.notef("read window: whole-window p50 %.1f us, p99 %.1f us with %d samples beyond, max %.1f us", all.P50, all.P99, beyond99(all.N), all.Max)
	}
	return nil
}

// timing reports a timing distribution as .p50 (and .p99 where the sample
// count allows) under prefix, noting the sample counts.
func timing(res *result, prefix, unit string, xs []float64, withP99 bool) {
	s := summarize(xs)
	res.layer(prefix+".p50", unit, s.P50)
	if withP99 {
		res.layer(prefix+".p99", unit, s.P99)
		if !s.HasP99 {
			res.notef("%s: %d samples, too few for a p99; reported 0", prefix, s.N)
			return
		}
	}
	res.notef("%s: %d samples", prefix, s.N)
}

// gcCounters snapshots the collector's cycle count and total pause.
func gcCounters() (cycles uint32, pauseNS uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, ms.PauseTotalNs
}

// switchHandler serves through h, wrapped in a traced handler while a
// tracer is installed. Untraced runs pay one atomic load per request.
type switchHandler struct {
	h      http.Handler
	traced atomic.Pointer[http.Handler]
}

func (s *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if t := s.traced.Load(); t != nil {
		(*t).ServeHTTP(w, r)
		return
	}
	s.h.ServeHTTP(w, r)
}

// trace installs (tr != nil) or removes the traced wrapper.
func (s *switchHandler) trace(tr *tracer, counters func() map[string]int64) {
	if tr == nil {
		s.traced.Store(nil)
		return
	}
	h := tracedHandler(s.h, tr, counters)
	s.traced.Store(&h)
}

// sample is one request replayed directly after a traced window: the pool
// positions it asked and the request id its spans share.
type sample struct {
	Req int64
	Idx []int32
}

// sampler keeps every n-th request of one client, up to a cap on queries.
type sampler struct {
	every, max, queries int
	got                 []sample
}

func (s *sampler) offer(seq, req int64, idx ...int32) {
	if s == nil || seq%int64(s.every) != 0 || s.queries >= s.max {
		return
	}
	s.got = append(s.got, sample{Req: req, Idx: append([]int32(nil), idx...)})
	s.queries += len(idx)
}

// samplers makes one sampler per client for a traced window (nil slots
// for an untraced one).
func samplers(cfg config, tr *tracer, clients int) []*sampler {
	out := make([]*sampler, clients)
	if tr != nil {
		for i := range out {
			out[i] = &sampler{every: cfg.SampleEvery, max: cfg.SampleMax / clients}
		}
	}
	return out
}

func mergeSamples(ss []*sampler) []sample {
	var out []sample
	for _, s := range ss {
		if s != nil {
			out = append(out, s.got...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Req < out[j].Req })
	return out
}

// reqID names request seq of client c; spans of one request share it.
func reqID(c int, seq int64) int64 { return int64(c)<<40 | seq }

// window is one measured load window's outcome.
type window struct {
	st      *opStats
	elapsed time.Duration
	samples []sample
	// GC cycles and pause during the window.
	gcCycles, gcPauseMS float64
}

// measure runs load for d, timing it and the collector's work.
func measure(d time.Duration, load func(d time.Duration) (*opStats, []sample)) window {
	c0, p0 := gcCounters()
	start := time.Now()
	st, samples := load(d)
	w := window{st: st, elapsed: time.Since(start), samples: samples}
	c1, p1 := gcCounters()
	w.gcCycles, w.gcPauseMS = float64(c1-c0), float64(p1-p0)/1e6
	return w
}

// windows runs the warm-up and the measured window(s) of a workload. Every
// run measures an untraced window for the read metrics; a traced run then
// measures a traced one and reports the tracing overhead as the ratio of
// their read medians. load runs the workload's traffic for d under tracer
// tr (nil = untraced); kind names the reads in the report.
func windows(cfg config, res *result, kind string, load func(tr *tracer, d time.Duration) (*opStats, []sample)) (*window, error) {
	if cfg.Warmup > 0 {
		st, _ := load(nil, cfg.Warmup)
		res.count(st, "warm-up")
	}
	plain := measure(cfg.Window, func(d time.Duration) (*opStats, []sample) { return load(nil, d) })
	res.count(plain.st, "window")
	if err := readMetrics(res, kind, plain.st, plain.elapsed, cfg.Slices); err != nil {
		return nil, err
	}
	if !cfg.Trace {
		return &plain, nil
	}
	traced := measure(cfg.Window, func(d time.Duration) (*opStats, []sample) { return load(res.Spans, d) })
	res.count(traced.st, "traced window")
	p0, p1 := median(plain.st.lat), median(traced.st.lat)
	res.layer("trace.overhead_ratio", "ratio", ratio(p1, p0))
	res.notef("tracing overhead: read p50 %.2f us untraced vs %.2f us traced (%+.1f%%)", p0, p1, 100*(ratio(p1, p0)-1))
	res.layer("runtime.gc_cycles", "count", traced.gcCycles)
	res.layer("runtime.gc_pause_ms", "ms", traced.gcPauseMS)
	res.layer("loadgen.failed_ratio", "ratio", ratio(float64(traced.st.failed), float64(traced.st.attempted)))
	return &traced, nil
}
