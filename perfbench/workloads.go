package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/dynamic"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/server"
)

// Random streams, one per purpose, so that changing one input leaves the
// others as they were.
const (
	streamPool = iota + 1
	streamHoldout
	streamClient // + client number
)

// sweepBatch is the batch size in which traced runs of the point-query
// workloads replay their sampled queries through QueryBatchInto.
const sweepBatch = 256

// zipfS is the skew of the point-query workloads: real query logs repeat
// a small head of hot queries, the regime a result cache exists for.
const zipfS = 1.1

// served is one set-up HTTP serving stack.
type served struct {
	srv   *server.Server
	sw    *switchHandler
	ep    *endpoint
	ix    *core.Index
	build core.BuildStats
	// buildS is the index build's share of the setup.
	buildS float64
}

func serve(srv *server.Server, ix *core.Index, st core.BuildStats, buildS float64) (*served, error) {
	sw := &switchHandler{h: srv.Handler()}
	ep, err := listen(sw)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &served{srv: srv, sw: sw, ep: ep, ix: ix, build: st, buildS: buildS}, nil
}

func (s *served) close() {
	s.ep.close()
	s.srv.Close()
}

// buildIndex builds with the default worker count, timing the build.
func buildIndex(g *graph.Graph, opts core.Options) (*core.Index, core.BuildStats, float64, error) {
	start := time.Now()
	ix, st, err := core.BuildWithStats(g, opts)
	return ix, st, time.Since(start).Seconds(), err
}

// setupMetrics reports what every workload measures about its setup.
func setupMetrics(res *result, setupS float64, ix *core.Index, heap0 float64) {
	for _, m := range []metric{
		{"setup_s", "s", setupS},
		{"index_mb", "MB", float64(ix.SizeBytes()) / (1 << 20)},
		{"heap_mb", "MB", heapMB() - heap0},
	} {
		res.e2e(m.Name, m.Unit, m.Value)
		res.show(m.Name, m.Unit, m.Value)
	}
}

// closedClients returns one op per client; mk builds client c's op with
// its own random stream and sampler.
func closedClients(cfg config, tr *tracer, n int, mk func(c int, r *rand.Rand, smp *sampler) op) ([]op, []*sampler) {
	smps := samplers(cfg, tr, n)
	ops := make([]op, n)
	for c := range ops {
		ops[c] = mk(c, rng(cfg.Seed, streamClient+int64(c)), smps[c])
	}
	return ops, smps
}

// pointOp is a client's GET /query loop step over a Zipf-skewed pool;
// gate judges each answer.
func pointOp(c int, cl *client, urls []string, z *rand.Zipf, smp *sampler, gate func(i int32, got bool) string) op {
	var answers []bool
	return func(seq int64) (reply, error) {
		i := int32(z.Uint64())
		req := reqID(c, seq)
		body, lat, err := cl.do("GET", urls[i], nil, "client.query", req)
		if err != nil {
			return reply{}, err
		}
		answers, err = parseReachable(body, answers[:0])
		if err != nil {
			return reply{}, err
		}
		if len(answers) != 1 {
			return reply{}, fmt.Errorf("query: %d answers in one reply", len(answers))
		}
		if bad := gate(i, answers[0]); bad != "" {
			return reply{bad: bad}, nil
		}
		smp.offer(seq, req, i)
		return reply{n: 1, cached: parseCached(body), lat: lat}, nil
	}
}

// exact is the gate of a static graph: the answer must equal the oracle's.
func exact(pool []query) func(i int32, got bool) string {
	return func(i int32, got bool) string {
		if q := pool[i]; got != q.Want {
			return fmt.Sprintf("(%d, %d, %v+) answered %v, oracle %v", q.S, q.T, q.L, got, q.Want)
		}
		return ""
	}
}

func runEmbedded(cfg config, res *result) error {
	g, err := replica("LJ", cfg.Scale, cfg.LJEdges)
	if err != nil {
		return err
	}
	pool, err := makePool(g, cfg.EmbeddedPool, rng(cfg.Seed, streamPool))
	if err != nil {
		return err
	}
	res.notef("graph: LJ replica, %d vertices, %d edges, %d labels; pool %d queries", g.NumVertices(), g.NumEdges(), g.NumLabels(), len(pool))
	heap0 := heapMB()
	type built struct {
		ix *core.Index
		st core.BuildStats
		s  float64
	}
	b, setupS, err := timeSetups(cfg.Setups, func() (built, error) {
		ix, st, s, err := buildIndex(g, core.Options{K: 2})
		return built{ix, st, s}, err
	}, func(built) {})
	if err != nil {
		return err
	}
	setupMetrics(res, setupS, b.ix, heap0)
	buildMetrics(res, b.st, b.s)
	ix := b.ix

	gate := exact(pool)
	load := func(tr *tracer, d time.Duration) (*opStats, []sample) {
		ops, smps := closedClients(cfg, tr, 1, func(c int, r *rand.Rand, smp *sampler) op {
			idx := make([]int32, cfg.EmbeddedBatch)
			qs := make([]core.BatchQuery, cfg.EmbeddedBatch)
			var out []core.BatchResult
			return func(seq int64) (reply, error) {
				req := reqID(c, seq)
				root := tr.begin("client.batch", req, -1)
				defer tr.end(root, nil)
				for j := range idx {
					idx[j] = int32(r.Intn(len(pool)))
					q := pool[idx[j]]
					qs[j] = core.BatchQuery{S: q.S, T: q.T, L: q.L}
				}
				sp := tr.begin("core.batch", req, root)
				start := time.Now()
				out = ix.QueryBatchInto(qs, 0, out)
				lat := time.Since(start)
				tr.end(sp, nil)
				for j, a := range out {
					if a.Err != nil {
						return reply{}, a.Err
					}
					if bad := gate(idx[j], a.Reachable); bad != "" {
						return reply{bad: bad}, nil
					}
				}
				smp.offer(seq, req, idx[:min(len(idx), 16)]...)
				return reply{n: len(qs), lat: lat}, nil
			}
		})
		return closedLoop(d, ops), mergeSamples(smps)
	}
	w, err := windows(cfg, res, "batch", load)
	if err != nil || !cfg.Trace {
		return err
	}
	var batchUS []float64
	for _, s := range res.Spans.snapshot() {
		if s.Name == "core.batch" && s.End >= 0 {
			batchUS = append(batchUS, float64(s.End-s.Start)/1e3)
		}
	}
	timing(res, "core.batch_us", "us", batchUS, false)
	sweep(res, ix, g, pool, w.samples, 0)
	return bundleRoundTrip(res, ix, filepath.Join(cfg.Dir, "embedded.rlcs"))
}

func runHotPoint(cfg config, res *result) error {
	g, err := replica("WB", cfg.Scale, cfg.WBEdges)
	if err != nil {
		return err
	}
	pool, err := makePool(g, cfg.HotPool, rng(cfg.Seed, streamPool))
	if err != nil {
		return err
	}
	res.notef("graph: WB replica, %d vertices, %d edges, %d labels; pool %d queries", g.NumVertices(), g.NumEdges(), g.NumLabels(), len(pool))
	heap0 := heapMB()
	path := filepath.Join(cfg.Dir, "hot.rlcs")
	var bt []bundleTimes
	s, setupS, err := timeSetups(cfg.Setups, func() (*served, error) {
		ix, st, buildS, err := buildIndex(g, core.Options{K: 2})
		if err != nil {
			return nil, err
		}
		snap, t, err := writeBundle(ix, path)
		if err != nil {
			return nil, err
		}
		bt = append(bt, t)
		return serve(server.NewFromSnapshot(snap, server.Options{}), snap.Index(), st, buildS)
	}, (*served).close)
	if err != nil {
		return err
	}
	defer s.close()
	setupMetrics(res, setupS, s.ix, heap0)
	buildMetrics(res, s.build, s.buildS)
	snapshotMetrics(res, bt, path)

	urls := queryURLs(s.ep.base, g, pool)
	gate := exact(pool)
	var cache0 server.CacheStats
	load := func(tr *tracer, d time.Duration) (*opStats, []sample) {
		s.sw.trace(tr, cacheCounters(s.srv))
		defer s.sw.trace(nil, nil)
		cache0 = s.srv.CacheStats()
		var clients []*client
		ops, smps := closedClients(cfg, tr, 2, func(c int, r *rand.Rand, smp *sampler) op {
			cl := newClient(tr)
			clients = append(clients, cl)
			return pointOp(c, cl, urls, rand.NewZipf(r, zipfS, 1, uint64(len(pool)-1)), smp, gate)
		})
		defer closeClients(clients)
		return closedLoop(d, ops), mergeSamples(smps)
	}
	w, err := windows(cfg, res, "query", load)
	if err != nil || !cfg.Trace {
		return err
	}
	cacheMetrics(res, w.st.cached, w.st.answered, cache0, s.srv.CacheStats(), false)
	spanTimes(res, res.Spans.snapshot())
	sweep(res, s.ix, g, pool, w.samples, sweepBatch)
	return nil
}

func runColdTiered(cfg config, res *result) error {
	g, err := replica("WB", cfg.Scale, cfg.WBEdges)
	if err != nil {
		return err
	}
	pool, err := makePool(g, cfg.ColdPool, rng(cfg.Seed, streamPool))
	if err != nil {
		return err
	}
	res.notef("graph: WB replica, %d vertices, %d edges, %d labels; pool %d queries; MaxIndexBytes %d",
		g.NumVertices(), g.NumEdges(), g.NumLabels(), len(pool), cfg.ColdBudget)
	heap0 := heapMB()
	s, setupS, err := timeSetups(cfg.Setups, func() (*served, error) {
		ix, st, buildS, err := buildIndex(g, core.Options{K: 2, MaxIndexBytes: cfg.ColdBudget})
		if err != nil {
			return nil, err
		}
		return serve(server.New(ix, server.Options{}), ix, st, buildS)
	}, (*served).close)
	if err != nil {
		return err
	}
	defer s.close()
	setupMetrics(res, setupS, s.ix, heap0)
	buildMetrics(res, s.build, s.buildS)
	if ts := s.ix.TierStats(); s.ix.Tiered() {
		res.notef("tiers: %d retained, %d demoted vertices, %d filter bytes", ts.RetainedVertices, ts.DemotedVertices, ts.FilterBytes)
	} else {
		res.notef("tiers: the budget did not tier this index")
	}

	codec := newBatchCodec(g, pool)
	url := s.ep.base + "/batch"
	gate := exact(pool)
	var cache0 server.CacheStats
	load := func(tr *tracer, d time.Duration) (*opStats, []sample) {
		s.sw.trace(tr, cacheCounters(s.srv))
		defer s.sw.trace(nil, nil)
		cache0 = s.srv.CacheStats()
		var clients []*client
		ops, smps := closedClients(cfg, tr, 2, func(c int, r *rand.Rand, smp *sampler) op {
			cl := newClient(tr)
			clients = append(clients, cl)
			idx := make([]int32, cfg.ColdBatch)
			var body []byte
			var answers []bool
			return func(seq int64) (reply, error) {
				for j := range idx {
					idx[j] = int32(r.Intn(len(pool)))
				}
				body = codec.body(body, idx)
				req := reqID(c, seq)
				resp, lat, err := cl.do("POST", url, body, "client.batch", req)
				if err != nil {
					return reply{}, err
				}
				answers, err = parseReachable(resp, answers[:0])
				if err != nil {
					return reply{}, err
				}
				if len(answers) != len(idx) {
					return reply{}, fmt.Errorf("batch: %d answers for %d queries", len(answers), len(idx))
				}
				for j, got := range answers {
					if bad := gate(idx[j], got); bad != "" {
						return reply{bad: bad}, nil
					}
				}
				smp.offer(seq, req, idx...)
				return reply{n: len(idx), cached: parseCached(resp), lat: lat}, nil
			}
		})
		defer closeClients(clients)
		return closedLoop(d, ops), mergeSamples(smps)
	}
	w, err := windows(cfg, res, "batch", load)
	if err != nil || !cfg.Trace {
		return err
	}
	cacheMetrics(res, w.st.cached, w.st.answered, cache0, s.srv.CacheStats(), false)
	sweep(res, s.ix, g, pool, w.samples, cfg.ColdBatch)
	spanTimes(res, res.Spans.snapshot())
	return bundleRoundTrip(res, s.ix, filepath.Join(cfg.Dir, "tiered.rlcs"))
}

// envelope is the gate of a graph that only grows from the one pool's
// answers were computed on to the one fullWant's were: TRUE on the base
// must stay TRUE, FALSE on the full graph must stay FALSE, and anything in
// between may go either way while edges land.
func envelope(pool []query, fullWant []bool) func(i int32, got bool) string {
	return func(i int32, got bool) string {
		q := pool[i]
		if q.Want && !got || !fullWant[i] && got {
			return fmt.Sprintf("(%d, %d, %v+) answered %v outside the envelope [base %v, full %v]", q.S, q.T, q.L, got, q.Want, fullWant[i])
		}
		return ""
	}
}

func runLiveIngest(cfg config, res *result) error {
	full, err := replica("WB", cfg.Scale, cfg.WBEdges)
	if err != nil {
		return err
	}
	// The held-out edges are fixed like the graph; the seed orders the
	// writes.
	base, holdout := splitHoldout(full, cfg.LiveHoldout, rng(0, streamHoldout))
	order := rng(cfg.Seed, streamHoldout)
	order.Shuffle(len(holdout), func(i, j int) { holdout[i], holdout[j] = holdout[j], holdout[i] })
	pool, err := makePool(base, cfg.LivePool, rng(cfg.Seed, streamPool))
	if err != nil {
		return err
	}
	// The monotone envelope: inserts only add paths, so a query TRUE on
	// the base stays TRUE and one FALSE on the full graph stays FALSE.
	fullWant := answerAll(full, pool)
	flips := 0
	for i, q := range pool {
		if q.Want != fullWant[i] {
			flips++
		}
	}
	res.notef("graph: WB replica minus %d held-out edges, %d vertices, %d base edges; pool %d queries, %d of them turn TRUE once every held-out edge lands",
		len(holdout), base.NumVertices(), base.NumEdges(), len(pool), flips)
	gate := envelope(pool, fullWant)

	var (
		mu      sync.Mutex
		folds   []server.RebuildResult
		closing bool
	)
	onRebuild := func(r server.RebuildResult) {
		mu.Lock()
		defer mu.Unlock()
		if !closing {
			folds = append(folds, r)
		}
	}
	heap0 := heapMB()
	path := filepath.Join(cfg.Dir, "fold.rlcs")
	s, setupS, err := timeSetups(cfg.Setups, func() (*served, error) {
		ix, st, buildS, err := buildIndex(base, core.Options{K: 2})
		if err != nil {
			return nil, err
		}
		return serve(server.New(ix, server.Options{
			Mutable:          true,
			RebuildPath:      path,
			RebuildThreshold: cfg.LiveThreshold,
			OnRebuild:        onRebuild,
		}), ix, st, buildS)
	}, (*served).close)
	if err != nil {
		return err
	}
	defer func() {
		mu.Lock()
		closing = true
		mu.Unlock()
		s.close()
	}()
	setupMetrics(res, setupS, s.ix, heap0)
	buildMetrics(res, s.build, s.buildS)

	urls := queryURLs(s.ep.base, base, pool)
	url := s.ep.base + "/update"
	updates := make([][]byte, len(holdout))
	for i, e := range holdout {
		updates[i] = fmt.Appendf(nil, `{"s":%d,"l":%d,"t":%d}`, e.Src, e.Label, e.Dst)
	}
	var (
		sent       int // held-out edges sent so far, across windows
		landed     []graph.Edge
		upLat      []float64
		late       []float64
		journalMax int
		// Reads split by the journal length at send, recorded in traced
		// runs from the untimed warm-up (all base) and the untraced window.
		splitMu           sync.Mutex
		overlayUS, baseUS []float64
	)
	writes := true
	load := func(tr *tracer, d time.Duration) (*opStats, []sample) {
		s.sw.trace(tr, cacheCounters(s.srv))
		defer s.sw.trace(nil, nil)
		var clients []*client
		ops, smps := closedClients(cfg, tr, 1, func(c int, r *rand.Rand, smp *sampler) op {
			cl := newClient(tr)
			clients = append(clients, cl)
			z := rand.NewZipf(r, zipfS, 1, uint64(len(pool)-1))
			inner := pointOp(c, cl, urls, z, smp, gate)
			if !cfg.Trace || tr != nil {
				return inner
			}
			return func(seq int64) (reply, error) {
				overlay := s.srv.MutableStats().Journal > 0
				r, err := inner(seq)
				if err == nil && r.bad == "" {
					splitMu.Lock()
					if overlay {
						overlayUS = append(overlayUS, float64(r.lat.Nanoseconds())/1e3)
					} else {
						baseUS = append(baseUS, float64(r.lat.Nanoseconds())/1e3)
					}
					splitMu.Unlock()
				}
				return r, err
			}
		})
		defer closeClients(clients)
		var wst *opStats
		var wg sync.WaitGroup
		if writes {
			wcl := newClient(tr)
			defer wcl.close()
			wg.Add(1)
			go func() {
				defer wg.Done()
				var wlate []float64
				first := sent
				wst, wlate = openLoop(d, cfg.LiveRate, len(holdout)-first, func(i int) error {
					e := first + i
					resp, _, err := wcl.do("POST", url, updates[e], "client.update", reqID(1, int64(e)))
					sent = e + 1
					if err != nil {
						return err
					}
					landed = append(landed, holdout[e])
					journalMax = max(journalMax, parseJournal(resp))
					return nil
				})
				upLat = append(upLat, wst.lat...)
				late = append(late, wlate...)
			}()
		}
		st := closedLoop(d, ops)
		wg.Wait()
		if wst != nil {
			res.count(wst, "writer")
		}
		return st, mergeSamples(smps)
	}
	// The warm-up only reads, so that it fills the cache without moving
	// the write schedule.
	if cfg.Warmup > 0 {
		writes = false
		st, _ := load(nil, cfg.Warmup)
		res.count(st, "warm-up")
		writes = true
	}
	cfg.Warmup = 0 // done above
	w, err := windows(cfg, res, "query", load)
	if err != nil {
		return err
	}

	// Fold whatever the background folder left, then every pool query
	// must be exact against the base plus the edges that landed.
	for {
		r, err := s.srv.Rebuild()
		if err != nil {
			return fmt.Errorf("final fold: %w", err)
		}
		if r.Folded == 0 && s.srv.MutableStats().Journal == 0 {
			break
		}
	}
	if len(landed) != sent {
		res.notef("writer: %d of %d sent edges landed", len(landed), sent)
	}
	final := graph.FromEdges(base.NumVertices(), base.NumLabels(), append(base.Edges(), landed...))
	finalWant := answerAll(final, pool)
	cl := newClient(nil)
	var answers []bool
	for i := range pool {
		body, _, err := cl.do("GET", urls[i], nil, "", 0)
		res.Attempted++
		if err != nil {
			res.Failed++
			continue
		}
		answers, err = parseReachable(body, answers[:0])
		if err != nil || len(answers) != 1 {
			res.Failed++
			continue
		}
		if answers[0] != finalWant[i] {
			q := pool[i]
			res.wrong("after the final fold (%d, %d, %v+) answered %v, oracle %v", q.S, q.T, q.L, answers[0], finalWant[i])
			break
		}
	}
	cl.close()

	mu.Lock()
	var foldS []float64
	edges := 0
	for _, f := range folds {
		res.Attempted++
		if f.Err != nil {
			res.Failed++
			res.notef("fold failed: %v", f.Err)
			continue
		}
		if f.Folded > 0 {
			foldS = append(foldS, f.Duration.Seconds())
			edges += f.Folded
		}
	}
	mu.Unlock()
	res.notef("folds with edges: %d, durations %v s; writes sent %d, landed %d", len(foldS), foldS, sent, len(landed))
	res.notef("update_p50_us: %d writes, timed from their due time; fold_s: median of the folds with edges", len(upLat))
	for _, m := range []metric{{"update_p50_us", "us", median(upLat)}, {"fold_s", "s", median(foldS)}} {
		res.layer(m.Name, m.Unit, m.Value)
		res.show(m.Name, m.Unit, m.Value)
	}
	if !cfg.Trace {
		return nil
	}
	cacheMetrics(res, w.st.cached, w.st.answered, server.CacheStats{}, server.CacheStats{}, true)
	res.layer("server.folds", "count", float64(len(foldS)))
	res.layer("server.fold_edges", "count", float64(edges))
	res.layer("loadgen.late_ms.max", "ms", summarize(late).Max)
	res.layer("dynamic.journal_max", "count", float64(journalMax))
	res.layer("dynamic.overlay_share", "ratio", ratio(float64(len(overlayUS)), float64(len(overlayUS)+len(baseUS))))
	timing(res, "dynamic.overlay_query_us", "us", overlayUS, true)
	timing(res, "dynamic.base_query_us", "us", baseUS, false)
	spanTimes(res, res.Spans.snapshot())
	sweep(res, s.ix, base, pool, w.samples, sweepBatch)
	if err := bundleRoundTrip(res, s.ix, filepath.Join(cfg.Dir, "base.rlcs")); err != nil {
		return err
	}
	return replayFold(res, base, s.ix, landed, filepath.Join(cfg.Dir, "replay.rlcs"))
}

// bundleTimes is one write, open and verify of a v2 bundle, in ms.
type bundleTimes struct{ write, open, verify float64 }

// writeBundle writes ix as a v2 bundle at path, then opens and verifies
// it, timing each phase. The caller owns the returned snapshot.
func writeBundle(ix *core.Index, path string) (*core.Snapshot, bundleTimes, error) {
	var bt bundleTimes
	t := time.Now()
	if err := ix.SaveSnapshotFile(path); err != nil {
		return nil, bt, err
	}
	bt.write = msSince(t)
	t = time.Now()
	snap, err := core.OpenSnapshot(path)
	if err != nil {
		return nil, bt, err
	}
	bt.open = msSince(t)
	t = time.Now()
	if err := snap.Verify(); err != nil {
		snap.Close()
		return nil, bt, err
	}
	bt.verify = msSince(t)
	return snap, bt, nil
}

// snapshotMetrics reports the median of each bundle phase and the size of
// the bundle at path.
func snapshotMetrics(res *result, bt []bundleTimes, path string) {
	var w, o, v []float64
	for _, t := range bt {
		w, o, v = append(w, t.write), append(o, t.open), append(v, t.verify)
	}
	res.layer("snapshot.write_ms", "ms", median(w))
	res.layer("snapshot.open_ms", "ms", median(o))
	res.layer("snapshot.verify_ms", "ms", median(v))
	if fi, err := os.Stat(path); err == nil {
		res.layer("snapshot.bundle_mb", "MB", float64(fi.Size())/(1<<20))
	}
}

// bundleRoundTrip measures the snapshot layer on a workload that serves
// from the heap: one bundle of its index written, opened and verified.
func bundleRoundTrip(res *result, ix *core.Index, path string) error {
	snap, bt, err := writeBundle(ix, path)
	if err != nil {
		return fmt.Errorf("bundle round trip: %w", err)
	}
	snap.Close()
	snapshotMetrics(res, []bundleTimes{bt}, path)
	res.notef("snapshot: one round trip of the served index, outside the serving path")
	return nil
}

// replayFold repeats one fold from outside the server, phase by phase:
// materialize base ∪ journal, build, write the bundle, re-open and verify.
func replayFold(res *result, base *graph.Graph, ix *core.Index, journal []graph.Edge, path string) error {
	d := dynamic.New(base, ix, dynamic.Options{RebuildThreshold: -1})
	if err := d.AddEdges(journal); err != nil {
		return fmt.Errorf("fold replay: %w", err)
	}
	t := time.Now()
	union, _ := d.FoldInput()
	res.layer("server.fold.materialize_ms", "ms", msSince(t))
	opts := ix.BuildOptions()
	opts.K = ix.K()
	t = time.Now()
	folded, err := core.Build(union, opts)
	if err != nil {
		return fmt.Errorf("fold replay: %w", err)
	}
	res.layer("server.fold.build_s", "s", time.Since(t).Seconds())
	snap, bt, err := writeBundle(folded, path)
	if err != nil {
		return fmt.Errorf("fold replay: %w", err)
	}
	snap.Close()
	res.layer("server.fold.write_ms", "ms", bt.write)
	res.layer("server.fold.verify_ms", "ms", bt.open+bt.verify)
	return nil
}

// splitHoldout shuffles g's edges and holds out one in every n; it returns
// the base graph without them and the held-out edges in shuffled order.
func splitHoldout(g *graph.Graph, n int, r *rand.Rand) (*graph.Graph, []graph.Edge) {
	edges := g.Edges()
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	var keep, held []graph.Edge
	for i, e := range edges {
		if i%n == 0 {
			held = append(held, e)
		} else {
			keep = append(keep, e)
		}
	}
	return graph.FromEdges(g.NumVertices(), g.NumLabels(), keep), held
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
