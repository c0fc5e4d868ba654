package main

import (
	"context"
	"fmt"
	"time"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/server"
	"github.com/g-rpqs/rlc-go/internal/traversal"
)

// layerMetrics is the fixed set of per-layer metrics every traced run
// reports, in report order. A workload that does not exercise a layer
// reports its metrics as 0 and says so in the report.
var layerMetrics = []struct{ Name, Unit string }{
	{"read_qps", "1/s"},
	{"read_p99_us", "us"},
	{"core.build_s", "s"},
	{"core.kbs_nodes", "count"},
	{"core.build_waste_ratio", "ratio"},
	{"core.build_rerun", "count"},
	{"core.prune_ratio", "ratio"},
	{"core.query_ns.p50", "ns"},
	{"core.query_ns.p99", "ns"},
	{"core.batch_us.p50", "us"},
	{"core.tier.exact_share", "ratio"},
	{"core.tier.definite_share", "ratio"},
	{"core.tier.maybe_share", "ratio"},
	{"core.tier.maybe_wasted_ratio", "ratio"},
	{"core.tier.maybe_us.p50", "us"},
	{"core.tier.maybe_us.p99", "us"},
	{"core.tier.definite_ns.p50", "ns"},
	{"traversal.bibfs_us.p50", "us"},
	{"traversal.bibfs_us.p99", "us"},
	{"core.speedup_vs_bibfs", "ratio"},
	{"server.cache.hit_ratio", "ratio"},
	{"server.cache.evictions", "count"},
	{"server.cache.coalesced", "count"},
	{"server.answer_ns.hit.p50", "ns"},
	{"server.answer_ns.miss.p50", "ns"},
	{"server.handler_us.p50", "us"},
	{"server.handler_us.p99", "us"},
	{"server.wire_us.p50", "us"},
	{"server.batch_codec_us.p50", "us"},
	{"server.update_handler_us.p50", "us"},
	{"update_p50_us", "us"},
	{"fold_s", "s"},
	{"server.folds", "count"},
	{"server.fold_edges", "count"},
	{"server.fold.materialize_ms", "ms"},
	{"server.fold.build_s", "s"},
	{"server.fold.write_ms", "ms"},
	{"server.fold.verify_ms", "ms"},
	{"dynamic.journal_max", "count"},
	{"dynamic.overlay_share", "ratio"},
	{"dynamic.overlay_query_us.p50", "us"},
	{"dynamic.overlay_query_us.p99", "us"},
	{"dynamic.base_query_us.p50", "us"},
	{"snapshot.write_ms", "ms"},
	{"snapshot.open_ms", "ms"},
	{"snapshot.verify_ms", "ms"},
	{"snapshot.bundle_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"loadgen.late_ms.max", "ms"},
	{"loadgen.failed_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// endToEndMetrics is the fixed set every untraced run reports.
var endToEndMetrics = []struct{ Name, Unit string }{
	{"read_p50_us", "us"},
	{"setup_s", "s"},
	{"index_mb", "MB"},
	{"heap_mb", "MB"},
}

// sweep replays the sampled requests of a traced window directly against
// each layer's public calls, one call at a time after the load has
// stopped, so that the index's tier counters move only for the call being
// timed. Every answer is checked against the oracle's, and every span
// carries its sampled request's id. With batch > 0 the samples also go
// through QueryBatchInto: a sample of a batch request as the batch it
// was, samples of point requests in chunks of batch queries.
func sweep(res *result, ix *core.Index, g *graph.Graph, pool []query, samples []sample, batch int) {
	tr := res.Spans
	type probe struct {
		req int64
		i   int32
	}
	var probes []probe
	for _, s := range samples {
		for _, i := range s.Idx {
			probes = append(probes, probe{s.Req, i})
		}
	}
	if len(probes) == 0 {
		res.wrong("sweep: the traced window sampled no requests")
		return
	}
	check := func(layer string, i int32, got bool, err error) {
		if err != nil {
			res.wrong("%s: query %v: %v", layer, pool[i], err)
		} else if q := pool[i]; got != q.Want {
			res.wrong("%s: (%d, %d, %v+) answered %v, oracle %v", layer, q.S, q.T, q.L, got, q.Want)
		}
	}

	// Index.Query, classified by the tier counters it moved.
	var all, maybeUS, definiteNS []float64
	var exact, definite, maybe, maybeFalse int
	var coreTotal time.Duration
	for _, p := range probes {
		q := pool[p.i]
		t0 := ix.TierStats()
		start := time.Now()
		got, err := ix.Query(q.S, q.T, q.L)
		d := time.Since(start)
		t1 := ix.TierStats()
		check("core.query", p.i, got, err)
		coreTotal += d
		all = append(all, float64(d.Nanoseconds()))
		attrs := map[string]int64{
			"exact":    t1.ExactHits - t0.ExactHits,
			"definite": t1.FilterDefinite - t0.FilterDefinite,
			"maybe":    t1.FilterMaybe - t0.FilterMaybe,
		}
		tr.record("core.query", p.req, -1, start, d, attrs)
		switch {
		case attrs["maybe"] > 0:
			maybe++
			maybeUS = append(maybeUS, float64(d.Nanoseconds())/1e3)
			if !got {
				maybeFalse++
			}
		case attrs["definite"] > 0:
			definite++
			definiteNS = append(definiteNS, float64(d.Nanoseconds()))
		default:
			exact++
		}
	}
	timing(res, "core.query_ns", "ns", all, true)
	n := float64(len(probes))
	res.layer("core.tier.exact_share", "ratio", float64(exact)/n)
	if ix.Tiered() {
		res.layer("core.tier.definite_share", "ratio", float64(definite)/n)
		res.layer("core.tier.maybe_share", "ratio", float64(maybe)/n)
		res.layer("core.tier.maybe_wasted_ratio", "ratio", ratio(float64(maybeFalse), float64(maybe)))
		timing(res, "core.tier.maybe_us", "us", maybeUS, true)
		timing(res, "core.tier.definite_ns", "ns", definiteNS, false)
	} else {
		res.notef("core.tier: the index is not tiered; every query is decided on complete lists")
	}

	// Online traversal on the same sample: the paper's baseline.
	var bibfs []float64
	var bibfsTotal time.Duration
	for _, p := range probes {
		q := pool[p.i]
		start := time.Now()
		got, err := traversal.EvalRLCBi(g, q.S, q.T, q.L)
		d := time.Since(start)
		check("traversal.bibfs", p.i, got, err)
		bibfsTotal += d
		bibfs = append(bibfs, float64(d.Nanoseconds())/1e3)
		tr.record("traversal.bibfs", p.req, -1, start, d, nil)
	}
	timing(res, "traversal.bibfs_us", "us", bibfs, true)
	res.layer("core.speedup_vs_bibfs", "ratio", ratio(bibfsTotal.Seconds(), coreTotal.Seconds()))

	// The serving layer without HTTP, on a fresh server over the same
	// index: each query's first answer is computed, its second is a cache
	// hit (repeated sample queries hit on their first call too).
	srv := server.New(ix, server.Options{})
	var hitNS, missNS []float64
	for _, p := range probes {
		q := pool[p.i]
		for range 2 {
			start := time.Now()
			got, cached, err := srv.AnswerRLC(context.Background(), q.S, q.T, q.L)
			d := time.Since(start)
			check("server.answer", p.i, got, err)
			tr.record("server.answer", p.req, -1, start, d, map[string]int64{"cached": b2i(cached)})
			if cached {
				hitNS = append(hitNS, float64(d.Nanoseconds()))
			} else {
				missNS = append(missNS, float64(d.Nanoseconds()))
			}
		}
	}
	srv.Close()
	timing(res, "server.answer_ns.hit", "ns", hitNS, false)
	timing(res, "server.answer_ns.miss", "ns", missNS, false)

	if batch <= 0 {
		return
	}
	// QueryBatchInto as the batch handler calls it.
	var batchUS []float64
	var qs []core.BatchQuery
	var out []core.BatchResult
	run := func(req int64, idx []int32) {
		qs = qs[:0]
		for _, i := range idx {
			q := pool[i]
			qs = append(qs, core.BatchQuery{S: q.S, T: q.T, L: q.L})
		}
		start := time.Now()
		out = ix.QueryBatchInto(qs, 0, out)
		d := time.Since(start)
		tr.record("core.batch", req, -1, start, d, nil)
		batchUS = append(batchUS, float64(d.Nanoseconds())/1e3)
		for j, r := range out {
			check("core.batch", idx[j], r.Reachable, r.Err)
		}
	}
	if len(samples[0].Idx) > 1 {
		for _, s := range samples {
			run(s.Req, s.Idx)
		}
	} else {
		for lo := 0; lo+batch <= len(probes); lo += batch {
			idx := make([]int32, batch)
			for j := range idx {
				idx[j] = probes[lo+j].i
			}
			run(probes[lo].req, idx)
		}
	}
	timing(res, "core.batch_us", "us", batchUS, false)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// spanTimes reports, from a traced window's spans, the handler durations,
// the wire time (client span minus its handler child) and, for batch
// requests replayed by sweep, the handler time outside QueryBatchInto.
func spanTimes(res *result, spans []span) {
	var handler, update, wire, codec []float64
	coreBatch := map[int64]int64{}
	for _, s := range spans {
		if s.Name == "core.batch" && s.End >= 0 {
			coreBatch[s.Req] = s.End - s.Start
		}
	}
	for _, s := range spans {
		if s.End < 0 || s.Parent < 0 {
			continue
		}
		d := s.End - s.Start
		p := spans[s.Parent]
		switch s.Name {
		case "server.handler":
			handler = append(handler, float64(d)/1e3)
			if p.End >= 0 {
				wire = append(wire, float64(p.End-p.Start-d)/1e3)
			}
			if cb, ok := coreBatch[s.Req]; ok && p.Name == "client.batch" {
				codec = append(codec, float64(d-cb)/1e3)
			}
		case "server.update_handler":
			update = append(update, float64(d)/1e3)
		}
	}
	if len(handler) > 0 {
		timing(res, "server.handler_us", "us", handler, true)
		timing(res, "server.wire_us", "us", wire, false)
	}
	if len(codec) > 0 {
		timing(res, "server.batch_codec_us", "us", codec, false)
	}
	if len(update) > 0 {
		timing(res, "server.update_handler_us", "us", update, false)
		res.notef("server.update_handler_us: no p99 while a window holds fewer than %d writes", 100*minBeyond)
	}
}

// cacheMetrics reports the result cache over a window: the hit ratio as
// the clients saw it (each reply says how many of its answers came from
// the cache), and the eviction and coalescing counters' deltas. A mutable
// server starts a fresh cache at every fold, so there (swapped) the
// counters are not comparable across the window and are left out.
func cacheMetrics(res *result, hits, lookups int64, before, after server.CacheStats, swapped bool) {
	res.layer("server.cache.hit_ratio", "ratio", ratio(float64(hits), float64(lookups)))
	res.notef("server.cache: %d of %d answers served from the cache", hits, lookups)
	if swapped {
		res.notef("server.cache.evictions, .coalesced: each fold starts a fresh cache, so window deltas are not reported")
		return
	}
	res.layer("server.cache.evictions", "count", float64(after.Evictions-before.Evictions))
	res.layer("server.cache.coalesced", "count", float64(after.Coalesced-before.Coalesced))
	res.notef("server.cache: %d resident of %d", after.Entries, after.Capacity)
}

// cacheCounters reads the cache counters for the handler spans.
func cacheCounters(srv *server.Server) func() map[string]int64 {
	return func() map[string]int64 {
		cs := srv.CacheStats()
		return map[string]int64{"hits": cs.Hits, "misses": cs.Misses, "coalesced": cs.Coalesced}
	}
}

// finishLayers orders the per-layer metrics as layerMetrics lists them and
// reports every metric the workload did not exercise as 0.
func finishLayers(res *result) error {
	got := map[string]metric{}
	for _, m := range res.Layers {
		if _, dup := got[m.Name]; dup {
			return fmt.Errorf("per-layer metric %s reported twice", m.Name)
		}
		got[m.Name] = m
	}
	var out []metric
	var idle []string
	for _, lm := range layerMetrics {
		m, ok := got[lm.Name]
		if !ok {
			m = metric{lm.Name, lm.Unit, 0}
			idle = append(idle, lm.Name)
		} else if m.Unit != lm.Unit {
			return fmt.Errorf("per-layer metric %s in %s, want %s", m.Name, m.Unit, lm.Unit)
		}
		delete(got, lm.Name)
		out = append(out, m)
	}
	for name := range got {
		return fmt.Errorf("per-layer metric %s is not in the fixed set", name)
	}
	res.Layers = out
	if len(idle) > 0 {
		res.notef("not exercised by %s (reported as 0): %v", res.Workload, idle)
	}
	return nil
}

// finishEndToEnd checks that a run reported exactly the fixed end-to-end
// set and orders it.
func finishEndToEnd(res *result) error {
	got := map[string]metric{}
	for _, m := range res.EndToEnd {
		got[m.Name] = m
	}
	var out []metric
	for _, em := range endToEndMetrics {
		m, ok := got[em.Name]
		if !ok {
			return fmt.Errorf("end-to-end metric %s was not measured", em.Name)
		}
		if m.Value <= 0 {
			return fmt.Errorf("end-to-end metric %s = %v, want > 0", em.Name, m.Value)
		}
		out = append(out, m)
	}
	if len(got) != len(out) {
		return fmt.Errorf("%d end-to-end metrics reported, want %d", len(got), len(out))
	}
	res.EndToEnd = out
	return nil
}
