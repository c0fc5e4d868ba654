package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/traversal"
)

// tinySizes shrink every workload to a smoke run of about a second.
var tinySizes = sizes{
	Scale:   0.004,
	WBEdges: 3_000,
	LJEdges: 3_000,

	EmbeddedPool: 600, EmbeddedBatch: 16,
	HotPool:  200,
	ColdPool: 2_000, ColdBatch: 8,
	ColdBudget: 30_000,

	LivePool:      200,
	LiveHoldout:   10,
	LiveRate:      400,
	LiveThreshold: 20,

	Setups:      2,
	Slices:      1,
	Warmup:      50 * time.Millisecond,
	SampleEvery: 2,
	SampleMax:   256,
}

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so summarize must sort
	}
	return xs
}

func TestSummarizeP99NeedsTenBeyond(t *testing.T) {
	s := summarize(ascending(1000))
	if s.N != 1000 || s.P50 != 500 || s.Max != 1000 {
		t.Fatalf("summarize(1..1000) = %+v, want N 1000, P50 500, Max 1000", s)
	}
	if !s.HasP99 || s.P99 != 990 || beyond99(1000) != 10 {
		t.Fatalf("summarize(1..1000) p99 = %v (reported %v), %d beyond; want 990 with 10 beyond", s.P99, s.HasP99, beyond99(1000))
	}
	if s := summarize(ascending(999)); s.HasP99 || s.P99 != 0 {
		t.Fatalf("999 samples leave %d beyond the p99, yet it was reported: %+v", beyond99(999), s)
	}
	if s := summarize(nil); s.N != 0 || s.HasP99 {
		t.Fatalf("summarize(nil) = %+v", s)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median(3, 1, 2) = %v, want 2", got)
	}
}

func TestTimingWithholdsShortTail(t *testing.T) {
	res := &result{}
	timing(res, "x_us", "us", ascending(500), true)
	if len(res.Layers) != 2 || res.Layers[0].Value != 250 || res.Layers[1].Value != 0 {
		t.Fatalf("timing over 500 samples reported %+v, want p50 250 and p99 withheld as 0", res.Layers)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "client", Parent: -1, Start: 0, End: 100},
		{Name: "handler", Parent: 0, Start: 10, End: 40},
		{Name: "handler", Parent: 0, Start: 30, End: 60},  // overlaps the first
		{Name: "handler", Parent: 0, Start: 90, End: 120}, // clipped at 100
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	// Children cover [10, 60) and [90, 100): 60 of the client's 100 ns.
	if c := got["client"]; c.Count != 1 || c.SelfMS*1e6 != 40 {
		t.Fatalf("client self time = %v ns, want 40", c.SelfMS*1e6)
	}
	if h := got["handler"]; h.Count != 3 || h.SelfMS*1e6 != 90 {
		t.Fatalf("handler self time = %v ns over %d spans, want 90 over 3", h.SelfMS*1e6, h.Count)
	}
}

func TestOracleMatchesTraversal(t *testing.T) {
	g, err := replica("WB", 0.004, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := makePool(g, 400, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	nTrue := 0
	for _, q := range pool {
		got, err := traversal.EvalRLC(g, q.S, q.T, q.L)
		if err != nil {
			t.Fatal(err)
		}
		if got != q.Want {
			t.Fatalf("oracle says %v for (%d, %d, %v+), traversal %v", q.Want, q.S, q.T, q.L, got)
		}
		if q.Want {
			nTrue++
		}
	}
	if nTrue != len(pool)/2 {
		t.Fatalf("pool has %d true queries of %d, want half", nTrue, len(pool))
	}
	for i, want := range answerAll(g, pool) {
		if want != pool[i].Want {
			t.Fatalf("answerAll disagrees with makePool at %d", i)
		}
	}
}

func TestEnvelopeRejectsAnswersOutsideIt(t *testing.T) {
	pool := []query{{Want: true}, {Want: false}, {Want: false}}
	full := []bool{true, true, false}
	gate := envelope(pool, full)
	for _, c := range []struct {
		i    int32
		got  bool
		pass bool
	}{
		{0, true, true}, {0, false, false}, // TRUE on the base stays TRUE
		{1, true, true}, {1, false, true}, // turns TRUE once its edges land
		{2, false, true}, {2, true, false}, // FALSE on the full graph stays FALSE
	} {
		if bad := gate(c.i, c.got); (bad == "") != c.pass {
			t.Errorf("envelope(query %d, answer %v) = %q, want pass %v", c.i, c.got, bad, c.pass)
		}
	}
}

func TestSeededWrongAnswerFailsTheRun(t *testing.T) {
	pool := []query{{Want: true}, {Want: false}}
	gate := envelope(pool, []bool{true, false})
	// A client that answers query 1 TRUE: FALSE on the full graph, so the
	// answer is wrong whatever edges landed.
	wrong := func(seq int64) (reply, error) {
		if bad := gate(int32(seq%2), true); bad != "" {
			return reply{bad: bad}, nil
		}
		return reply{n: 1, lat: time.Microsecond}, nil
	}
	res := &result{Correct: true}
	res.count(closedLoop(20*time.Millisecond, []op{wrong}), "window")
	if res.Correct {
		t.Fatal("a wrong answer left the run correct")
	}
	if res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("attempted %d, failed %d: a wrong answer is not a transport failure", res.Attempted, res.Failed)
	}
}

func TestParseReachable(t *testing.T) {
	got, err := parseReachable([]byte(`{"results":[{"reachable":true},{"reachable":false}],"count":2}`), nil)
	if err != nil || len(got) != 2 || !got[0] || got[1] {
		t.Fatalf("parseReachable = %v, %v", got, err)
	}
	if _, err := parseReachable([]byte(`{"results":[{"reachable":false,"error":"x","code":"y"}]}`), nil); err == nil {
		t.Fatal("a reply carrying an error parsed cleanly")
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	st, late := openLoop(time.Second, 100, 5, func(i int) error {
		if i == 0 {
			time.Sleep(35 * time.Millisecond) // stalls the next three calls
		}
		return nil
	})
	if st.attempted != 5 || len(late) != 5 {
		t.Fatalf("attempted %d with %d lateness samples, want 5", st.attempted, len(late))
	}
	if late[1] < 20 || st.lat[1] < 20e3 {
		t.Fatalf("call 1 was due 10 ms in, sent after a 35 ms stall: late %.1f ms, latency %.1f us", late[1], st.lat[1])
	}
}

func TestSplitHoldout(t *testing.T) {
	g := graph.FromEdges(4, 2, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2, Label: 1}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0, Label: 1}, {Src: 0, Dst: 2, Label: 1}})
	base, held := splitHoldout(g, 2, rand.New(rand.NewSource(1)))
	if len(held) != 3 || base.NumEdges() != 2 {
		t.Fatalf("held out %d, kept %d of 5 edges, want 3 and 2", len(held), base.NumEdges())
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	same := func(what string, a, b []struct{ Name, Unit string }) {
		if len(a) != len(b) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s %d: BENCHMARK.json has %v, the program %v", what, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that each run is correct and reports its full metric set.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs build indexes")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{sizes: tinySizes, Seed: 3, Window: 300 * time.Millisecond, Trace: traced, Out: t.TempDir()}
			res, err := runOne(w, cfg)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s (traced %v): correct %v, %d of %d failed; notes %v", w.Name, traced, res.Correct, res.Failed, res.Attempted, res.Notes)
			}
			want, got := len(endToEndMetrics), len(res.EndToEnd)
			if traced {
				want, got = len(layerMetrics), len(res.Layers)
			}
			if got != want {
				t.Fatalf("%s (traced %v): %d metrics, want %d", w.Name, traced, got, want)
			}
		}
	}
}
