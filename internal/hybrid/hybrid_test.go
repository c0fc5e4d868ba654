package hybrid

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/traversal"
)

func randomGraph(r *rand.Rand, n, numLabels, edges int) *graph.Graph {
	b := graph.NewBuilder(n, numLabels)
	for i := 0; i < edges; i++ {
		b.AddEdge(graph.Vertex(r.Intn(n)), graph.Label(r.Intn(numLabels)), graph.Vertex(r.Intn(n)))
	}
	return b.Build()
}

func TestHybridQ4Basics(t *testing.T) {
	// Chain 0 -a-> 1 -a-> 2 -b-> 3.
	g := graph.FromEdges(4, 2, []graph.Edge{
		{Src: 0, Dst: 1, Label: 0}, {Src: 1, Dst: 2, Label: 0}, {Src: 2, Dst: 3, Label: 1},
	})
	ix, err := core.Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := New(ix)
	q4 := automaton.ConcatPlus(labelseq.Seq{0}, labelseq.Seq{1})
	ok, err := h.Eval(0, 3, q4)
	if err != nil || !ok {
		t.Errorf("a+ b+ from 0 to 3 = %v, %v; want true", ok, err)
	}
	ok, err = h.Eval(0, 2, q4)
	if err != nil || ok {
		t.Errorf("a+ b+ from 0 to 2 = %v, %v; want false", ok, err)
	}
	// Single segment goes through the index directly.
	ok, err = h.Eval(0, 2, automaton.Plus(labelseq.Seq{0}))
	if err != nil || !ok {
		t.Errorf("a+ from 0 to 2 = %v, %v; want true", ok, err)
	}
}

// TestHybridAgreesWithTraversal: the hybrid evaluator and plain NFA BFS
// must agree on single-, two- and three-segment plus expressions.
func TestHybridAgreesWithTraversal(t *testing.T) {
	r := rand.New(rand.NewSource(400))
	exprs := []automaton.Expr{
		automaton.Plus(labelseq.Seq{0}),
		automaton.Plus(labelseq.Seq{0, 1}),
		automaton.ConcatPlus(labelseq.Seq{0}, labelseq.Seq{1}),
		automaton.ConcatPlus(labelseq.Seq{1}, labelseq.Seq{0}),
		automaton.ConcatPlus(labelseq.Seq{0, 1}, labelseq.Seq{1}),
		automaton.ConcatPlus(labelseq.Seq{0}, labelseq.Seq{1}, labelseq.Seq{0}),
	}
	for trial := 0; trial < 15; trial++ {
		n := 4 + r.Intn(10)
		g := randomGraph(r, n, 2, 3*n)
		ix, err := core.Build(g, core.Options{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		h := New(ix)
		ev := traversal.NewEvaluator(g)
		for _, expr := range exprs {
			nfa, err := automaton.Compile(expr, g.NumLabels())
			if err != nil {
				t.Fatal(err)
			}
			for s := graph.Vertex(0); int(s) < n; s++ {
				for tt := graph.Vertex(0); int(tt) < n; tt++ {
					want := ev.BFS(s, tt, nfa)
					got, err := h.Eval(s, tt, expr)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("trial %d hybrid(%d,%d,%v) = %v, BFS = %v\nedges %v",
							trial, s, tt, expr, got, want, g.Edges())
					}
				}
			}
		}
	}
}

// TestHybridFallsBackBeyondK: a constraint longer than the index's k must
// still be answered (via online traversal).
func TestHybridFallsBackBeyondK(t *testing.T) {
	g := graph.FromEdges(4, 3, []graph.Edge{
		{Src: 0, Dst: 1, Label: 0}, {Src: 1, Dst: 2, Label: 1}, {Src: 2, Dst: 3, Label: 2},
	})
	ix, err := core.Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := New(ix)
	ok, err := h.Eval(0, 3, automaton.Plus(labelseq.Seq{0, 1, 2}))
	if err != nil || !ok {
		t.Errorf("(a b c)+ beyond k = %v, %v; want true via fallback", ok, err)
	}
}

func TestHybridErrors(t *testing.T) {
	ix, err := core.Build(graph.Fig2(), core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := New(ix)
	if _, err := h.Eval(0, 1, automaton.Expr{}); err == nil {
		t.Error("empty expression must fail")
	}
	noPlus := automaton.Expr{Segments: []automaton.Segment{{Labels: labelseq.Seq{0}}}}
	if _, err := h.Eval(0, 1, noPlus); err == nil {
		t.Error("plus-less segment must fail")
	}
}

// TestHybridFallbackSegmentReusesEvaluator pins that a final segment outside
// the index class (three labels at k = 2) costs no per-query visited marks:
// a warm EvalCtx of a two-segment expression allocates well under |V|·4
// bytes, where a fresh traversal evaluator per query would allocate
// |V|·states·4 bytes for its marks alone.
func TestHybridFallbackSegmentReusesEvaluator(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	n := 20000
	g := randomGraph(r, n, 3, 2*n)
	ix, err := core.Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := New(ix)
	expr := automaton.ConcatPlus(labelseq.Seq{0}, labelseq.Seq{0, 1, 2})
	ctx := context.Background()
	pairs := make([][2]graph.Vertex, 16)
	for i := range pairs {
		pairs[i] = [2]graph.Vertex{graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n))}
	}
	run := func() {
		for _, p := range pairs {
			if _, err := h.EvalCtx(ctx, p[0], p[1], expr); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm every evaluator to its high-water mark
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 4
	for i := 0; i < rounds; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / uint64(rounds*len(pairs))
	if perQuery >= uint64(n)*4 {
		t.Fatalf("warm EvalCtx allocates %d bytes per query, want < |V|·4 = %d", perQuery, n*4)
	}
}
