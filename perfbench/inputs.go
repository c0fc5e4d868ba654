package main

import (
	"fmt"
	"math/rand"

	"github.com/g-rpqs/rlc-go/internal/datasets"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// query is one pool entry: an RLC query (S, T, L+) with the answer the
// benchmark's own oracle computed for it.
type query struct {
	S, T graph.Vertex
	L    labelseq.Seq
	Want bool
}

// replica generates the stand-in for a Table III dataset: about scale·|V|
// vertices at the dataset's average degree, capped so that the replica has
// at most maxEdges edges. Like datasets.Replica, it seeds the generator
// from the dataset name alone: the graph is a fixed dataset, and the run's
// seed varies only the queries and the order of writes.
func replica(name string, scale float64, maxEdges int) (*graph.Graph, error) {
	d, err := datasets.ByName(name)
	if err != nil {
		return nil, err
	}
	v := d.ReplicaVertices(scale)
	if byEdges := int(float64(maxEdges) / d.AvgDegree()); byEdges > 0 && v > byEdges {
		v = byEdges
	}
	var seed int64
	for _, c := range d.Name {
		seed = seed*131 + int64(c)
	}
	return d.Generate(v, seed)
}

// oracle answers RLC queries by a plain product BFS over a graph, written
// here independently of the traversal and core packages so that the
// benchmark's ground truth does not share code with what it checks.
type oracle struct {
	g    *graph.Graph
	seen []uint32 // epoch-stamped visited marks over (vertex, phase) states
	mark uint32
	k    int
	q    []int32
	hits []graph.Vertex
}

func newOracle(g *graph.Graph) *oracle { return &oracle{g: g} }

// reach runs one search from s under L+ and returns the vertices s reaches
// along a path whose label sequence is L repeated one or more times. The
// returned slice is reused by the next call; has answers membership for the
// latest search.
func (o *oracle) reach(s graph.Vertex, l labelseq.Seq) []graph.Vertex {
	n, k := o.g.NumVertices(), len(l)
	if len(o.seen) < n*k {
		o.seen = make([]uint32, n*k)
		o.mark = 0
	}
	o.mark++
	o.k = k
	o.hits = o.hits[:0]
	// A state v*k+i means "at v, having read i labels of the current
	// repetition". The start state is not marked: s reaches itself only
	// through a completed cycle.
	o.q = append(o.q[:0], int32(s)*int32(k))
	for head := 0; head < len(o.q); head++ {
		st := o.q[head]
		v, i := graph.Vertex(st/int32(k)), int(st%int32(k))
		dsts, labels := o.g.OutEdges(v)
		next := (i + 1) % k
		for j, w := range dsts {
			if labels[j] != l[i] {
				continue
			}
			ns := int32(w)*int32(k) + int32(next)
			if o.seen[ns] == o.mark {
				continue
			}
			o.seen[ns] = o.mark
			if next == 0 {
				o.hits = append(o.hits, w)
			}
			o.q = append(o.q, ns)
		}
	}
	return o.hits
}

// has reports whether the latest search reached t.
func (o *oracle) has(t graph.Vertex) bool { return o.seen[int(t)*o.k] == o.mark }

// primitiveSeq draws a constraint of exactly length labels that is its own
// minimum repeat (for length 2: two distinct labels), the class a k=2 index
// answers.
func primitiveSeq(r *rand.Rand, numLabels, length int) labelseq.Seq {
	for {
		l := make(labelseq.Seq, length)
		for i := range l {
			l[i] = labelseq.Label(r.Intn(numLabels))
		}
		if labelseq.IsPrimitive(l) {
			return l
		}
	}
}

// poolSources is about how many (source, constraint) searches a pool is
// drawn from: each search contributes up to size/poolSources true and as
// many false targets (at least 2, at most 32), so a large pool amortizes its
// searches while a small one still spans many sources.
const poolSources = 2000

// makePool draws size distinct queries, half true and half false, over
// constraints of length 2. Each draw picks a source and a constraint
// uniformly, runs the oracle once, and takes true targets from the reached
// set and false targets from the rest; sources that reach nothing are
// redrawn. The pool is shuffled so that position carries no information.
func makePool(g *graph.Graph, size int, r *rand.Rand) ([]query, error) {
	o := newOracle(g)
	n := g.NumVertices()
	pool := make([]query, 0, size)
	var trueT []graph.Vertex
	want := size / 2
	nTrue, nFalse := 0, 0
	perSource := min(max(size/poolSources, 2), 32)
	seen := make(map[[3]int32]bool, size)
	add := func(s, t graph.Vertex, l labelseq.Seq, ok bool) bool {
		key := [3]int32{s, t, int32(l[0])<<16 | int32(l[1])}
		if seen[key] {
			return false
		}
		seen[key] = true
		pool = append(pool, query{S: s, T: t, L: l, Want: ok})
		return true
	}
	for attempts := 0; nTrue < want || nFalse < size-want; attempts++ {
		if attempts > 200*size {
			return nil, fmt.Errorf("pool: found %d true and %d false queries after %d searches, want %d each", nTrue, nFalse, attempts, want)
		}
		s := graph.Vertex(r.Intn(n))
		l := primitiveSeq(r, g.NumLabels(), 2)
		hits := o.reach(s, l)
		if len(hits) == 0 || len(hits) == n {
			continue
		}
		trueT = append(trueT[:0], hits...)
		for i := 0; i < len(trueT) && i < perSource && nTrue < want; i++ {
			j := i + r.Intn(len(trueT)-i)
			trueT[i], trueT[j] = trueT[j], trueT[i]
			if add(s, trueT[i], l, true) {
				nTrue++
			}
		}
		for i := 0; i < perSource && nFalse < size-want; i++ {
			t := graph.Vertex(r.Intn(n))
			if !o.has(t) && add(s, t, l, false) {
				nFalse++
			}
		}
	}
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool, nil
}

// answerAll recomputes every pool query's answer on g with the oracle,
// grouping queries by (source, constraint) so that each group costs one
// search. It returns the answers position for position.
func answerAll(g *graph.Graph, pool []query) []bool {
	type group struct {
		s graph.Vertex
		l [2]labelseq.Label
	}
	idx := make(map[group][]int)
	for i, q := range pool {
		k := group{q.S, [2]labelseq.Label{q.L[0], q.L[1]}}
		idx[k] = append(idx[k], i)
	}
	o := newOracle(g)
	out := make([]bool, len(pool))
	for k, members := range idx {
		o.reach(k.s, labelseq.Seq{k.l[0], k.l[1]})
		for _, i := range members {
			out[i] = o.has(pool[i].T)
		}
	}
	return out
}
