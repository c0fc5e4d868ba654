package traversal

import (
	"math/bits"
	"sort"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// node is a product-graph node: graph vertex x NFA state.
type node struct {
	v graph.Vertex
	q automaton.State
}

// Evaluator evaluates path queries by online traversal. It is not safe for
// concurrent use; create one per goroutine.
type Evaluator struct {
	g *graph.Graph

	// Epoch-stamped visited marks, indexed v*numStates+q. A slot is
	// visited in the current query iff it holds the current stamp. Only
	// BiBFS uses bwdSeen, so it grows on the first BiBFS, not before.
	stamp   uint32
	fwdSeen []uint32
	bwdSeen []uint32

	// Frontier buffers, reused across levels and queries: the forward
	// pair serves BFS and BiBFS, the backward pair BiBFS.
	frontier    []node
	next        []node
	bwdFrontier []node
	bwdNext     []node

	// LastVisited reports how many product nodes the previous call
	// explored — useful when comparing traversal effort to index lookups.
	LastVisited int
}

// NewEvaluator returns an evaluator over g.
func NewEvaluator(g *graph.Graph) *Evaluator {
	return &Evaluator{g: g}
}

func (e *Evaluator) reset(numStates int, needBwd bool) {
	need := e.g.NumVertices() * numStates
	if len(e.fwdSeen) < need {
		// Restarting the stamp would revive old backward marks, so the
		// backward array is dropped and regrown zeroed on demand.
		e.fwdSeen = make([]uint32, need)
		e.bwdSeen = nil
		e.stamp = 0
	}
	if needBwd && len(e.bwdSeen) < need {
		e.bwdSeen = make([]uint32, need) // zero never equals a live stamp
	}
	e.stamp++
	if e.stamp == 0 { // wrapped: clear and restart
		clear(e.fwdSeen)
		clear(e.bwdSeen)
		e.stamp = 1
	}
	e.LastVisited = 0
}

// BFS reports whether some path from s to t matches the automaton, using a
// forward NFA-guided breadth-first search.
func (e *Evaluator) BFS(s, t graph.Vertex, nfa *automaton.NFA) bool {
	ns := nfa.NumStates()
	e.reset(ns, false)
	accept := nfa.Accept()

	e.frontier = e.frontier[:0]
	e.mark(e.fwdSeen, ns, node{s, 0})
	e.frontier = append(e.frontier, node{s, 0})

	for len(e.frontier) > 0 {
		e.next = e.next[:0]
		for _, nd := range e.frontier {
			dsts, lbls := e.g.OutEdges(nd.v)
			for i := range dsts {
				targets := nfa.Step(nd.q, lbls[i])
				for m := targets; m != 0; m &= m - 1 {
					q := automaton.State(trailing(m))
					nn := node{dsts[i], q}
					if e.seen(e.fwdSeen, ns, nn) {
						continue
					}
					if nn.v == t && q == accept {
						return true
					}
					e.mark(e.fwdSeen, ns, nn)
					e.next = append(e.next, nn)
				}
			}
		}
		e.frontier, e.next = e.next, e.frontier
	}
	return false
}

// BiBFS reports whether some path from s to t matches the automaton, using
// a bidirectional NFA-guided breadth-first search that always expands the
// smaller frontier.
func (e *Evaluator) BiBFS(s, t graph.Vertex, nfa *automaton.NFA) bool {
	ns := nfa.NumStates()
	e.reset(ns, true)
	rev := nfa.Reverse()

	// Backward frontier nodes and marks both use ORIGINAL state ids, so a
	// meet is a simple same-slot test; expandBackward translates to the
	// reverse automaton's ids only when stepping.
	e.frontier = append(e.frontier[:0], node{s, 0})
	e.bwdFrontier = append(e.bwdFrontier[:0], node{t, nfa.Accept()})
	e.mark(e.fwdSeen, ns, node{s, 0})
	e.mark(e.bwdSeen, ns, node{t, nfa.Accept()})

	// The start product node can itself be a meet only if s == t and the
	// automaton accepts the empty word — our expressions never do (every
	// segment consumes at least one label), so no special case is needed.

	for len(e.frontier) > 0 && len(e.bwdFrontier) > 0 {
		if len(e.frontier) <= len(e.bwdFrontier) {
			if e.expandForward(nfa, ns) {
				return true
			}
		} else if e.expandBackward(nfa, rev, ns) {
			return true
		}
	}
	return false
}

// expandForward advances the forward frontier by one level, reporting
// whether it met the backward search.
func (e *Evaluator) expandForward(nfa *automaton.NFA, ns int) bool {
	e.next = e.next[:0]
	for _, nd := range e.frontier {
		dsts, lbls := e.g.OutEdges(nd.v)
		for i := range dsts {
			targets := nfa.Step(nd.q, lbls[i])
			for m := targets; m != 0; m &= m - 1 {
				nn := node{dsts[i], automaton.State(trailing(m))}
				if e.seen(e.fwdSeen, ns, nn) {
					continue
				}
				if e.seen(e.bwdSeen, ns, nn) {
					return true
				}
				e.mark(e.fwdSeen, ns, nn)
				e.next = append(e.next, nn)
			}
		}
	}
	e.frontier, e.next = e.next, e.frontier
	return false
}

// expandBackward is expandForward's mirror over in-edges and the reverse
// automaton.
func (e *Evaluator) expandBackward(nfa *automaton.NFA, rev *automaton.NFA, ns int) bool {
	e.bwdNext = e.bwdNext[:0]
	for _, nd := range e.bwdFrontier {
		// nd.q is an ORIGINAL state id; the reverse automaton steps on
		// the corresponding reverse id.
		rq := nfa.ReverseState(nd.q)
		srcs, lbls := e.g.InEdges(nd.v)
		for i := range srcs {
			targets := rev.Step(rq, lbls[i])
			for m := targets; m != 0; m &= m - 1 {
				orig := nfa.ReverseState(automaton.State(trailing(m)))
				nn := node{srcs[i], orig}
				if e.seen(e.bwdSeen, ns, nn) {
					continue
				}
				if e.seen(e.fwdSeen, ns, nn) {
					return true
				}
				e.mark(e.bwdSeen, ns, nn)
				e.bwdNext = append(e.bwdNext, nn)
			}
		}
	}
	e.bwdFrontier, e.bwdNext = e.bwdNext, e.bwdFrontier
	return false
}

// DFS reports whether some path from s to t matches the automaton, using a
// depth-first product search. The paper notes DFS as the BFS alternative
// with the same complexity but worse practical behaviour than BiBFS
// (Section VI-a); it is provided for completeness and as another oracle for
// the test suite.
func (e *Evaluator) DFS(s, t graph.Vertex, nfa *automaton.NFA) bool {
	ns := nfa.NumStates()
	e.reset(ns, false)
	accept := nfa.Accept()

	stack := e.frontier[:0]
	start := node{s, 0}
	e.mark(e.fwdSeen, ns, start)
	stack = append(stack, start)
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		dsts, lbls := e.g.OutEdges(nd.v)
		for i := range dsts {
			targets := nfa.Step(nd.q, lbls[i])
			for m := targets; m != 0; m &= m - 1 {
				q := automaton.State(trailing(m))
				nn := node{dsts[i], q}
				if e.seen(e.fwdSeen, ns, nn) {
					continue
				}
				if nn.v == t && q == accept {
					e.frontier = stack
					return true
				}
				e.mark(e.fwdSeen, ns, nn)
				stack = append(stack, nn)
			}
		}
	}
	e.frontier = stack
	return false
}

// ReachableFrom returns every vertex t such that some path from s to t
// matches the automaton, in ascending vertex order. Workload generation uses
// it to mine true queries.
func (e *Evaluator) ReachableFrom(s graph.Vertex, nfa *automaton.NFA) []graph.Vertex {
	return e.ReachableFromMany([]graph.Vertex{s}, nfa)
}

// ReachableFromMany is the multi-source variant of ReachableFrom: vertices
// reachable from ANY of the starts by an accepted path, ascending. The
// hybrid evaluator uses it to push whole frontiers through one constraint
// segment.
func (e *Evaluator) ReachableFromMany(starts []graph.Vertex, nfa *automaton.NFA) []graph.Vertex {
	var out []graph.Vertex
	e.ReachableFromManyFunc(starts, nfa, func(v graph.Vertex) bool {
		out = append(out, v)
		return false
	})
	sortVertices(out)
	return out
}

// ReachableFromManyFunc streams the accepting vertices to visit as the
// search discovers them (each vertex once, in discovery order). A true
// return from visit stops the search early — the hook that lets index-
// assisted evaluation of extended queries exit on the first hit.
func (e *Evaluator) ReachableFromManyFunc(starts []graph.Vertex, nfa *automaton.NFA, visit func(graph.Vertex) bool) {
	e.closureFunc(starts, nfa, false, visit)
}

// ReachableIntoManyFunc is the backward mirror: it streams every vertex x
// such that some accepted path leads from x into one of the targets. The
// hybrid evaluator expands the rarer segment of a two-segment query
// backward with it.
func (e *Evaluator) ReachableIntoManyFunc(targets []graph.Vertex, nfa *automaton.NFA, visit func(graph.Vertex) bool) {
	e.closureFunc(targets, nfa, true, visit)
}

func (e *Evaluator) closureFunc(starts []graph.Vertex, nfa *automaton.NFA, backward bool, visit func(graph.Vertex) bool) {
	ns := nfa.NumStates()
	e.reset(ns, false)
	step := nfa
	if backward {
		step = nfa.Reverse()
	}
	accept := step.Accept()

	e.frontier = e.frontier[:0]
	for _, s := range starts {
		nd := node{s, 0}
		if e.seen(e.fwdSeen, ns, nd) {
			continue
		}
		e.mark(e.fwdSeen, ns, nd)
		e.frontier = append(e.frontier, nd)
	}
	for len(e.frontier) > 0 {
		e.next = e.next[:0]
		for _, nd := range e.frontier {
			var nbrs []graph.Vertex
			var lbls []labelseq.Label
			if backward {
				nbrs, lbls = e.g.InEdges(nd.v)
			} else {
				nbrs, lbls = e.g.OutEdges(nd.v)
			}
			for i := range nbrs {
				targets := step.Step(nd.q, lbls[i])
				for m := targets; m != 0; m &= m - 1 {
					q := automaton.State(trailing(m))
					nn := node{nbrs[i], q}
					if e.seen(e.fwdSeen, ns, nn) {
						continue
					}
					e.mark(e.fwdSeen, ns, nn)
					// The NFA has one accept state and (v, accept) is
					// marked above, so each vertex is visited at most once.
					if q == accept && visit(nn.v) {
						return
					}
					e.next = append(e.next, nn)
				}
			}
		}
		e.frontier, e.next = e.next, e.frontier
	}
}

func (e *Evaluator) mark(seen []uint32, ns int, nd node) {
	seen[int(nd.v)*ns+int(nd.q)] = e.stamp
	e.LastVisited++
}

func (e *Evaluator) seen(seen []uint32, ns int, nd node) bool {
	return seen[int(nd.v)*ns+int(nd.q)] == e.stamp
}

// EvalRLC answers the RLC query (s, t, L+) by forward BFS. It is a
// convenience wrapper; workload loops should compile the NFA once.
func EvalRLC(g *graph.Graph, s, t graph.Vertex, l labelseq.Seq) (bool, error) {
	nfa, err := automaton.NewPlus(l, g.NumLabels())
	if err != nil {
		return false, err
	}
	return NewEvaluator(g).BFS(s, t, nfa), nil
}

// EvalRLCBi answers the RLC query (s, t, L+) by bidirectional BFS.
func EvalRLCBi(g *graph.Graph, s, t graph.Vertex, l labelseq.Seq) (bool, error) {
	nfa, err := automaton.NewPlus(l, g.NumLabels())
	if err != nil {
		return false, err
	}
	return NewEvaluator(g).BiBFS(s, t, nfa), nil
}

func trailing(x uint64) int { return bits.TrailingZeros64(x) }

func sortVertices(vs []graph.Vertex) {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
}
