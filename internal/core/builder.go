package core

import (
	"sort"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// searchState is a kernel-search BFS state: a vertex plus the label
// sequence of the path between it and the KBS source (read in path order).
// The packed code deduplicates states; the inline array avoids per-state
// allocations (MaxK bounds the depth).
type searchState struct {
	v     graph.Vertex
	code  labelseq.Code
	depth int32
	seq   [MaxK]labelseq.Label
}

type dedupKey struct {
	v    graph.Vertex
	code labelseq.Code
}

// kernelFrontier collects the frontier vertices of one kernel candidate.
type kernelFrontier struct {
	kernel labelseq.Seq
	code   labelseq.Code
	verts  []graph.Vertex
	member map[graph.Vertex]struct{}
}

// builder holds the reusable scratch space for all KBS runs of one Build,
// plus the mutable per-vertex entry lists that insert appends to. The lists
// stay per-vertex during construction (cheap appends, no shifting) and are
// compacted into the Index's flat CSR layout by freeze once the last KBS
// finished.
//
// A parallel build uses several builders over the same index: one committer
// (spec == nil) that owns the canonical lists, and one speculating builder
// per worker (spec != nil) that reads the canonical lists but buffers its
// inserts in worker-local state (see scheduler.go). The in/out slice
// headers and the label-partitioned adjacency are shared; all per-KBS
// scratch is per-builder.
type builder struct {
	ix    *Index
	g     *graph.Graph
	coder *labelseq.Coder
	k     int

	// Mutable Lin/Lout under construction, indexed by vertex id. Only the
	// committer appends; speculating builders treat them as a read-only
	// snapshot of the entries committed by earlier windows.
	in  [][]entry
	out [][]entry

	// Label-partitioned adjacency: kernel-BFS follows edges of one
	// expected label at a time, so edges are regrouped by label once
	// instead of filtered on every visit.
	inByLabel  *labelCSR
	outByLabel *labelCSR

	// Kernel-search scratch.
	queue []searchState
	seen  map[dedupKey]struct{}

	// Frontier registry for the current KBS.
	frontiers map[labelseq.Code]*kernelFrontier

	// fixedSet holds (mr, hub) pairs of the current KBS's fixed entry
	// list — Lin(src) for backward searches, Lout(src) for forward ones.
	// The PR1 check of insert reduces to one pass over the visited
	// vertex's own list plus O(1) membership tests here, replacing a
	// merge join per insert (the build-time hot spot).
	fixedSet map[uint64]struct{}

	// Kernel-BFS scratch: stamped visited array over (vertex, phase)
	// slots, and the BFS queue of packed (vertex, phase) pairs.
	visited []uint32
	stamp   uint32
	bfsQ    []kbsNode

	// Speculation state (parallel build workers only, see scheduler.go).
	spec *specScratch

	stats BuildStats
}

type kbsNode struct {
	v     graph.Vertex
	phase int32
}

func newBuilder(ix *Index) *builder {
	return &builder{
		ix:         ix,
		g:          ix.g,
		coder:      ix.dict.Coder(),
		k:          ix.k,
		in:         make([][]entry, ix.g.NumVertices()),
		out:        make([][]entry, ix.g.NumVertices()),
		inByLabel:  newLabelCSR(ix.g, true),
		outByLabel: newLabelCSR(ix.g, false),
		seen:       make(map[dedupKey]struct{}),
		frontiers:  make(map[labelseq.Code]*kernelFrontier),
		fixedSet:   make(map[uint64]struct{}),
		visited:    make([]uint32, ix.g.NumVertices()*ix.k),
	}
}

// labelCSR regroups a CSR adjacency so each vertex's edges sort by
// (label, neighbor), making "neighbors of v through label l" one binary
// search plus a contiguous scan.
type labelCSR struct {
	off []int64
	nbr []graph.Vertex
	lbl []labelseq.Label
}

func newLabelCSR(g *graph.Graph, backward bool) *labelCSR {
	n := g.NumVertices()
	c := &labelCSR{
		off: make([]int64, n+1),
		nbr: make([]graph.Vertex, g.NumEdges()),
		lbl: make([]labelseq.Label, g.NumEdges()),
	}
	pos := int64(0)
	for v := graph.Vertex(0); int(v) < n; v++ {
		var nbrs []graph.Vertex
		var lbls []labelseq.Label
		if backward {
			nbrs, lbls = g.InEdges(v)
		} else {
			nbrs, lbls = g.OutEdges(v)
		}
		c.off[v] = pos
		copy(c.nbr[pos:], nbrs)
		copy(c.lbl[pos:], lbls)
		run := int(pos) + len(nbrs)
		sortRun(c.nbr[pos:run], c.lbl[pos:run])
		pos = int64(run)
	}
	c.off[n] = pos
	return c
}

// sortRun sorts the parallel slices by (label, neighbor). High-degree hubs
// make a comparison sort mandatory here.
func sortRun(nbr []graph.Vertex, lbl []labelseq.Label) {
	sort.Sort(&runSorter{nbr: nbr, lbl: lbl})
}

type runSorter struct {
	nbr []graph.Vertex
	lbl []labelseq.Label
}

func (r *runSorter) Len() int { return len(r.nbr) }
func (r *runSorter) Less(i, j int) bool {
	if r.lbl[i] != r.lbl[j] {
		return r.lbl[i] < r.lbl[j]
	}
	return r.nbr[i] < r.nbr[j]
}
func (r *runSorter) Swap(i, j int) {
	r.nbr[i], r.nbr[j] = r.nbr[j], r.nbr[i]
	r.lbl[i], r.lbl[j] = r.lbl[j], r.lbl[i]
}

// edges returns the neighbors of v through label l. The binary search is
// hand-rolled: this sits on the kernel-BFS hot path, where the closure of
// sort.Search is measurable.
func (c *labelCSR) edges(v graph.Vertex, l labelseq.Label) []graph.Vertex {
	lo, hi := c.off[v], c.off[v+1]
	lbls := c.lbl[lo:hi]
	i, j := 0, len(lbls)
	for i < j {
		h := int(uint(i+j) >> 1)
		if lbls[h] < l {
			i = h + 1
		} else {
			j = h
		}
	}
	end := i
	for end < len(lbls) && lbls[end] == l {
		end++
	}
	return c.nbr[lo+int64(i) : lo+int64(end)]
}

// kbs runs one kernel-based search from src: the kernel-search phase
// enumerates every path of length <= k touching src on the given side,
// inserting entries and registering kernel candidates; the kernel-BFS phase
// then extends each candidate under its Kleene plus.
func (b *builder) kbs(src graph.Vertex, dir direction) {
	b.loadFixedSet(src, dir)
	b.kernelSearch(src, dir)

	// Deterministic kernel order (map iteration is randomized).
	codes := make([]labelseq.Code, 0, len(b.frontiers))
	for c := range b.frontiers {
		codes = append(codes, c)
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	for _, c := range codes {
		f := b.frontiers[c]
		b.kernelBFS(src, dir, f)
	}
}

// loadFixedSet snapshots the fixed side of every PR1 query the KBS (or a
// commit replay) issues: Lin(src) for backward searches, Lout(src) for
// forward ones. Neither list changes while the KBS runs, so (mr, hub)
// membership is captured once. A speculating builder additionally layers in
// its own buffered inserts at src.
func (b *builder) loadFixedSet(src graph.Vertex, dir direction) {
	clear(b.fixedSet)
	var fixed []entry
	if dir == backward {
		fixed = b.in[src]
	} else {
		fixed = b.out[src]
	}
	for _, e := range fixed {
		b.fixedSet[fixedKey(e.mr, e.hub)] = struct{}{}
	}
	if sc := b.spec; sc != nil {
		rank := b.ix.rank[src]
		for idx := sc.overlayHead(src, fixedSide(dir)); idx >= 0; idx = sc.ovNext[idx] {
			b.fixedSet[fixedKey(sc.cur.inserts[idx].mrID, rank)] = struct{}{}
		}
	}
}

// kernelSearch is phase 1: a BFS over (vertex, label-sequence) states up to
// depth k. Every state visit attempts an insert (whose outcome is ignored
// here — PR3 applies only to kernel-BFS) and registers the endpoint as a
// frontier vertex of the state's minimum repeat.
func (b *builder) kernelSearch(src graph.Vertex, dir direction) {
	clear(b.seen)
	clear(b.frontiers)
	b.queue = b.queue[:0]

	b.queue = append(b.queue, searchState{v: src})
	b.seen[dedupKey{src, 0}] = struct{}{}

	var mrBuf labelseq.Seq
	for head := 0; head < len(b.queue); head++ {
		// Index rather than copy: states are small but the queue grows
		// while iterating.
		st := b.queue[head]
		var nbrs []graph.Vertex
		var lbls []labelseq.Label
		if dir == backward {
			nbrs, lbls = b.g.InEdges(st.v)
		} else {
			nbrs, lbls = b.g.OutEdges(st.v)
		}
		for i := range nbrs {
			y, l := nbrs[i], lbls[i]
			var next searchState
			next.v = y
			next.depth = st.depth + 1
			if dir == backward {
				// Path y -> src: the new edge label is prepended.
				next.seq[0] = l
				copy(next.seq[1:], st.seq[:st.depth])
				next.code = b.coder.Prepend(st.code, l, int(st.depth))
			} else {
				// Path src -> y: appended.
				copy(next.seq[:], st.seq[:st.depth])
				next.seq[st.depth] = l
				next.code = b.coder.Append(st.code, l)
			}
			key := dedupKey{y, next.code}
			if _, dup := b.seen[key]; dup {
				continue
			}
			b.seen[key] = struct{}{}
			b.stats.KernelSearchStates++

			seq := labelseq.Seq(next.seq[:next.depth])
			mrBuf = labelseq.MinimumRepeat(seq)
			mrCode := b.coder.Encode(mrBuf)
			// Insert outcome deliberately ignored in phase 1.
			b.insert(y, src, dir, mrBuf, mrCode)
			b.registerFrontier(mrCode, mrBuf, y)

			if int(next.depth) < b.k {
				b.queue = append(b.queue, next)
			}
		}
	}
}

func (b *builder) registerFrontier(code labelseq.Code, kernel labelseq.Seq, v graph.Vertex) {
	f := b.frontiers[code]
	if f == nil {
		f = &kernelFrontier{
			kernel: kernel.Clone(),
			code:   code,
			member: make(map[graph.Vertex]struct{}),
		}
		b.frontiers[code] = f
	}
	if _, ok := f.member[v]; ok {
		return
	}
	f.member[v] = struct{}{}
	f.verts = append(f.verts, v)
}

// kernelBFS is phase 2: starting from the frontier vertices of one kernel
// candidate L (each the endpoint of an exact L-power path), walk the graph
// under the constraint L+. The phase of a node is the number of labels
// consumed in the current period; completing a period (phase back to 0)
// attempts an insert, and — PR3 — a pruned insert stops expansion there.
func (b *builder) kernelBFS(src graph.Vertex, dir direction, f *kernelFrontier) {
	m := int32(len(f.kernel))
	b.stamp++
	if b.stamp == 0 {
		for i := range b.visited {
			b.visited[i] = 0
		}
		b.stamp = 1
	}
	b.bfsQ = b.bfsQ[:0]
	for _, v := range f.verts {
		b.mark(v, 0)
		b.bfsQ = append(b.bfsQ, kbsNode{v, 0})
	}
	mrCode := f.code
	b.stats.KernelBFSRuns++

	for head := 0; head < len(b.bfsQ); head++ {
		b.stats.KernelBFSNodes++
		nd := b.bfsQ[head]
		var expected labelseq.Label
		if dir == backward {
			// Walking backward from a power boundary consumes the
			// kernel's labels last-to-first.
			expected = f.kernel[m-1-nd.phase]
		} else {
			expected = f.kernel[nd.phase]
		}
		var nbrs []graph.Vertex
		if dir == backward {
			nbrs = b.inByLabel.edges(nd.v, expected)
		} else {
			nbrs = b.outByLabel.edges(nd.v, expected)
		}
		next := (nd.phase + 1) % m
		for i := range nbrs {
			y := nbrs[i]
			if b.isMarked(y, next) {
				continue
			}
			if next == 0 {
				// y sits at a completed power L^m: record it.
				st := b.insert(y, src, dir, f.kernel, mrCode)
				b.mark(y, 0)
				if st != inserted && !b.ix.opts.DisablePR3 {
					// PR3: y and everything beyond it are skipped.
					continue
				}
				b.bfsQ = append(b.bfsQ, kbsNode{y, 0})
				continue
			}
			b.mark(y, next)
			b.bfsQ = append(b.bfsQ, kbsNode{y, next})
		}
	}
}

func (b *builder) mark(v graph.Vertex, phase int32) {
	b.visited[int(v)*b.k+int(phase)] = b.stamp
}

func (b *builder) isMarked(v graph.Vertex, phase int32) bool {
	return b.visited[int(v)*b.k+int(phase)] == b.stamp
}

func fixedKey(mr labelseq.ID, hub int32) uint64 {
	return uint64(mr)<<32 | uint64(uint32(hub))
}

// insert is insertCore plus the outcome counters.
func (b *builder) insert(y, src graph.Vertex, dir direction, mr labelseq.Seq, mrCode labelseq.Code) insertStatus {
	st := b.insertCore(y, src, dir, mr, mrCode)
	switch st {
	case inserted:
		b.stats.Inserted++
	case prunedPR1:
		b.stats.PrunedPR1++
	case prunedPR2:
		b.stats.PrunedPR2++
	case prunedDup:
		b.stats.PrunedDup++
	}
	return st
}

// insertCore attempts to record that y and src are connected by a path whose
// k-MR is mr: backward searches add (src, mr) to Lout(y); forward searches
// add (src, mr) to Lin(y). Pruning rules PR1 and PR2 run first.
//
// The PR1 check is algebraically Query(y, src, mr+) (backward) or
// Query(src, y, mr+) (forward) on the current snapshot, evaluated here as
// one pass over y's own list plus fixedSet membership tests: Case 2 on the
// fixed side is (mr, rank(y)) ∈ fixedSet; Case 2 on y's side is an entry
// with hub rank(src); Case 1 is an entry of y whose (mr, hub) also sits in
// fixedSet.
//
// On a speculating builder the decision additionally covers the
// speculation's own buffered inserts (in the sequential build those are
// already in y's list), and a successful insert is buffered instead of
// applied — the dictionary and the canonical lists are never touched by a
// worker.
func (b *builder) insertCore(y, src graph.Vertex, dir direction, mr labelseq.Seq, mrCode labelseq.Code) insertStatus {
	ix := b.ix
	// PR2: skip entries at vertices with a strictly smaller rank than the
	// search source — their own earlier searches covered this pair.
	if !ix.opts.DisablePR2 && ix.rank[src] > ix.rank[y] {
		return prunedPR2
	}

	var yList []entry
	if dir == backward {
		yList = b.out[y]
	} else {
		yList = b.in[y]
	}

	id := b.lookupCode(mrCode)
	if id != labelseq.InvalidID {
		if !ix.opts.DisablePR1 {
			// PR1: already answerable from the current snapshot.
			if _, ok := b.fixedSet[fixedKey(id, ix.rank[y])]; ok {
				return prunedPR1
			}
			rankSrc := ix.rank[src]
			for _, e := range yList {
				if e.mr != id {
					continue
				}
				if e.hub == rankSrc {
					return prunedPR1
				}
				if _, ok := b.fixedSet[fixedKey(id, e.hub)]; ok {
					return prunedPR1
				}
			}
			// Buffered inserts at y all carry hub rank(src) — the
			// speculating vertex is the KBS source — so any mr match
			// is the e.hub == rankSrc case above.
			if b.spec != nil && b.spec.overlayHas(y, ySide(dir), id) {
				return prunedPR1
			}
		} else {
			// Without PR1 still refuse exact duplicates, otherwise
			// entry lists would grow unboundedly within one search.
			if hasEntry(yList, ix.rank[src], id) {
				return prunedDup
			}
			if b.spec != nil && b.spec.overlayHas(y, ySide(dir), id) {
				return prunedDup
			}
		}
	}
	if b.spec != nil {
		b.spec.bufferInsert(y, dir, mr, mrCode, id)
		return inserted
	}
	if id == labelseq.InvalidID {
		id = ix.dict.InternCode(mrCode, mr)
	}
	e := entry{hub: ix.rank[src], mr: id}
	if dir == backward {
		b.out[y] = append(b.out[y], e)
	} else {
		b.in[y] = append(b.in[y], e)
	}
	return inserted
}

// lookupCode resolves a packed minimum-repeat code to its interned ID,
// falling back to the speculation's provisional interns on workers.
func (b *builder) lookupCode(code labelseq.Code) labelseq.ID {
	if id := b.ix.dict.LookupCode(code); id != labelseq.InvalidID {
		return id
	}
	if b.spec != nil {
		if id, ok := b.spec.shadow[code]; ok {
			return id
		}
	}
	return labelseq.InvalidID
}
