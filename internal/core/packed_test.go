package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/gen"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/snapshot"
	"github.com/g-rpqs/rlc-go/internal/traversal"
)

// TestPackedBuildDefaults pins the packed form of a fresh build: Build
// derives it, and it reports coherent stats and verifies against the
// entries it mirrors.
func TestPackedBuildDefaults(t *testing.T) {
	g := graph.Fig2()
	ix := mustBuild(t, g, Options{K: 2})
	if ix.packed == nil {
		t.Fatal("Build did not pack")
	}
	st := ix.Stats()
	if st.Packed.Groups == 0 || st.Packed.Sets == 0 || st.Packed.PoolWords < 1 {
		t.Fatalf("implausible packed stats: %+v", st.Packed)
	}
	if st.Packed.Sets > int(st.Packed.Groups) {
		t.Fatalf("more distinct sets (%d) than groups (%d)", st.Packed.Sets, st.Packed.Groups)
	}
	if err := ix.VerifyPacked(); err != nil {
		t.Fatalf("fresh packed form fails self-verification: %v", err)
	}
}

// scanQuery is the entry-scan reference for the packed probe: Algorithm 1
// answered straight from the authoritative entry lists — Case 2 by
// hasEntry, Case 1 by a hub merge join that walks every run entry by entry.
// It shares nothing with the packed form but the entries, so the
// differential tests compare two independent readings of one index. Exact
// only on an untiered index (demoted lists are truncated).
func scanQuery(ix *Index, s, t graph.Vertex, mr labelseq.ID) bool {
	a, b := ix.lout(s), ix.lin(t)
	if hasEntry(a, ix.rank[t], mr) || hasEntry(b, ix.rank[s], mr) {
		return true
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].hub < b[j].hub:
			i++
		case a[i].hub > b[j].hub:
			j++
		default:
			hub := a[i].hub
			foundA, foundB := false, false
			for ; i < len(a) && a[i].hub == hub; i++ {
				foundA = foundA || a[i].mr == mr
			}
			for ; j < len(b) && b[j].hub == hub; j++ {
				foundB = foundB || b[j].mr == mr
			}
			if foundA && foundB {
				return true
			}
		}
	}
	return false
}

// assertScanEquivalent checks the packed probe against scanQuery on every
// (s, t) pair and every interned MR of ix.
func assertScanEquivalent(t *testing.T, ix *Index) {
	t.Helper()
	n := ix.g.NumVertices()
	for s := graph.Vertex(0); int(s) < n; s++ {
		for d := graph.Vertex(0); int(d) < n; d++ {
			for mr := labelseq.ID(0); int(mr) < ix.dict.Len(); mr++ {
				if got, want := ix.queryByID(s, d, mr), scanQuery(ix, s, d, mr); got != want {
					t.Fatalf("queryByID(%d, %d, mr %d) = %v, entry scan says %v", s, d, mr, got, want)
				}
			}
		}
	}
}

// packedPropertyGraphs are the generator family of the equivalence suite:
// Erdős–Rényi, Barabási–Albert, and the uniform random multigraph.
func packedPropertyGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	er, err := gen.ER(60, 220, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := gen.BA(60, 3, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(13))
	return map[string]*graph.Graph{
		"er":      er,
		"ba":      ba,
		"uniform": randomGraph(r, 48, 3, 200),
	}
}

// TestPackedEquivalenceProperty: across the generator family, k 1..3, and
// every build worker count, the packed probe answers every (s, t, MR) of the
// index exactly like the entry-scan reference over the same index, and
// matches the online traversal on a sample.
func TestPackedEquivalenceProperty(t *testing.T) {
	for name, g := range packedPropertyGraphs(t) {
		for k := 1; k <= 3; k++ {
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/k%d/w%d", name, k, workers), func(t *testing.T) {
					packed := mustBuild(t, g, Options{K: k, BuildWorkers: workers})
					// Exhaustive packed == entry scan over every pair and MR.
					assertScanEquivalent(t, packed)
					// Sampled equality against the traversal oracle ties both
					// readings to ground truth.
					r := rand.New(rand.NewSource(int64(k*10 + workers)))
					constraints := PrimitiveConstraints(g.NumLabels(), k)
					n := g.NumVertices()
					for i := 0; i < 150; i++ {
						s := graph.Vertex(r.Intn(n))
						d := graph.Vertex(r.Intn(n))
						l := constraints[r.Intn(len(constraints))]
						got, err := packed.Query(s, d, l)
						if err != nil {
							t.Fatalf("Query(%d, %d, %v): %v", s, d, l, err)
						}
						want, err := traversal.EvalRLC(g, s, d, l)
						if err != nil {
							t.Fatalf("EvalRLC(%d, %d, %v): %v", s, d, l, err)
						}
						if got != want {
							t.Fatalf("Query(%d, %d, %v) = %v, traversal says %v", s, d, l, got, want)
						}
					}
				})
			}
		}
	}
}

// TestPackedDeterministicAcrossWorkers: the packed sections, like the entry
// sections they derive from, are byte-identical at every worker count.
func TestPackedDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	g := randomGraph(r, 64, 3, 300)
	var want []byte
	for _, workers := range []int{1, 2, 4, 8} {
		ix := mustBuild(t, g, Options{K: 2, BuildWorkers: workers})
		var buf bytes.Buffer
		if err := ix.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("bundle bytes differ at %d workers", workers)
		}
	}
}

// packedSectionIDs lists the six sections of the packed block.
var packedSectionIDs = []uint32{secPackedMeta, secPackedGroups, secPackedOutOff, secPackedInOff, secPackedSets, secPackedSetDesc}

// stripPacked re-renders a bundle without its packed block — the format of
// bundles written before the packed form.
func stripPacked(t *testing.T, data []byte) []byte {
	t.Helper()
	return rebundle(t, data, func(s map[uint32][]byte) {
		for _, id := range packedSectionIDs {
			delete(s, id)
		}
	})
}

// packedSectionBytes concatenates the packed sections of a rendered bundle
// as (id u32, length u64, payload) records — the byte image the golden test
// pins.
func packedSectionBytes(t *testing.T, data []byte) []byte {
	t.Helper()
	f, err := snapshot.OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	var tmp [8]byte
	for _, id := range packedSectionIDs {
		b, ok := f.Section(id)
		if !ok {
			t.Fatalf("bundle missing packed section %d", id)
		}
		binary.LittleEndian.PutUint32(tmp[:4], id)
		out = append(out, tmp[:4]...)
		binary.LittleEndian.PutUint64(tmp[:], uint64(len(b)))
		out = append(out, tmp[:]...)
		out = append(out, b...)
	}
	return out
}

// TestGoldenPackedSections pins the packed sections' bytes for the paper's
// Fig. 2 graph at k = 2. A failure means the on-disk packed format or the
// deterministic interning order changed — both are compatibility breaks for
// bundles already in the field. Regenerate deliberately with
// RLC_UPDATE_GOLDEN=1.
func TestGoldenPackedSections(t *testing.T) {
	_, data := bundleBytes(t, graph.Fig2(), 2)
	got := packedSectionBytes(t, data)
	golden := filepath.Join("testdata", "fig2_k2_packed.golden")
	if os.Getenv("RLC_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("packed sections differ from golden: got %d bytes, want %d", len(got), len(want))
	}
}

// TestPrePackedBundleBackCompat pins the upgrade story: a bundle without
// the packed block differs from a current bundle only by those six
// sections, still opens and verifies, packs on open, and answers
// identically. Writing the opened index restores the full current bundle.
func TestPrePackedBundleBackCompat(t *testing.T) {
	g := graph.Fig2()
	packedIx, packedData := bundleBytes(t, g, 2)
	plainData := stripPacked(t, packedData)

	pf, err := snapshot.OpenBytes(packedData)
	if err != nil {
		t.Fatal(err)
	}
	uf, err := snapshot.OpenBytes(plainData)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range packedSectionIDs {
		if _, ok := uf.Section(id); ok {
			t.Fatalf("stripped bundle carries packed section %d", id)
		}
	}
	for _, info := range uf.Sections() {
		pb, ok := pf.Section(info.ID)
		if !ok {
			t.Fatalf("packed bundle missing shared section %d", info.ID)
		}
		ub, _ := uf.Section(info.ID)
		if !bytes.Equal(pb, ub) {
			t.Fatalf("shared section %d differs between packed and stripped bundles", info.ID)
		}
	}

	s, err := OpenSnapshotBytes(plainData)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if s.Index().packed == nil {
		t.Fatal("pre-packed bundle did not pack on open")
	}
	assertEquivalent(t, g, packedIx, s.Index())
	var buf bytes.Buffer
	if err := s.Index().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), packedData) {
		t.Fatal("rewriting an opened pre-packed bundle differs from a fresh bundle")
	}
}

// TestGoldenPrePackedOpens pins the committed bundle of Fig. 2 at k = 2 that
// was written before the packed form (testdata/fig2_k2_prepacked.rlcs, no
// sections 15-20): it opens, verifies, answers every query like the online
// traversal over its own embedded graph, and writes back byte-identically
// to a fresh build of that graph, packed sections included.
func TestGoldenPrePackedOpens(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "fig2_k2_prepacked.rlcs"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := snapshot.OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range packedSectionIDs {
		if _, ok := f.Section(id); ok {
			t.Fatalf("golden pre-packed bundle carries packed section %d", id)
		}
	}
	s, err := OpenSnapshotBytes(data)
	if err != nil {
		t.Fatalf("golden pre-packed bundle no longer opens: %v", err)
	}
	defer s.Close()
	if err := s.Verify(); err != nil {
		t.Fatalf("golden pre-packed bundle fails Verify: %v", err)
	}
	g := s.Graph()
	ix := s.Index()
	n := g.NumVertices()
	for _, l := range PrimitiveConstraints(g.NumLabels(), ix.K()) {
		for src := graph.Vertex(0); int(src) < n; src++ {
			for dst := graph.Vertex(0); int(dst) < n; dst++ {
				got, err := ix.Query(src, dst, l)
				if err != nil {
					t.Fatal(err)
				}
				want, err := traversal.EvalRLC(g, src, dst, l)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("Query(%d, %d, %v) = %v, traversal says %v", src, dst, l, got, want)
				}
			}
		}
	}
	var got bytes.Buffer
	if err := ix.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	_, want := bundleBytes(t, g, ix.K())
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("opened pre-packed golden writes a bundle that differs from a fresh build")
	}
	// stripPacked, which the other back-compat tests use to make pre-packed
	// bundles, reproduces the golden's exact bytes.
	if !bytes.Equal(stripPacked(t, want), data) {
		t.Fatal("stripping the packed block from a fresh bundle differs from the pre-packed golden")
	}
}

// TestV1LoadPacks: the v1 two-file round trip comes back packed, answering
// like the original.
func TestV1LoadPacks(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	g := randomGraph(r, 40, 3, 160)
	ix := mustBuild(t, g, Options{K: 2})
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.packed == nil {
		t.Fatal("v1 load did not derive the packed form")
	}
	assertEquivalent(t, g, ix, loaded)
}

// TestSnapshotPackedSemanticCorruption drives openPacked's structural
// validation: bundles whose packed block is internally inconsistent must be
// rejected typed, never panic, never open.
func TestSnapshotPackedSemanticCorruption(t *testing.T) {
	_, base := bundleBytes(t, graph.Fig2(), 2)
	cases := []struct {
		name   string
		mutate func(secs map[uint32][]byte)
	}{
		{"packed-meta-truncated", func(s map[uint32][]byte) { s[secPackedMeta] = s[secPackedMeta][:8] }},
		{"packed-setcount-drift", func(s map[uint32][]byte) { s[secPackedMeta][0]++ }},
		{"packed-reserved-nonzero", func(s map[uint32][]byte) { s[secPackedMeta][4] = 1 }},
		{"packed-groupcount-drift", func(s map[uint32][]byte) { s[secPackedMeta][8]++ }},
		{"packed-wordcount-drift", func(s map[uint32][]byte) { s[secPackedMeta][16]++ }},
		{"packed-missing-groups", func(s map[uint32][]byte) { delete(s, secPackedGroups) }},
		{"packed-missing-outoff", func(s map[uint32][]byte) { delete(s, secPackedOutOff) }},
		{"packed-missing-inoff", func(s map[uint32][]byte) { delete(s, secPackedInOff) }},
		{"packed-missing-sets", func(s map[uint32][]byte) { delete(s, secPackedSets) }},
		{"packed-missing-desc", func(s map[uint32][]byte) { delete(s, secPackedSetDesc) }},
		{"packed-desc-span-zero", func(s map[uint32][]byte) {
			copy(s[secPackedSetDesc][8:12], []byte{0, 0, 0, 0})
		}},
		{"packed-desc-window-oob", func(s map[uint32][]byte) {
			copy(s[secPackedSetDesc][4:8], []byte{0xff, 0xff, 0xff, 0xff})
		}},
		{"packed-desc-off-oob", func(s map[uint32][]byte) {
			copy(s[secPackedSetDesc][0:4], []byte{0xff, 0xff, 0xff, 0x7f})
		}},
		{"packed-outoff-nonzero", func(s map[uint32][]byte) { s[secPackedOutOff][0] = 1 }},
		{"packed-inoff-decreasing", func(s map[uint32][]byte) {
			b := s[secPackedInOff]
			copy(b[len(b)-4:], []byte{0, 0, 0, 0})
		}},
		{"packed-set-oob", func(s map[uint32][]byte) {
			b := s[secPackedGroups]
			copy(b[4:8], []byte{0xff, 0xff, 0xff, 0x7f})
		}},
		{"packed-hub-negative", func(s map[uint32][]byte) {
			b := s[secPackedGroups]
			copy(b[0:4], []byte{0xff, 0xff, 0xff, 0xff})
		}},
		{"packed-hub-duplicate", func(s map[uint32][]byte) {
			// Find a per-vertex list with >= 2 groups and give its first two
			// the same hub — a violation of the strictly-increasing invariant
			// groupHas's binary search relies on.
			g := s[secPackedGroups]
			for _, offB := range [][]byte{s[secPackedOutOff], s[secPackedInOff]} {
				for i := 0; i+8 <= len(offB); i += 4 {
					lo := int(binary.LittleEndian.Uint32(offB[i:]))
					hi := int(binary.LittleEndian.Uint32(offB[i+4:]))
					if hi-lo >= 2 {
						copy(g[(lo+1)*8:(lo+1)*8+4], g[lo*8:lo*8+4])
						return
					}
				}
			}
			panic("fixture has no packed list with >= 2 groups")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := rebundle(t, base, tc.mutate)
			s, err := OpenSnapshotBytes(data)
			if err == nil {
				s.Close()
				t.Fatal("packed corruption accepted")
			}
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("error not typed ErrCorrupt: %v", err)
			}
		})
	}
}

// TestSnapshotVerifyCatchesPackedDivergence pins the deepest integrity
// layer: a packed block that is structurally sound and carries valid
// checksums (rebundle recomputes them) but disagrees with the entry array
// must fail Verify — queries answer from the packed form, so checksums
// alone cannot vouch for the bundle.
func TestSnapshotVerifyCatchesPackedDivergence(t *testing.T) {
	_, base := bundleBytes(t, graph.Fig2(), 2)
	data := rebundle(t, base, func(s map[uint32][]byte) {
		s[secPackedSets][0] ^= 0x01 // toggle MR id 0 in the first pooled set
	})
	s, err := OpenSnapshotBytes(data)
	if err != nil {
		t.Fatalf("structurally sound divergence failed open: %v", err)
	}
	defer s.Close()
	err = s.Verify()
	if !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("Verify = %v, want typed ErrCorrupt", err)
	}
}

// BenchmarkQueryPacked measures the packed query path on one mid-size
// random graph, for single queries and the batch path.
func BenchmarkQueryPacked(b *testing.B) {
	r := rand.New(rand.NewSource(803))
	g := randomGraph(r, 2000, 4, 10000)
	ix, err := Build(g, Options{K: 2})
	if err != nil {
		b.Fatal(err)
	}
	qs := randomBatch(r, g, 2, 4096)
	b.Run("query", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				if _, err := ix.Query(q.S, q.T, q.L); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch-into", func(b *testing.B) {
		b.ReportAllocs()
		var buf []BatchResult
		for i := 0; i < b.N; i++ {
			buf = ix.QueryBatchInto(qs, 0, buf)
		}
	})
}

// FuzzPackedEquivalence is the differential fuzzer of the packed
// representation: arbitrary bytes decode into a small graph plus a query
// (the quickGraphSpec scheme), which is answered by the packed probe, by the
// entry-scan reference over the same index, and — to anchor both — by the
// online traversal. Any divergence fails.
func FuzzPackedEquivalence(f *testing.F) {
	f.Add([]byte{1, 0, 2, 3, 1, 4}, uint8(1), uint8(4), []byte{0, 1})
	f.Add([]byte{0, 0, 1, 1, 1, 2, 2, 2, 0}, uint8(0), uint8(2), []byte{1})
	f.Add([]byte{5, 2, 6, 6, 2, 5}, uint8(5), uint8(6), []byte{2, 0})
	f.Fuzz(func(t *testing.T, edges []byte, s, d uint8, l []byte) {
		spec := quickGraphSpec{Edges: edges, S: s, T: d, L: l}
		g := spec.graph()
		if g.NumVertices() == 0 {
			return
		}
		ix, err := Build(g, Options{K: 2})
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		src := graph.Vertex(spec.S) % 10
		dst := graph.Vertex(spec.T) % 10
		q := spec.constraint()
		got, err := ix.Query(src, dst, q)
		if err != nil {
			t.Fatalf("Query(%d, %d, %v): %v", src, dst, q, err)
		}
		want, err := traversal.EvalRLC(g, src, dst, q)
		if err != nil {
			t.Fatalf("EvalRLC: %v", err)
		}
		if got != want {
			t.Fatalf("Query(%d, %d, %v) = %v, traversal says %v", src, dst, q, got, want)
		}
		if mr := ix.dict.Lookup(q); mr != labelseq.InvalidID && scanQuery(ix, src, dst, mr) != want {
			t.Fatalf("entry scan (%d, %d, %v) disagrees with traversal %v", src, dst, q, want)
		}
		// Beyond the single derived query, the packed probe and the entry
		// scan must agree on every interned MR for the derived pair — this
		// is where bitset packing and hash-consing bugs actually surface.
		for mr := labelseq.ID(0); int(mr) < ix.dict.Len(); mr++ {
			if ix.queryByID(src, dst, mr) != scanQuery(ix, src, dst, mr) {
				t.Fatalf("queryByID(%d, %d, mr %d) diverges between packed and entry scan", src, dst, mr)
			}
		}
	})
}
