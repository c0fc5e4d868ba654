package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// Bit-parallel, hash-consed MR-sets.
//
// The flat entry array stores each (hub, mr) pair separately, so a query
// probe binary-searches the hub and then walks the hub's run comparing
// interned MR ids one by one. The packed form regroups every per-vertex
// entry list by hub — one packedGroup per (vertex, direction, hub) — and
// turns the run of MR ids into a fixed-width bitset keyed by dictionary id:
// membership becomes a single AND/shift of one word instead of a scan.
// Identical MR-sets are hash-consed into a shared pool (hub-dominated
// graphs repeat a handful of MR-sets across thousands of vertices), so each
// distinct set is resident exactly once and a group references it by a
// 4-byte id.
//
// The packed form is the only form queries and probes read, but never the
// source of truth: the entry array stays authoritative for serialization,
// inspection, validation, and tier construction, pack derives the packed
// form deterministically from it, and verifyPacked re-checks bit-for-bit
// equality (Snapshot.Verify runs it, so a bundle whose packed sections
// diverge from its entry array is rejected as corrupt rather than silently
// answering from the wrong bits).

// packedGroup is one (hub, MR-set) pair of a packed per-vertex list: the
// hub's access rank plus the id of the hash-consed bitset holding every MR
// the vertex carries for that hub. 8 bytes, the exact on-disk layout of the
// packed-groups snapshot section.
type packedGroup struct {
	hub int32
	set uint32
}

// setDesc locates one hash-consed MR-set in the ragged word pool: span
// words starting at words[off], covering bit positions [base*64,
// (base+span)*64) of the full dictionary-wide bitset. Storing only each
// set's occupied word window keeps the pool small when the dictionary is
// wide but individual sets are narrow (the common case: a hub run carries a
// handful of MRs out of thousands interned); a dense dictLen-wide layout
// would grow the pool with the dictionary instead of with the data. 12
// bytes, the exact on-disk layout of the packed-set-desc snapshot section.
type setDesc struct {
	off  uint32 // first word in the pool
	base uint32 // word index (mr >> 6) of words[off]
	span uint32 // occupied words, >= 1
}

// packed is the bit-parallel form of an Index's entry lists. All Lout group
// lists come first, then all Lin lists, with one offset array per direction
// — the same CSR discipline as the entry array. desc/words form the
// hash-consed set pool: set s covers words[desc[s].off : .off+.span], bit i
// of word w meaning "MR id (desc[s].base+w)*64 + i is present".
type packed struct {
	numSets int32
	desc    []setDesc
	words   []uint64
	groups  []packedGroup // all Lout groups, then all Lin groups
	outOff  []int32       // len n+1; packed Lout(v) = groups[outOff[v]:outOff[v+1]]
	inOff   []int32       // len n+1; packed Lin(v)  = groups[inOff[v]:inOff[v+1]]
}

// has reports whether the pooled set contains mr — the bit-parallel
// membership test: a window bounds check, then one shift and AND.
//
//rlc:noalloc
func (p *packed) has(set uint32, mr labelseq.ID) bool {
	d := p.desc[set]
	w := uint32(mr>>6) - d.base // unsigned: below-window wraps huge
	if w >= d.span {
		return false
	}
	return p.words[d.off+w]>>(mr&63)&1 != 0
}

// groupHas reports whether list (hub-sorted, hubs unique) carries mr for
// hub. Unlike the entry array's hasEntry there is no run to walk: the
// binary search lands on at most one group and the membership test is a
// single bit probe.
//
//rlc:noalloc
func (p *packed) groupHas(list []packedGroup, hub int32, mr labelseq.ID) bool {
	i, j := 0, len(list)
	for i < j {
		h := int(uint(i+j) >> 1)
		if list[h].hub < hub {
			i = h + 1
		} else {
			j = h
		}
	}
	return i < len(list) && list[i].hub == hub && p.has(list[i].set, mr)
}

// joinGroups merge-joins two packed group lists and reports whether some
// common hub carries mr on both sides — Case 1 of Definition 4 on the
// bit-parallel representation. Hubs are unique per list, so every step
// advances at least one cursor and a matched hub costs two bit probes.
//
//rlc:noalloc
func (p *packed) joinGroups(a, b []packedGroup, mr labelseq.ID) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].hub < b[j].hub:
			i++
		case a[i].hub > b[j].hub:
			j++
		default:
			if p.has(a[i].set, mr) && p.has(b[j].set, mr) {
				return true
			}
			i++
			j++
		}
	}
	return false
}

// queryPacked is queryByID on the packed representation: Case 2 (direct
// groups) then Case 1 (merge join), all membership via AND/shift.
//
//rlc:noalloc
func (ix *Index) queryPacked(s, t graph.Vertex, mr labelseq.ID) bool {
	p := ix.packed
	outS := p.groups[p.outOff[s]:p.outOff[s+1]]
	inT := p.groups[p.inOff[t]:p.inOff[t+1]]
	if p.groupHas(outS, ix.rank[t], mr) || p.groupHas(inT, ix.rank[s], mr) {
		return true
	}
	return p.joinGroups(outS, inT, mr)
}

// setWordsFor returns the pool set width for a dictionary of dictLen
// sequences: enough 64-bit words to key every MR id, at least one.
func setWordsFor(dictLen int) int {
	w := (dictLen + 63) / 64
	if w < 1 {
		w = 1
	}
	return w
}

// pack derives the packed form from the frozen entry array. It is
// deterministic — vertices ascending, Lout before Lin, sets interned in
// first-seen order — so equal entry arrays always produce byte-identical
// packed sections (the packed golden test pins this). Called by Build, the
// v1 loader, and OpenSnapshot on bundles written before the packed form;
// other snapshot opens adopt the bundle's packed sections instead.
func (ix *Index) pack() error {
	n := ix.g.NumVertices()
	w := setWordsFor(ix.dict.Len())
	p := &packed{
		outOff: make([]int32, n+1),
		inOff:  make([]int32, n+1),
	}
	// The unique table: base (4 LE bytes) + the window's little-endian word
	// bytes -> pool id. base is part of the key because two sets with equal
	// windows at different dictionary offsets are different sets.
	table := make(map[string]uint32)
	tmp := make([]uint64, w)
	key := make([]byte, 4+w*8)
	packList := func(list []entry) error {
		for i := 0; i < len(list); {
			hub := list[i].hub
			clear(tmp)
			for ; i < len(list) && list[i].hub == hub; i++ {
				mr := list[i].mr
				tmp[mr>>6] |= 1 << (mr & 63)
			}
			first, last := 0, len(tmp)-1
			for tmp[first] == 0 {
				first++ // a run has >= 1 entry, so some word is non-zero
			}
			for tmp[last] == 0 {
				last--
			}
			span := last - first + 1
			binary.LittleEndian.PutUint32(key, uint32(first))
			for wi, word := range tmp[first : last+1] {
				binary.LittleEndian.PutUint64(key[4+wi*8:], word)
			}
			set, ok := table[string(key[:4+span*8])]
			if !ok {
				if int64(len(table)) >= math.MaxInt32 ||
					int64(len(p.words))+int64(span) > math.MaxInt32 {
					return fmt.Errorf("rlc: packed set pool exceeds 2^31-1 sets or words")
				}
				set = uint32(len(table))
				table[string(key[:4+span*8])] = set
				p.desc = append(p.desc, setDesc{
					off:  uint32(len(p.words)),
					base: uint32(first),
					span: uint32(span),
				})
				p.words = append(p.words, tmp[first:last+1]...)
			}
			p.groups = append(p.groups, packedGroup{hub: hub, set: set})
		}
		return nil
	}
	for v := 0; v < n; v++ {
		p.outOff[v] = int32(len(p.groups))
		if err := packList(ix.lout(graph.Vertex(v))); err != nil {
			return err
		}
	}
	p.outOff[n] = int32(len(p.groups))
	for v := 0; v < n; v++ {
		p.inOff[v] = int32(len(p.groups))
		if err := packList(ix.lin(graph.Vertex(v))); err != nil {
			return err
		}
	}
	p.inOff[n] = int32(len(p.groups))
	p.numSets = int32(len(table))
	ix.packed = p
	return nil
}

// VerifyPacked is the exported face of verifyPacked for inspection tools
// that replicate Snapshot.Verify's integrity pass piecewise (rlcinspect).
func (ix *Index) VerifyPacked() error { return ix.verifyPacked() }

// PackedStats summarizes the packed representation for reporting.
type PackedStats struct {
	// Groups is the number of (vertex, direction, hub) groups — the packed
	// counterpart of the entry count.
	Groups int64
	// Sets is the number of distinct hash-consed MR-sets in the pool.
	Sets int
	// PoolWords is the total 64-bit words across every set's stored window.
	PoolWords int64
	// SizeBytes estimates the resident size of the packed form alone:
	// groups, descriptors, pool words, packed offsets, and the shared
	// dictionary — the counterpart of Stats.SizeBytes for the entry
	// array.
	SizeBytes int64
}

// PackedStats returns the packed representation's summary.
func (ix *Index) PackedStats() PackedStats {
	p := ix.packed
	size := int64(len(p.groups))*8 + int64(len(p.desc))*12 + int64(len(p.words))*8 +
		int64(len(p.outOff)+len(p.inOff))*4
	for i := 0; i < ix.dict.Len(); i++ {
		size += int64(len(ix.dict.Seq(labelseq.ID(i))))*4 + 16
	}
	return PackedStats{
		Groups:    int64(len(p.groups)),
		Sets:      int(p.numSets),
		PoolWords: int64(len(p.words)),
		SizeBytes: size,
	}
}

// verifyPacked re-derives every per-vertex entry list from the packed form
// and demands bit-for-bit equality with the entry array: identical hub
// sequences, every entry's MR bit set, and per-group popcounts equal to the
// run lengths (so the packed side holds no extra bits either).
// Snapshot.Verify runs this on every bundle — checksums catch flipped
// bits, this catches internally consistent packed sections that simply
// disagree with the entries they claim to mirror.
func (ix *Index) verifyPacked() error {
	p := ix.packed
	n := ix.g.NumVertices()
	check := func(what string, list []entry, groups []packedGroup, v int) error {
		gi := 0
		for i := 0; i < len(list); {
			hub := list[i].hub
			if gi >= len(groups) || groups[gi].hub != hub {
				return fmt.Errorf("rlc: packed %s(%d) missing group for hub %d", what, v, hub)
			}
			g := groups[gi]
			runLen := 0
			for ; i < len(list) && list[i].hub == hub; i++ {
				mr := list[i].mr
				if !p.has(g.set, mr) {
					return fmt.Errorf("rlc: packed %s(%d) misses entry (hub %d, mr %d)", what, v, hub, mr)
				}
				runLen++
			}
			d := p.desc[g.set]
			pop := 0
			for _, word := range p.words[d.off : d.off+d.span] {
				pop += bits.OnesCount64(word)
			}
			if pop != runLen {
				return fmt.Errorf("rlc: packed %s(%d) hub %d set has %d bits, entry run has %d", what, v, hub, pop, runLen)
			}
			gi++
		}
		if gi != len(groups) {
			return fmt.Errorf("rlc: packed %s(%d) has %d groups, entry list implies %d", what, v, len(groups), gi)
		}
		return nil
	}
	for v := 0; v < n; v++ {
		if err := check("Lout", ix.lout(graph.Vertex(v)), p.groups[p.outOff[v]:p.outOff[v+1]], v); err != nil {
			return err
		}
		if err := check("Lin", ix.lin(graph.Vertex(v)), p.groups[p.inOff[v]:p.inOff[v+1]], v); err != nil {
			return err
		}
	}
	return nil
}
