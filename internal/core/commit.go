package core

import (
	"github.com/g-rpqs/rlc-go/internal/graph"
)

// committer applies the speculations of one parallel build to the live
// index in rank order. It wraps the committer builder (the one whose
// in/out lists freeze will compact) with the undo log that makes a replay
// abortable.
type committer struct {
	b    *builder
	undo []undoRec
}

// undoRec identifies one entry appended by the current replay: appends are
// strictly list tails, so undoing is truncation by one.
type undoRec struct {
	y   graph.Vertex
	dir direction
}

// apply replays a speculation's buffered inserts onto the live index in
// trajectory order, re-running the full PR2/PR1/dup checks against the
// live lists and interning minimum repeats in exactly the order the
// sequential build would. It reports whether the speculation committed.
//
// Success alone proves the trajectory exact. The live lists only ever grew
// since the speculation's snapshot, and the prune predicates are monotone
// in them, so every decision that pruned against the snapshot prunes live
// as well; the re-checks here cover every decision that inserted. When all
// of them still insert, the sequential build at this commit slot would have
// taken the same decisions in the same order (scheduler.go spells out the
// argument). When one prunes instead, the replay is undone entry by entry —
// including the dictionary interns — and apply returns false so the
// scheduler re-speculates the vertex at the commit frontier.
func (c *committer) apply(r *specResult) bool {
	b := c.b
	c.undo = c.undo[:0]
	dictLen0 := b.ix.dict.Len()
	// The inserts are ordered backward KBS first, then forward; the fixed
	// PR1 operand switches with the direction, exactly as in kbs.
	const noDir = direction(255)
	cur := noDir
	for i := range r.inserts {
		ins := &r.inserts[i]
		if ins.dir != cur {
			cur = ins.dir
			b.loadFixedSet(r.v, cur)
		}
		if st := b.insertCore(ins.y, r.v, ins.dir, r.mr(ins), ins.mrCode); st != inserted {
			c.rollback(dictLen0)
			return false
		}
		c.undo = append(c.undo, undoRec{y: ins.y, dir: ins.dir})
	}
	return true
}

// rollback undoes the current replay: appended entries are truncated off
// their lists in reverse order and the dictionary is cut back to its length
// at replay start.
func (c *committer) rollback(dictLen0 int) {
	b := c.b
	for i := len(c.undo) - 1; i >= 0; i-- {
		u := c.undo[i]
		if u.dir == backward {
			l := b.out[u.y]
			b.out[u.y] = l[:len(l)-1]
		} else {
			l := b.in[u.y]
			b.in[u.y] = l[:len(l)-1]
		}
	}
	b.ix.dict.TruncateTo(dictLen0)
}
