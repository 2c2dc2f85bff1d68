package core

import (
	"slices"

	"repro/internal/expr"
)

// IntCell is a shared integer monitor variable. Cells may be read or
// written only while holding their monitor (between Enter and Exit, or
// inside Do); the monitor lock is the sole synchronization for cell state,
// exactly as fields of a Java monitor object are guarded by its lock.
// A cell knows its declared name, so the typed predicate builders
// (builder.go) can reference it symbolically.
type IntCell struct {
	v    int64
	name string
	cellWatch
}

// Get returns the current value. Caller must hold the monitor.
func (c *IntCell) Get() int64 { return c.v }

// Set stores v and records the write for the next relay search. Caller
// must hold the monitor.
func (c *IntCell) Set(v int64) {
	c.v = v
	c.wrote()
}

// Add adds d, records the write for the next relay search, and returns
// the new value. Caller must hold the monitor.
func (c *IntCell) Add(d int64) int64 {
	c.v += d
	c.wrote()
	return c.v
}

// BoolCell is a shared boolean monitor variable; see IntCell for the
// locking discipline.
type BoolCell struct {
	v    bool
	name string
	cellWatch
}

// Get returns the current value. Caller must hold the monitor.
func (c *BoolCell) Get() bool { return c.v }

// Set stores v and records the write for the next relay search. Caller
// must hold the monitor.
func (c *BoolCell) Set(v bool) {
	c.v = v
	c.wrote()
}

// cellWatch is the relay search's view of a cell. A waiting predicate can
// turn true only when a cell it reads is written (its locals are frozen,
// Proposition 1), so the search visits only the groups a written cell
// lists as readers (condManager.findTrue). readers holds the groups whose
// tagged conjunctions read the cell: each group's own shared-expression
// cells, and the cells a cached entry's conjunction reads outside its
// tag's form, counted per entry.
type cellWatch struct {
	cm      *condManager
	readers []reader
	dirty   bool // on cm.dirty, written since the last search folded it
}

// reader is one group reading a cell, with the number of links that
// hold it: its own expression's, and one per cached entry conjunction
// reading the cell outside its tag.
type reader struct {
	g *sharedGroup
	n int32
}

// wrote records a write. A cell no group reads costs this one branch; a
// read cell joins cm.dirty once per search.
func (w *cellWatch) wrote() {
	if len(w.readers) != 0 && !w.dirty {
		w.dirty = true
		w.cm.dirty = append(w.cm.dirty, w)
	}
}

// link adds one link from the cell to reader group g.
func (w *cellWatch) link(g *sharedGroup) {
	for i := range w.readers {
		if w.readers[i].g == g {
			w.readers[i].n++
			return
		}
	}
	w.readers = append(w.readers, reader{g: g, n: 1})
}

// unlink drops one link from the cell to g; the group stops being a
// reader with its last link.
func (w *cellWatch) unlink(g *sharedGroup) {
	for i := range w.readers {
		if r := &w.readers[i]; r.g == g {
			if r.n--; r.n == 0 {
				w.readers = slices.Delete(w.readers, i, i+1)
			}
			return
		}
	}
}

// varSlot records one declared shared variable of a monitor.
type varSlot struct {
	typ  expr.Type
	get  expr.Getter // reads the cell; bools encode as 0/1
	ic   *IntCell
	bc   *BoolCell
	name string
}

// watch returns the relay bookkeeping of the slot's cell.
func (s *varSlot) watch() *cellWatch {
	if s.bc != nil {
		return &s.bc.cellWatch
	}
	return &s.ic.cellWatch
}

func (s *varSlot) value() expr.Value {
	if s.typ == expr.TypeBool {
		return expr.BoolValue(s.bc.Get())
	}
	return expr.IntValue(s.ic.Get())
}

// Binding supplies the value of one thread-local variable to Await. The
// bound values are the ~a_t of Definition 2: they are captured at the
// moment waituntil begins and globalize the predicate for the duration of
// the wait.
type Binding struct {
	Name string
	Val  expr.Value
}

// BindInt binds a local integer variable for the duration of an Await.
func BindInt(name string, v int64) Binding {
	return Binding{Name: name, Val: expr.IntValue(v)}
}

// BindBool binds a local boolean variable for the duration of an Await.
func BindBool(name string, v bool) Binding {
	return Binding{Name: name, Val: expr.BoolValue(v)}
}
