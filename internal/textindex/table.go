package textindex

import (
	"maps"
	"slices"
)

// Table numbers distinct strings from 0 in the order they are added:
// Term(id) is the string numbered id, and ID its inverse. An index
// numbers its terms in one, and a database the words of its stored
// texts in another.
//
// A table made by Share reads the numbering of the table it was made
// from. Add copies the numbering before the first string a sharing
// table adds, so a numbering that other tables read is never written,
// and the ids it gave stay valid in the copy. A testbed numbers its
// vocabulary once and shares it with every database.
type Table struct {
	n *numbering
	// own reports whether this table made n, and so may write it.
	own bool
}

// numbering is one table's strings: list[id] is the string, ids its
// inverse.
type numbering struct {
	list []string
	ids  map[string]int32
}

// NewTable returns an empty table that owns its numbering.
func NewTable() Table { return Table{n: &numbering{ids: make(map[string]int32)}, own: true} }

// Share returns a table reading t's numbering, which copies it before
// the first string it adds. t must add no string once it has been
// shared.
func (t Table) Share() Table { return Table{n: t.n} }

// ID returns the id of s and whether s is numbered.
func (t Table) ID(s string) (int32, bool) {
	id, ok := t.n.ids[s]
	return id, ok
}

// Term returns the string numbered id.
func (t Table) Term(id int32) string { return t.n.list[id] }

// size returns the number of strings numbered.
func (t Table) size() int { return len(t.n.list) }

// Add numbers s if it is new and returns its id.
func (t *Table) Add(s string) int32 {
	if id, ok := t.n.ids[s]; ok {
		return id
	}
	if !t.own {
		t.n = &numbering{list: slices.Clone(t.n.list), ids: maps.Clone(t.n.ids)}
		t.own = true
	}
	id := int32(len(t.n.list))
	t.n.list = append(t.n.list, s)
	t.n.ids[s] = id
	return id
}

// lookup is ID for a string held as bytes; it allocates nothing.
func (t Table) lookup(b []byte) (int32, bool) {
	id, ok := t.n.ids[string(b)]
	return id, ok
}
