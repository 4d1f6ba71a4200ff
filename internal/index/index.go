// Package index implements secondary indexes over integer-valued (Int and
// Date) columns: a sorted (key, rid) array supporting point and range
// lookups, plus RID-list intersection — the primitive behind the paper's
// "index intersection" access path.
package index

import (
	"fmt"
	"sort"

	"robustqo/internal/catalog"
	"robustqo/internal/storage"
)

// Entry is one leaf entry of an index.
type Entry struct {
	Key int64
	RID int32
}

// Index is a read-only secondary index over one column of a table,
// physically a (key, rid) array sorted by key then rid.
type Index struct {
	meta    catalog.Index
	table   string
	entries []Entry
}

// Build constructs an index over the given column of the table. Only Int
// and Date columns can be indexed.
func Build(t *storage.Table, meta catalog.Index) (*Index, error) {
	colIdx := t.Schema().ColumnIndex(meta.Column)
	if colIdx < 0 {
		return nil, fmt.Errorf("index: table %q has no column %q", t.Name(), meta.Column)
	}
	col, _ := t.Schema().Column(meta.Column)
	if col.Type != catalog.Int && col.Type != catalog.Date {
		return nil, fmt.Errorf("index: column %q of table %q has unindexable type %s", meta.Column, t.Name(), col.Type)
	}
	keys := t.Ints(colIdx)
	entries := make([]Entry, len(keys))
	for i, k := range keys {
		entries[i] = Entry{Key: k, RID: int32(i)}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Key != entries[j].Key {
			return entries[i].Key < entries[j].Key
		}
		return entries[i].RID < entries[j].RID
	})
	return &Index{meta: meta, table: t.Name(), entries: entries}, nil
}

// Meta returns the catalog descriptor of the index.
func (ix *Index) Meta() catalog.Index { return ix.meta }

// Table returns the indexed table's name.
func (ix *Index) Table() string { return ix.table }

// Len returns the number of leaf entries.
func (ix *Index) Len() int { return len(ix.entries) }

// Range returns the RIDs of rows whose key lies in [lo, hi], in ascending
// RID order, along with the number of leaf entries scanned (equal to the
// number of matches; the cost model charges IndexEntry per scanned entry).
func (ix *Index) Range(lo, hi int64) (rids []int32, scanned int) {
	if hi < lo {
		return nil, 0
	}
	start := sort.Search(len(ix.entries), func(i int) bool { return ix.entries[i].Key >= lo })
	end := sort.Search(len(ix.entries), func(i int) bool { return ix.entries[i].Key > hi })
	if start >= end {
		return nil, 0
	}
	rids = make([]int32, end-start)
	for i := start; i < end; i++ {
		rids[i-start] = ix.entries[i].RID
	}
	sortRIDs(rids)
	return rids, end - start
}

// Equal returns the RIDs of rows whose key equals k, in ascending RID
// order, and the number of leaf entries scanned.
func (ix *Index) Equal(k int64) ([]int32, int) {
	return ix.Range(k, k)
}

func sortRIDs(rids []int32) {
	sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
}

// Intersect returns the RIDs common to every input list. Inputs must each
// be in ascending order (as returned by Range and Equal); the output is
// ascending as well. Intersecting zero lists yields nil.
func Intersect(lists ...[]int32) []int32 {
	if len(lists) == 0 {
		return nil
	}
	// Start from the smallest list to bound the output early.
	smallest := 0
	for i, l := range lists {
		if len(l) < len(lists[smallest]) {
			smallest = i
		}
	}
	result := lists[smallest]
	for i, l := range lists {
		if i == smallest {
			continue
		}
		result = intersect2(result, l)
		if len(result) == 0 {
			return nil
		}
	}
	// Clone so callers cannot alias an input list.
	out := make([]int32, len(result))
	copy(out, result)
	return out
}

func intersect2(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Set is a collection of indexes keyed by table and column, the engine's
// runtime view of the catalog's index metadata.
type Set struct {
	byKey map[string]*Index
}

// NewSet returns an empty index set.
func NewSet() *Set { return &Set{byKey: make(map[string]*Index)} }

// BuildAll constructs every index declared in the database's catalog.
func BuildAll(db *storage.Database) (*Set, error) {
	s := NewSet()
	for _, name := range db.Catalog.TableNames() {
		t, ok := db.Table(name)
		if !ok {
			continue
		}
		for _, meta := range t.Schema().Indexes {
			ix, err := Build(t, meta)
			if err != nil {
				return nil, err
			}
			s.Add(ix)
		}
	}
	return s, nil
}

// Add registers an index, replacing any previous index on the same column.
func (s *Set) Add(ix *Index) {
	s.byKey[ix.Table()+"\x00"+ix.Meta().Column] = ix
}

// Lookup returns the index over table.column, if one exists.
func (s *Set) Lookup(table, column string) (*Index, bool) {
	ix, ok := s.byKey[table+"\x00"+column]
	return ix, ok
}
