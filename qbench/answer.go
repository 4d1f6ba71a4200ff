package main

import (
	"math"
	"sort"

	"robustqo/internal/catalog"
	"robustqo/internal/value"
)

// keepRows bounds the reference rows kept for the tolerant comparison.
// Larger answers are full-drain projections, whose values are copied
// from storage unchanged, so the exact hash alone decides them.
const keepRows = 4096

// floatTol is the relative tolerance for floats: plans sum in different
// orders, so aggregates may differ in their last bits.
const floatTol = 1e-9

// answer is a reference result in the form the checks need.
type answer struct {
	rows   int
	exact  uint64      // order-independent hash of the rows, floats by their bits
	sorted []value.Row // canonically sorted rows, kept when rows <= keepRows
}

func newAnswer(rows []value.Row) *answer {
	a := &answer{rows: len(rows), exact: hashRows(rows)}
	if len(rows) <= keepRows {
		a.sorted = sortedCopy(rows)
	}
	return a
}

// matches reports whether got is the reference answer as a multiset:
// equal row for row after sorting, floats within floatTol.
func (a *answer) matches(got []value.Row) bool {
	if len(got) != a.rows {
		return false
	}
	if hashRows(got) == a.exact {
		return true
	}
	if a.sorted == nil {
		return false
	}
	g := sortedCopy(got)
	for i := range g {
		if !rowsClose(g[i], a.sorted[i]) {
			return false
		}
	}
	return true
}

func hashRows(rows []value.Row) uint64 {
	var sum uint64
	for _, r := range rows {
		sum += mix(hashRow(r))
	}
	return sum
}

func hashRow(r value.Row) uint64 {
	h := uint64(14695981039346656037)
	add := func(x uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (x & 0xff)) * 1099511628211
			x >>= 8
		}
	}
	for _, v := range r {
		add(uint64(v.Kind))
		switch v.Kind {
		case catalog.Float:
			add(math.Float64bits(v.F))
		case catalog.String:
			for i := 0; i < len(v.S); i++ {
				h = (h ^ uint64(v.S[i])) * 1099511628211
			}
		default:
			add(uint64(v.I))
		}
	}
	return h
}

// mix is the splitmix64 finalizer; summing mixed row hashes makes the
// multiset hash independent of row order.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func sortedCopy(rows []value.Row) []value.Row {
	out := append([]value.Row(nil), rows...)
	sort.Slice(out, func(i, j int) bool { return rowLess(out[i], out[j]) })
	return out
}

func rowLess(a, b value.Row) bool {
	for k := range a {
		if c, err := value.Compare(a[k], b[k]); err == nil && c != 0 {
			return c < 0
		}
	}
	return false
}

func rowsClose(a, b value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		x, y := a[k], b[k]
		if x.Kind != y.Kind {
			return false
		}
		if x.Kind == catalog.Float {
			if !floatsClose(x.F, y.F) {
				return false
			}
			continue
		}
		if x != y {
			return false
		}
	}
	return true
}

func floatsClose(x, y float64) bool {
	if x == y {
		return true
	}
	return math.Abs(x-y) <= floatTol*math.Max(math.Abs(x), math.Abs(y))
}
