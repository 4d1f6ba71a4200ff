package index

import (
	"testing"
	"testing/quick"

	"robustqo/internal/catalog"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

func buildTestTable(t *testing.T, keys []int64) *storage.Table {
	t.Helper()
	tab, err := storage.NewTable(&catalog.TableSchema{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "k", Type: catalog.Int},
			{Name: "s", Type: catalog.String},
		},
		Indexes: []catalog.Index{{Name: "ix_k", Column: "k", Kind: catalog.NonClustered}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := tab.Append(value.Row{value.Int(k), value.Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func TestBuildAndRange(t *testing.T) {
	tab := buildTestTable(t, []int64{5, 3, 8, 3, 1, 9, 3})
	ix, err := Build(tab, tab.Schema().Indexes[0])
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 7 || ix.Table() != "t" || ix.Meta().Column != "k" {
		t.Errorf("metadata wrong: len=%d table=%s", ix.Len(), ix.Table())
	}
	rids, scanned := ix.Range(3, 5)
	if scanned != 4 {
		t.Errorf("scanned = %d", scanned)
	}
	// Keys 3 at rids {1,3,6}, key 5 at rid 0 -> ascending rids {0,1,3,6}.
	want := []int32{0, 1, 3, 6}
	if len(rids) != len(want) {
		t.Fatalf("rids = %v", rids)
	}
	for i := range want {
		if rids[i] != want[i] {
			t.Errorf("rids[%d] = %d, want %d", i, rids[i], want[i])
		}
	}
}

func TestRangeEmptyAndInverted(t *testing.T) {
	tab := buildTestTable(t, []int64{1, 2, 3})
	ix, _ := Build(tab, tab.Schema().Indexes[0])
	if rids, n := ix.Range(10, 20); rids != nil || n != 0 {
		t.Errorf("out-of-range = %v, %d", rids, n)
	}
	if rids, n := ix.Range(3, 1); rids != nil || n != 0 {
		t.Errorf("inverted = %v, %d", rids, n)
	}
}

func TestEqualAndCount(t *testing.T) {
	tab := buildTestTable(t, []int64{7, 7, 2, 7})
	ix, _ := Build(tab, tab.Schema().Indexes[0])
	rids, scanned := ix.Equal(7)
	if scanned != 3 || len(rids) != 3 {
		t.Errorf("Equal(7) = %v, %d", rids, scanned)
	}
	if rids, _ := ix.Equal(99); rids != nil {
		t.Errorf("Equal(99) = %v", rids)
	}
}

func TestBuildErrors(t *testing.T) {
	tab := buildTestTable(t, []int64{1})
	if _, err := Build(tab, catalog.Index{Name: "bad", Column: "missing"}); err == nil {
		t.Error("missing column accepted")
	}
	if _, err := Build(tab, catalog.Index{Name: "bad", Column: "s"}); err == nil {
		t.Error("string column accepted")
	}
}

func TestIntersect(t *testing.T) {
	cases := []struct {
		lists [][]int32
		want  []int32
	}{
		{nil, nil},
		{[][]int32{{1, 2, 3}}, []int32{1, 2, 3}},
		{[][]int32{{1, 2, 3}, {2, 3, 4}}, []int32{2, 3}},
		{[][]int32{{1, 2, 3}, {2, 3, 4}, {3}}, []int32{3}},
		{[][]int32{{1, 2}, {3, 4}}, nil},
		{[][]int32{{}, {1}}, nil},
	}
	for _, c := range cases {
		got := Intersect(c.lists...)
		if len(got) != len(c.want) {
			t.Errorf("Intersect(%v) = %v, want %v", c.lists, got, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("Intersect(%v)[%d] = %d, want %d", c.lists, i, got[i], c.want[i])
			}
		}
	}
}

func TestIntersectDoesNotAliasInput(t *testing.T) {
	a := []int32{1, 2, 3}
	got := Intersect(a, []int32{1, 2, 3})
	got[0] = 99
	if a[0] != 1 {
		t.Error("Intersect aliased its input")
	}
}

func TestRangeMatchesNaiveProperty(t *testing.T) {
	f := func(rawKeys []int16, loRaw, hiRaw int16) bool {
		keys := make([]int64, len(rawKeys))
		for i, k := range rawKeys {
			keys[i] = int64(k % 100)
		}
		lo, hi := int64(loRaw%100), int64(hiRaw%100)
		if lo > hi {
			lo, hi = hi, lo
		}
		tab, err := storage.NewTable(&catalog.TableSchema{
			Name:    "q",
			Columns: []catalog.Column{{Name: "k", Type: catalog.Int}},
		})
		if err != nil {
			return false
		}
		for _, k := range keys {
			if err := tab.Append(value.Row{value.Int(k)}); err != nil {
				return false
			}
		}
		ix, err := Build(tab, catalog.Index{Name: "ix", Column: "k"})
		if err != nil {
			return false
		}
		rids, scanned := ix.Range(lo, hi)
		wantSet := make(map[int32]bool)
		for i, k := range keys {
			if k >= lo && k <= hi {
				wantSet[int32(i)] = true
			}
		}
		if len(rids) != len(wantSet) || scanned != len(wantSet) {
			return false
		}
		prev := int32(-1)
		for _, r := range rids {
			if !wantSet[r] || r <= prev {
				return false
			}
			prev = r
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIntersectAgainstMapProperty(t *testing.T) {
	rng := stats.NewRNG(77)
	for trial := 0; trial < 100; trial++ {
		mk := func() []int32 {
			n := testkit.Intn(rng, 30)
			set := make(map[int32]bool)
			for i := 0; i < n; i++ {
				set[int32(testkit.Intn(rng, 40))] = true
			}
			out := make([]int32, 0, len(set))
			for k := int32(0); k < 40; k++ {
				if set[k] {
					out = append(out, k)
				}
			}
			return out
		}
		a, b, c := mk(), mk(), mk()
		got := Intersect(a, b, c)
		inAll := func(x int32, lists ...[]int32) bool {
			for _, l := range lists {
				found := false
				for _, v := range l {
					if v == x {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
			return true
		}
		want := 0
		for k := int32(0); k < 40; k++ {
			if inAll(k, a, b, c) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("trial %d: |intersect| = %d, want %d", trial, len(got), want)
		}
		for _, x := range got {
			if !inAll(x, a, b, c) {
				t.Fatalf("trial %d: %d not in all inputs", trial, x)
			}
		}
	}
}

func TestSetLookupAndBuildAll(t *testing.T) {
	cat := catalog.NewCatalog()
	db := storage.NewDatabase(cat)
	tab, err := db.CreateTable(&catalog.TableSchema{
		Name: "z",
		Columns: []catalog.Column{
			{Name: "a", Type: catalog.Int},
			{Name: "b", Type: catalog.Date},
		},
		Indexes: []catalog.Index{
			{Name: "ix_a", Column: "a", Kind: catalog.NonClustered},
			{Name: "ix_b", Column: "b", Kind: catalog.NonClustered},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = tab.Append(value.Row{value.Int(1), value.Date(2)})
	set, err := BuildAll(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := set.Lookup("z", "a"); !ok {
		t.Error("Lookup(z, a) missing")
	}
	if _, ok := set.Lookup("z", "b"); !ok {
		t.Error("Lookup(z, b) missing")
	}
	if _, ok := set.Lookup("z", "c"); ok {
		t.Error("Lookup(z, c) found")
	}
	if _, ok := set.Lookup("y", "a"); ok {
		t.Error("Lookup(y, a) found")
	}
}

func TestBuildAllPropagatesError(t *testing.T) {
	cat := catalog.NewCatalog()
	db := storage.NewDatabase(cat)
	_, err := db.CreateTable(&catalog.TableSchema{
		Name: "bad",
		Columns: []catalog.Column{
			{Name: "s", Type: catalog.String},
		},
		Indexes: []catalog.Index{{Name: "ix_s", Column: "s"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildAll(db); err == nil {
		t.Error("string index build succeeded")
	}
}
