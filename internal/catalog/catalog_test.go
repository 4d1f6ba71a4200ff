package catalog

import (
	"strings"
	"testing"
)

func lineitemSchema() *TableSchema {
	return &TableSchema{
		Name: "lineitem",
		Columns: []Column{
			{Name: "l_id", Type: Int},
			{Name: "l_orderkey", Type: Int},
			{Name: "l_partkey", Type: Int},
			{Name: "l_shipdate", Type: Date},
			{Name: "l_receiptdate", Type: Date},
			{Name: "l_extendedprice", Type: Float},
		},
		PrimaryKey: "l_id",
		Foreign: []ForeignKey{
			{Column: "l_orderkey", RefTable: "orders"},
			{Column: "l_partkey", RefTable: "part"},
		},
		Indexes: []Index{
			{Name: "ix_ship", Column: "l_shipdate", Kind: NonClustered},
			{Name: "ix_receipt", Column: "l_receiptdate", Kind: NonClustered},
		},
	}
}

func ordersSchema() *TableSchema {
	return &TableSchema{
		Name: "orders",
		Columns: []Column{
			{Name: "o_orderkey", Type: Int},
			{Name: "o_custkey", Type: Int},
		},
		PrimaryKey: "o_orderkey",
	}
}

func partSchema() *TableSchema {
	return &TableSchema{
		Name: "part",
		Columns: []Column{
			{Name: "p_partkey", Type: Int},
			{Name: "p_size", Type: Int},
		},
		PrimaryKey: "p_partkey",
	}
}

func buildTPCHCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := NewCatalog()
	for _, s := range []*TableSchema{lineitemSchema(), ordersSchema(), partSchema()} {
		if err := c.AddTable(s); err != nil {
			t.Fatalf("AddTable(%s): %v", s.Name, err)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return c
}

func TestTypeString(t *testing.T) {
	for typ, want := range map[Type]string{Int: "INT", Float: "FLOAT", String: "VARCHAR", Date: "DATE"} {
		if got := typ.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", int(typ), got, want)
		}
	}
	if got := Type(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown type string = %q", got)
	}
}

func TestIndexKindString(t *testing.T) {
	if Clustered.String() != "CLUSTERED" || NonClustered.String() != "NONCLUSTERED" {
		t.Error("IndexKind strings wrong")
	}
}

func TestSchemaLookups(t *testing.T) {
	s := lineitemSchema()
	if got := s.ColumnIndex("l_shipdate"); got != 3 {
		t.Errorf("ColumnIndex = %d", got)
	}
	if got := s.ColumnIndex("missing"); got != -1 {
		t.Errorf("ColumnIndex(missing) = %d", got)
	}
	col, ok := s.Column("l_extendedprice")
	if !ok || col.Type != Float {
		t.Errorf("Column = %+v, %v", col, ok)
	}
	if _, ok := s.Column("nope"); ok {
		t.Error("Column(nope) found")
	}
	ix, ok := s.IndexOn("l_shipdate")
	if !ok || ix.Name != "ix_ship" {
		t.Errorf("IndexOn = %+v, %v", ix, ok)
	}
	if _, ok := s.IndexOn("l_extendedprice"); ok {
		t.Error("IndexOn unindexed column found")
	}
}

func TestAddTableValidation(t *testing.T) {
	cases := []struct {
		name   string
		schema *TableSchema
		errSub string
	}{
		{"nil", nil, "name"},
		{"empty name", &TableSchema{}, "name"},
		{"no columns", &TableSchema{Name: "t"}, "no columns"},
		{"unnamed column", &TableSchema{Name: "t", Columns: []Column{{}}}, "unnamed"},
		{"dup column", &TableSchema{Name: "t", Columns: []Column{{Name: "a", Type: Int}, {Name: "a", Type: Int}}}, "duplicate column"},
		{"pk not a column", &TableSchema{Name: "t", Columns: []Column{{Name: "a", Type: Int}}, PrimaryKey: "b"}, "primary key"},
		{"pk not int", &TableSchema{Name: "t", Columns: []Column{{Name: "a", Type: String}}, PrimaryKey: "a"}, "must be INT"},
		{"fk column missing", &TableSchema{Name: "t", Columns: []Column{{Name: "a", Type: Int}},
			Foreign: []ForeignKey{{Column: "x", RefTable: "u"}}}, "foreign key column"},
		{"fk not int", &TableSchema{Name: "t", Columns: []Column{{Name: "a", Type: Float}},
			Foreign: []ForeignKey{{Column: "a", RefTable: "u"}}}, "must be INT"},
		{"fk self", &TableSchema{Name: "t", Columns: []Column{{Name: "a", Type: Int}},
			Foreign: []ForeignKey{{Column: "a", RefTable: "t"}}}, "self-referencing"},
		{"index bad column", &TableSchema{Name: "t", Columns: []Column{{Name: "a", Type: Int}},
			Indexes: []Index{{Name: "ix", Column: "z"}}}, "unknown column"},
	}
	for _, c := range cases {
		err := NewCatalog().AddTable(c.schema)
		if err == nil || !strings.Contains(err.Error(), c.errSub) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.errSub)
		}
	}
}

func TestAddTableDuplicate(t *testing.T) {
	c := NewCatalog()
	if err := c.AddTable(ordersSchema()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(ordersSchema()); err == nil {
		t.Error("duplicate table accepted")
	}
}

func TestValidateMissingRef(t *testing.T) {
	c := NewCatalog()
	if err := c.AddTable(lineitemSchema()); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Errorf("Validate = %v", err)
	}
}

func TestValidateRefWithoutPK(t *testing.T) {
	c := NewCatalog()
	noPK := &TableSchema{Name: "dim", Columns: []Column{{Name: "d", Type: Int}}}
	fact := &TableSchema{Name: "fact", Columns: []Column{{Name: "fk", Type: Int}},
		Foreign: []ForeignKey{{Column: "fk", RefTable: "dim"}}}
	if err := c.AddTable(noPK); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(fact); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "no primary key") {
		t.Errorf("Validate = %v", err)
	}
}

func TestValidateCycle(t *testing.T) {
	c := NewCatalog()
	a := &TableSchema{Name: "a", Columns: []Column{{Name: "id", Type: Int}, {Name: "b_id", Type: Int}},
		PrimaryKey: "id", Foreign: []ForeignKey{{Column: "b_id", RefTable: "b"}}}
	b := &TableSchema{Name: "b", Columns: []Column{{Name: "id", Type: Int}, {Name: "a_id", Type: Int}},
		PrimaryKey: "id", Foreign: []ForeignKey{{Column: "a_id", RefTable: "a"}}}
	if err := c.AddTable(a); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(b); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("Validate = %v", err)
	}
}

func TestTableNamesOrder(t *testing.T) {
	c := buildTPCHCatalog(t)
	got := c.TableNames()
	want := []string{"lineitem", "orders", "part"}
	if len(got) != len(want) {
		t.Fatalf("TableNames = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("TableNames[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestRootOf(t *testing.T) {
	c := buildTPCHCatalog(t)
	root, err := c.RootOf([]string{"part", "lineitem", "orders"})
	if err != nil || root != "lineitem" {
		t.Errorf("RootOf = %q, %v", root, err)
	}
	root, err = c.RootOf([]string{"part"})
	if err != nil || root != "part" {
		t.Errorf("RootOf(part) = %q, %v", root, err)
	}
	// orders and part are unconnected: two roots.
	if _, err := c.RootOf([]string{"orders", "part"}); err == nil {
		t.Error("RootOf with two roots succeeded")
	}
	if _, err := c.RootOf(nil); err == nil {
		t.Error("RootOf(empty) succeeded")
	}
	if _, err := c.RootOf([]string{"nope"}); err == nil {
		t.Error("RootOf(unknown) succeeded")
	}
}

func TestTableLookup(t *testing.T) {
	c := buildTPCHCatalog(t)
	s, ok := c.Table("orders")
	if !ok || s.Name != "orders" {
		t.Errorf("Table(orders) = %v, %v", s, ok)
	}
	if _, ok := c.Table("ghost"); ok {
		t.Error("Table(ghost) found")
	}
}
