// Package catalog defines the schema metadata layer of the database
// substrate: column types, table schemas, primary and foreign keys, and
// index descriptors. The sampling, histogram, optimizer, and execution
// layers all consult the catalog rather than carrying schema knowledge of
// their own.
package catalog

import "fmt"

// Type enumerates the column value types supported by the engine.
type Type int

const (
	// Int is a 64-bit signed integer column.
	Int Type = iota
	// Float is a 64-bit floating point column.
	Float
	// String is a variable-length string column.
	String
	// Date is a day-granularity date column stored as days since an
	// arbitrary epoch; it compares and ranges like Int.
	Date
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case String:
		return "VARCHAR"
	case Date:
		return "DATE"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Column describes one column of a table.
type Column struct {
	Name string
	Type Type
}

// ForeignKey declares that Column of the owning table references the
// primary key of RefTable. Only single-column foreign keys to single-column
// primary keys are supported, matching the paper's foreign-key-join query
// model.
type ForeignKey struct {
	Column   string // column in the owning table
	RefTable string // referenced table (whose PK the column stores)
}

// IndexKind distinguishes the physical index layouts the cost model knows
// about.
type IndexKind int

const (
	// Clustered means the table rows are stored in index order; a range
	// scan reads sequential pages.
	Clustered IndexKind = iota
	// NonClustered is a secondary index whose leaf entries are RIDs;
	// fetching qualifying rows costs one random page read per row.
	NonClustered
)

func (k IndexKind) String() string {
	if k == Clustered {
		return "CLUSTERED"
	}
	return "NONCLUSTERED"
}

// Index describes an index over a single column of a table.
type Index struct {
	Name   string
	Column string
	Kind   IndexKind
}

// PartitionKind distinguishes the horizontal-partitioning schemes the
// storage layer implements.
type PartitionKind int

const (
	// HashPartition routes each row to shard hash(key) mod N. Equality
	// predicates on the key prune to a single shard; range predicates
	// cannot prune.
	HashPartition PartitionKind = iota
	// RangePartition routes each row by comparing the key against the
	// ascending Bounds: shard 0 holds keys below Bounds[0], shard i holds
	// [Bounds[i-1], Bounds[i]), and the last shard holds everything from
	// Bounds[N-2] up. Both equality and range predicates prune.
	RangePartition
)

func (k PartitionKind) String() string {
	if k == HashPartition {
		return "HASH"
	}
	return "RANGE"
}

// PartitionSpec declares horizontal partitioning of a table on a single
// Int or Date column. Partitions == 1 (or a nil spec) is the unpartitioned
// degenerate case.
type PartitionSpec struct {
	Column     string
	Kind       PartitionKind
	Partitions int
	// Bounds are the N-1 ascending split points of a RangePartition;
	// must be empty for HashPartition.
	Bounds []int64
}

// TableSchema is the static description of one table.
type TableSchema struct {
	Name       string
	Columns    []Column
	PrimaryKey string // name of the PK column ("" if none); must be of type Int
	Foreign    []ForeignKey
	Indexes    []Index
	// Ordered lists columns by which the physical row order is known to be
	// non-decreasing (e.g. the clustering key, or correlated surrogate
	// keys). The optimizer uses it to skip sorts before merge joins.
	Ordered []string
	// Partition, when non-nil with Partitions > 1, splits the table into
	// per-shard physical segments keyed on Partition.Column. Row ids stay
	// global (partition-major), so readers see one logical table.
	Partition *PartitionSpec
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (s *TableSchema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Column returns the column descriptor by name.
func (s *TableSchema) Column(name string) (Column, bool) {
	i := s.ColumnIndex(name)
	if i < 0 {
		return Column{}, false
	}
	return s.Columns[i], true
}

// IndexOn returns the index over the named column, if any.
func (s *TableSchema) IndexOn(column string) (Index, bool) {
	for _, ix := range s.Indexes {
		if ix.Column == column {
			return ix, true
		}
	}
	return Index{}, false
}

// Catalog is the set of table schemas making up a database, with the
// foreign-key graph validated to be acyclic (the paper assumes acyclic join
// graphs so that join synopses are well defined).
type Catalog struct {
	tables map[string]*TableSchema
	order  []string // insertion order, for deterministic iteration
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*TableSchema)}
}

// AddTable validates and registers a schema. Foreign keys may reference
// tables added later; validation of reference targets and acyclicity
// happens in Validate (called implicitly by users such as the synopsis
// builder, and explicitly by Database.Validate).
func (c *Catalog) AddTable(s *TableSchema) error {
	if s == nil || s.Name == "" {
		return fmt.Errorf("catalog: table must have a name")
	}
	if _, dup := c.tables[s.Name]; dup {
		return fmt.Errorf("catalog: duplicate table %q", s.Name)
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("catalog: table %q has no columns", s.Name)
	}
	seen := make(map[string]bool, len(s.Columns))
	for _, col := range s.Columns {
		if col.Name == "" {
			return fmt.Errorf("catalog: table %q has an unnamed column", s.Name)
		}
		if seen[col.Name] {
			return fmt.Errorf("catalog: table %q has duplicate column %q", s.Name, col.Name)
		}
		seen[col.Name] = true
	}
	if s.PrimaryKey != "" {
		pk, ok := s.Column(s.PrimaryKey)
		if !ok {
			return fmt.Errorf("catalog: table %q primary key %q is not a column", s.Name, s.PrimaryKey)
		}
		if pk.Type != Int {
			return fmt.Errorf("catalog: table %q primary key %q must be INT, got %s", s.Name, s.PrimaryKey, pk.Type)
		}
	}
	for _, fk := range s.Foreign {
		col, ok := s.Column(fk.Column)
		if !ok {
			return fmt.Errorf("catalog: table %q foreign key column %q is not a column", s.Name, fk.Column)
		}
		if col.Type != Int {
			return fmt.Errorf("catalog: table %q foreign key column %q must be INT", s.Name, fk.Column)
		}
		if fk.RefTable == s.Name {
			return fmt.Errorf("catalog: table %q has a self-referencing foreign key", s.Name)
		}
	}
	for _, ix := range s.Indexes {
		if _, ok := s.Column(ix.Column); !ok {
			return fmt.Errorf("catalog: table %q index %q over unknown column %q", s.Name, ix.Name, ix.Column)
		}
	}
	if err := validatePartition(s); err != nil {
		return err
	}
	c.tables[s.Name] = s
	c.order = append(c.order, s.Name)
	return nil
}

// validatePartition checks a schema's partition declaration: the key must
// be an existing Int or Date column, the shard count positive, and range
// bounds strictly ascending with exactly one fewer bound than shards.
func validatePartition(s *TableSchema) error {
	p := s.Partition
	if p == nil {
		return nil
	}
	col, ok := s.Column(p.Column)
	if !ok {
		return fmt.Errorf("catalog: table %q partition key %q is not a column", s.Name, p.Column)
	}
	if col.Type != Int && col.Type != Date {
		return fmt.Errorf("catalog: table %q partition key %q must be INT or DATE, got %s", s.Name, p.Column, col.Type)
	}
	if p.Partitions < 1 {
		return fmt.Errorf("catalog: table %q declares %d partitions; need at least 1", s.Name, p.Partitions)
	}
	switch p.Kind {
	case HashPartition:
		if len(p.Bounds) != 0 {
			return fmt.Errorf("catalog: table %q hash partitioning takes no bounds, got %d", s.Name, len(p.Bounds))
		}
	case RangePartition:
		if len(p.Bounds) != p.Partitions-1 {
			return fmt.Errorf("catalog: table %q range partitioning into %d shards needs %d bounds, got %d",
				s.Name, p.Partitions, p.Partitions-1, len(p.Bounds))
		}
		for i := 1; i < len(p.Bounds); i++ {
			if p.Bounds[i] <= p.Bounds[i-1] {
				return fmt.Errorf("catalog: table %q range bounds must be strictly ascending; bound %d (%d) <= bound %d (%d)",
					s.Name, i, p.Bounds[i], i-1, p.Bounds[i-1])
			}
		}
	default:
		return fmt.Errorf("catalog: table %q has unknown partition kind %d", s.Name, int(p.Kind))
	}
	return nil
}

// Table returns the schema for the named table.
func (c *Catalog) Table(name string) (*TableSchema, bool) {
	s, ok := c.tables[name]
	return s, ok
}

// TableNames returns table names in insertion order.
func (c *Catalog) TableNames() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// Validate checks that all foreign keys reference existing tables with
// primary keys and that the foreign-key graph is acyclic.
func (c *Catalog) Validate() error {
	for _, name := range c.order {
		s := c.tables[name]
		for _, fk := range s.Foreign {
			ref, ok := c.tables[fk.RefTable]
			if !ok {
				return fmt.Errorf("catalog: table %q references unknown table %q", name, fk.RefTable)
			}
			if ref.PrimaryKey == "" {
				return fmt.Errorf("catalog: table %q references table %q which has no primary key", name, fk.RefTable)
			}
		}
	}
	return c.checkAcyclic()
}

func (c *Catalog) checkAcyclic() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(c.tables))
	var visit func(string) error
	visit = func(name string) error {
		switch color[name] {
		case gray:
			return fmt.Errorf("catalog: foreign-key cycle through table %q", name)
		case black:
			return nil
		}
		color[name] = gray
		for _, fk := range c.tables[name].Foreign {
			if _, ok := c.tables[fk.RefTable]; !ok {
				continue // reported by Validate
			}
			if err := visit(fk.RefTable); err != nil {
				return err
			}
		}
		color[name] = black
		return nil
	}
	for _, name := range c.order {
		if err := visit(name); err != nil {
			return err
		}
	}
	return nil
}

// RootOf determines the root relation of a set of tables joined by foreign
// keys: the one table whose primary key is not referenced by any other
// table in the set. The paper's estimation procedure evaluates each SPJ
// expression on the join synopsis of its root relation.
func (c *Catalog) RootOf(tables []string) (string, error) {
	if len(tables) == 0 {
		return "", fmt.Errorf("catalog: empty table set")
	}
	inSet := make(map[string]bool, len(tables))
	for _, t := range tables {
		if _, ok := c.tables[t]; !ok {
			return "", fmt.Errorf("catalog: unknown table %q", t)
		}
		inSet[t] = true
	}
	referenced := make(map[string]bool)
	for _, t := range tables {
		for _, fk := range c.tables[t].Foreign {
			if inSet[fk.RefTable] {
				referenced[fk.RefTable] = true
			}
		}
	}
	var roots []string
	for _, t := range tables {
		if !referenced[t] {
			roots = append(roots, t)
		}
	}
	if len(roots) != 1 {
		return "", fmt.Errorf("catalog: table set %v has %d roots; expected exactly 1 (acyclic foreign-key join)", tables, len(roots))
	}
	return roots[0], nil
}
