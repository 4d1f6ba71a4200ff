package engine

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"robustqo/internal/colstore"
	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
)

// batchStream is one drain as drainBatches saw it: every batch's length
// and rows, in order, the counters charged, and the error that ended it.
type batchStream struct {
	lens     []int
	rows     []string
	counters cost.Counters
	err      error
}

// drainBatches opens a node's operator and pulls it to its end or to
// its first error, reading each batch before the next pull.
func drainBatches(ctx *Context, n Node) batchStream {
	var s batchStream
	op := n.Stream()
	defer op.Close()
	if s.err = op.Open(ctx, &s.counters); s.err != nil {
		return s
	}
	for {
		b, err := op.Next()
		if err != nil {
			s.err = err
			return s
		}
		if b == nil {
			return s
		}
		s.lens = append(s.lens, b.Len())
		for i := 0; i < b.Len(); i++ {
			s.rows = append(s.rows, rowKey(b.CloneRow(i)))
		}
	}
}

// namedNode is one plan shape of a table-driven test; node builds a
// fresh copy of it.
type namedNode struct {
	name string
	node func() Node
}

// hashJoinShape joins orders (filtered by buildPred) to lineitem
// (filtered by probePred) on the order key, probing with lineitem.
func hashJoinShape(buildPred, probePred expr.Expr) *HashJoin {
	return &HashJoin{
		Build:    &SeqScan{Table: "orders", Filter: buildPred},
		Probe:    &SeqScan{Table: "lineitem", Filter: probePred},
		BuildCol: expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
		ProbeCol: expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
	}
}

// batchStreamSources are the morselizable source shapes. Pruned scans
// list shards, so they run only on the sharded layout.
func batchStreamSources(sharded bool) []namedNode {
	ship := testkit.Expr("l_ship BETWEEN 20 AND 70")
	sources := []namedNode{
		{"seqscan-rows", func() Node { return &SeqScan{Table: "lineitem", Filter: ship} }},
		{"seqscan-late", func() Node { return &SeqScan{Table: "lineitem", Filter: ship, Mode: ScanLate} }},
		{"indexrangescan", func() Node {
			return &IndexRangeScan{Table: "lineitem", Range: KeyRange{Column: "l_ship", Lo: 10, Hi: 80},
				Residual: testkit.Expr("l_price < 50")}
		}},
		{"indexintersect", func() Node {
			return &IndexIntersect{Table: "lineitem", Ranges: []KeyRange{
				{Column: "l_ship", Lo: 0, Hi: 90}, {Column: "l_receipt", Lo: 5, Hi: 95},
			}}
		}},
		{"hashjoin", func() Node { return hashJoinShape(testkit.Expr("o_total < 700"), ship) }},
	}
	if sharded {
		sources = append(sources,
			namedNode{"seqscan-rows-pruned", func() Node {
				return &SeqScan{Table: "lineitem", Filter: testkit.Expr("l_price < 60"), Partitions: []int{1, 3}}
			}},
			namedNode{"seqscan-late-pruned", func() Node {
				return &SeqScan{Table: "lineitem", Filter: ship, Mode: ScanLate, Partitions: []int{0, 2}}
			}})
	}
	return sources
}

// encodedCtx builds the columnar encodings of db into ctx, so
// late-materialized scans run on the encoded path.
func encodedCtx(t *testing.T, db *storage.Database, ctx *Context) *Context {
	t.Helper()
	encs, err := colstore.BuildAll(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Encodings = encs
	return ctx
}

// TestExchangeBatchStream pins the batch hand-off: an Exchange emits
// exactly the serial operator's batches — the same lengths in the same
// order, holding the same rows — and charges the same counters, over
// every morselizable source shape.
func TestExchangeBatchStream(t *testing.T) {
	flatDB, flat := testDB(t, 6000, 3, 20)
	shardDB, sharded := partTestDB(t, 6000, 3, 20, 4)
	layouts := []struct {
		shards int
		ctx    *Context
	}{{1, encodedCtx(t, flatDB, flat)}, {4, encodedCtx(t, shardDB, sharded)}}
	for _, l := range layouts {
		shards, ctx := l.shards, l.ctx
		for _, s := range batchStreamSources(shards > 1) {
			name, src := s.name, s.node
			want := drainBatches(ctx, src())
			if want.err != nil {
				t.Fatalf("shards%d/%s serial: %v", shards, name, want.err)
			}
			if len(want.lens) < 4 {
				t.Fatalf("shards%d/%s: %d serial batches; the fixture must span several morsels", shards, name, len(want.lens))
			}
			for _, dop := range []int{2, 4} {
				leg := fmt.Sprintf("shards%d/%s dop=%d", shards, name, dop)
				got := drainBatches(ctx, &Exchange{Source: src(), DOP: dop})
				if got.err != nil {
					t.Fatalf("%s: %v", leg, got.err)
				}
				if !slices.Equal(got.lens, want.lens) {
					t.Fatalf("%s: batch lengths %v, want %v", leg, got.lens, want.lens)
				}
				if !slices.Equal(got.rows, want.rows) {
					t.Fatalf("%s: rows differ from the serial stream", leg)
				}
				if got.counters != want.counters {
					t.Fatalf("%s: counters %s, want %s", leg, got.counters, want.counters)
				}
			}
		}
	}
}

// errMorselFault is the failure faultySource raises.
var errMorselFault = errors.New("injected morsel fault")

// faultySource is a SeqScan whose morsel failAt fails on its second
// pull, after emitting one batch: an error raised inside a later morsel,
// serially and under an Exchange alike.
type faultySource struct {
	*SeqScan
	failAt int
}

func (f *faultySource) Stream() Operator { return &morselOp{src: f} }

func (f *faultySource) Execute(ctx *Context, c *cost.Counters) (*Result, error) {
	return execStream(ctx, f, c)
}

func (f *faultySource) openMorsels(ctx *Context, c *cost.Counters, dop int) (morselRunner, error) {
	r, err := f.SeqScan.openMorsels(ctx, c, dop)
	return faultyRunner{morselRunner: r, failAt: f.failAt}, err
}

type faultyRunner struct {
	morselRunner
	failAt int
}

func (r faultyRunner) newWorker() (morselWorker, error) {
	w, err := r.morselRunner.newWorker()
	return &faultyWorker{morselWorker: w, failAt: r.failAt}, err
}

type faultyWorker struct {
	morselWorker
	failAt, m, pulls int
}

func (w *faultyWorker) seek(m int, c *cost.Counters) {
	w.m, w.pulls = m, 0
	w.morselWorker.seek(m, c)
}

func (w *faultyWorker) Next() (*Batch, error) {
	if w.m == w.failAt && w.pulls == 1 {
		return nil, errMorselFault
	}
	w.pulls++
	return w.morselWorker.Next()
}

// TestExchangeStopPaths runs every way an Exchange stops before its
// source is drained — Close after the first batch, a LIMIT 1 above it,
// and an error inside a later morsel — many times over. Each must hand
// back the serial prefix, and afterwards the goroutine count must be
// back at its baseline. Under -race this is also the proof that no batch
// goes back to the pool while the consumer still reads it: the workers
// refill recycled batches concurrently.
func TestExchangeStopPaths(t *testing.T) {
	_, ctx := partTestDB(t, 6000, 3, 20, 4)
	price := testkit.Expr("l_price < 70")
	sources := []namedNode{
		{"seqscan", func() Node { return &SeqScan{Table: "lineitem", Filter: price} }},
		{"hashjoin", func() Node { return hashJoinShape(nil, price) }},
	}
	faulty := func() Node { return &faultySource{SeqScan: &SeqScan{Table: "lineitem"}, failAt: 3} }
	wantFault := drainBatches(ctx, faulty())
	if !errors.Is(wantFault.err, errMorselFault) || len(wantFault.lens) < 4 {
		t.Fatalf("serial faulty scan: %d batches, err %v; want >= 4 batches then the fault", len(wantFault.lens), wantFault.err)
	}

	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		for _, s := range sources {
			name, src := s.name, s.node
			serial := drainBatches(ctx, src())

			// Close after the first batch, which is read in full first.
			op := (&Exchange{Source: src(), DOP: 4}).Stream()
			var c cost.Counters
			if err := op.Open(ctx, &c); err != nil {
				t.Fatal(err)
			}
			b, err := op.Next()
			if err != nil || b == nil {
				t.Fatalf("%s: first batch %v, %v", name, b, err)
			}
			for r := 0; r < b.Len(); r++ {
				if got := rowKey(b.CloneRow(r)); got != serial.rows[r] {
					t.Fatalf("%s: first batch row %d = %s, want %s", name, r, got, serial.rows[r])
				}
			}
			op.Close()

			// LIMIT 1 over an Exchange.
			res, _, _, err := Run(ctx, &Limit{N: 1, Input: &Exchange{Source: src(), DOP: 4}})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || rowKey(res.Rows[0]) != serial.rows[0] {
				t.Fatalf("%s: LIMIT 1 returned %v, want [%s]", name, res.Rows, serial.rows[0])
			}
		}

		// An error inside a later morsel surfaces after the serial
		// prefix, at DOP 2 and 4.
		for _, dop := range []int{2, 4} {
			got := drainBatches(ctx, &Exchange{Source: faulty(), DOP: dop})
			if !errors.Is(got.err, errMorselFault) {
				t.Fatalf("faulty dop=%d: err %v, want the injected fault", dop, got.err)
			}
			if !slices.Equal(got.lens, wantFault.lens) || !slices.Equal(got.rows, wantFault.rows) {
				t.Fatalf("faulty dop=%d: batch lengths %v before the fault, want %v", dop, got.lens, wantFault.lens)
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestExplainAnalyzeBatchesUnderExchange pins EXPLAIN ANALYZE's actuals
// below an Exchange: the operators the workers run report the rows and
// batches they emitted and pulled, so every node under the Exchange
// reads exactly as it does in the serial plan, and the Exchange itself
// reads as its source.
func TestExplainAnalyzeBatchesUnderExchange(t *testing.T) {
	_, ctx := partTestDB(t, 6000, 3, 20, 4)
	pred := testkit.Expr("l_price < 10")
	pipelines := []namedNode{
		{"scan", func() Node { return &SeqScan{Table: "lineitem", Filter: pred} }},
		{"scan-hashjoin", func() Node { return hashJoinShape(testkit.Expr("o_total < 500"), pred) }},
	}
	count := []AggSpec{{Func: Count, As: "n"}}
	for _, p := range pipelines {
		name, src := p.name, p.node
		serial := Instrument(&Aggregate{Input: src(), Aggs: count})
		if _, _, _, err := Run(ctx, serial); err != nil {
			t.Fatal(err)
		}
		want := ExplainAnalyze(serial.Kids[0], AnalyzeOptions{})
		if serial.Kids[0].Stats.Batches < 4 {
			t.Fatalf("%s: serial source emitted %d batches; the fixture must span several morsels", name, serial.Kids[0].Stats.Batches)
		}
		for _, dop := range []int{2, 4} {
			par := Instrument(&Aggregate{Input: &Exchange{Source: src(), DOP: dop}, Aggs: count})
			if _, _, _, err := Run(ctx, par); err != nil {
				t.Fatal(err)
			}
			exch := par.Kids[0]
			if got := ExplainAnalyze(exch.Kids[0], AnalyzeOptions{}); got != want {
				t.Errorf("%s dop=%d: below the Exchange\n%s\nwant the serial\n%s", name, dop, got, want)
			}
			if src := exch.Kids[0].Stats; exch.Stats.Rows != src.Rows || exch.Stats.Batches != src.Batches {
				t.Errorf("%s dop=%d: Exchange act=%d batches=%d, its source act=%d batches=%d",
					name, dop, exch.Stats.Rows, exch.Stats.Batches, src.Rows, src.Batches)
			}
		}
	}
}
