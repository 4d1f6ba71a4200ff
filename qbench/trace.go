package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spanName identifies a layer call the benchmark times.
type spanName uint8

const (
	spQuery spanName = iota
	spCheck
	spParse
	spAdmit
	spPlan
	spOptimize
	spCheckMem
	spLive
	spInstrument
	spExecute
	spAnalyze
	spRender
	spSessExplain
	spSessQuery
	numSpans
)

// spanInfo names each span and the layer (module) its self time is
// charged to. A query's wall time is the sum of its spans' self times.
var spanInfo = [numSpans]struct{ name, layer string }{
	spQuery:       {"query", "harness"},
	spCheck:       {"check", "harness"},
	spParse:       {"sqlparse.Parse", "sqlparse"},
	spAdmit:       {"plancache.Admission.Admit", "plancache"},
	spPlan:        {"plancache.Cache.Plan", "plancache"},
	spOptimize:    {"optimizer.Optimize", "optimizer"},
	spCheckMem:    {"plancache.Admission.CheckMemory", "plancache"},
	spLive:        {"obs.ActiveQueries", "obs"},
	spInstrument:  {"engine.InstrumentOpts", "obs"},
	spExecute:     {"engine.Guard.Execute", "engine"},
	spAnalyze:     {"engine.ExplainAnalyze", "engine"},
	spRender:      {"optimizer.Plan.Explain", "optimizer"},
	spSessExplain: {"robustqo.Session.Explain", "optimizer"},
	spSessQuery:   {"robustqo.Session.QueryWithThreshold", "robustqo"},
}

// layers lists every layer a span can be charged to, in report order.
var layers = []string{"harness", "sqlparse", "plancache", "optimizer", "engine", "obs", "robustqo"}

// span is one timed layer call. Times are nanoseconds since the trace
// epoch; parent indexes the same client's spans, -1 for a root.
type span struct {
	name       spanName
	attr       uint8 // plancache.Outcome+1 on plan spans, else 0
	parent     int32
	qid        int64
	start, end int64
}

// tracer records one client's spans in memory. A nil *tracer records
// nothing, so the untraced loop runs the same code.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
}

func (t *tracer) begin(n spanName, qid int64) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if k := len(t.open); k > 0 {
		parent = t.open[k-1]
		qid = t.spans[parent].qid
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: n, parent: parent, qid: qid, start: int64(time.Since(t.epoch))})
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// setAttr annotates span i.
func (t *tracer) setAttr(i int32, a uint8) {
	if t != nil {
		t.spans[i].attr = a
	}
}

// traceSet holds every client's tracer of one traced loop.
type traceSet struct {
	clients []*tracer
}

func newTraceSet(n int) *traceSet {
	ts := &traceSet{}
	epoch := time.Now()
	for i := 0; i < n; i++ {
		ts.clients = append(ts.clients, &tracer{epoch: epoch, spans: make([]span, 0, 1<<16)})
	}
	return ts
}

// durations returns the durations of every span named n whose attr
// passes keep (nil keeps all).
func (ts *traceSet) durations(n spanName, keep func(attr uint8) bool) []time.Duration {
	var out []time.Duration
	for _, t := range ts.clients {
		for _, s := range t.spans {
			if s.name == n && (keep == nil || keep(s.attr)) {
				out = append(out, time.Duration(s.end-s.start))
			}
		}
	}
	return out
}

// selfTimes charges each span's self time — its duration minus what
// its direct children cover — to its layer, and returns the totals
// with the summed wall time of the root spans.
func (ts *traceSet) selfTimes() (map[string]time.Duration, time.Duration) {
	self := map[string]time.Duration{}
	var wall time.Duration
	for _, t := range ts.clients {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			d := s.end - s.start
			self[spanInfo[s.name].layer] += time.Duration(d - child[i])
			if s.parent < 0 {
				wall += time.Duration(d)
			}
		}
	}
	return self, wall
}

// maxWrittenSpans caps the trace file; the self times above use every
// span.
const maxWrittenSpans = 200000

// write stores the spans in the Chrome trace-event format (one "X"
// event per span, one thread per client) and returns the path and the
// number of spans written.
func (ts *traceSet) write(dir, workload string, seed uint64) (string, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "{\"traceEvents\":[\n")
	n := 0
	type ref struct {
		c, i int
		s    span
	}
	var all []ref
	for ci, t := range ts.clients {
		for i, s := range t.spans {
			all = append(all, ref{ci, i, s})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].s.start < all[j].s.start })
	for _, r := range all {
		if n == maxWrittenSpans {
			break
		}
		if n > 0 {
			fmt.Fprint(w, ",\n")
		}
		fmt.Fprintf(w, `{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"span":%d,"parent":%d,"query":%d,"attr":%d}}`,
			spanInfo[r.s.name].name, spanInfo[r.s.name].layer,
			float64(r.s.start)/1e3, float64(r.s.end-r.s.start)/1e3, r.c, r.i, r.s.parent, r.s.qid, r.s.attr)
		n++
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		return "", 0, err
	}
	if err := f.Close(); err != nil {
		return "", 0, err
	}
	return path, n, nil
}
