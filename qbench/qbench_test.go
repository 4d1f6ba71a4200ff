package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// testScale shrinks the data and the serve_mix pass so each build takes
// a fraction of a second.
const testScale = 0.05

func buildPrepared(t *testing.T, name string, seed uint64) *bench {
	t.Helper()
	b, _, err := workloads[name].build(seed, testScale)
	if err != nil {
		t.Fatalf("%s seed %d: build: %v", name, seed, err)
	}
	if err := b.prepare(); err != nil {
		t.Fatalf("%s seed %d: prepare: %v", name, seed, err)
	}
	return b
}

// TestSeedDeterminesInputs pins that the seed alone fixes the query
// sequence and the reference answers, and that another seed changes
// the sequence.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			a := buildPrepared(t, name, 7)
			b := buildPrepared(t, name, 7)
			c := buildPrepared(t, name, 8)
			if a.sequenceDigest() != b.sequenceDigest() {
				t.Errorf("same seed, different query sequences")
			}
			if a.answersDigest() != b.answersDigest() {
				t.Errorf("same seed, different answers digests")
			}
			if a.sequenceDigest() == c.sequenceDigest() {
				t.Errorf("seeds 7 and 8 gave the same query sequence")
			}
		})
	}
}

// TestCountersRepeat pins that on analytic and robust_sweep the cost
// counters and simulated costs of a pass repeat bit for bit: between
// two builds from one seed, and between an untraced and a traced loop.
// A wall-clock-only change therefore leaves sim_cost_* unchanged.
func TestCountersRepeat(t *testing.T) {
	for _, name := range []string{"analytic", "robust_sweep"} {
		t.Run(name, func(t *testing.T) {
			var firsts [][]outcome
			for i := 0; i < 2; i++ {
				b := buildPrepared(t, name, 3)
				if warm := b.loop(0, nil); warm.failed > 0 {
					t.Fatalf("warm-up: %s", warm.firstErr)
				}
				plain := b.loop(0, nil)
				traced := b.loop(0, newTraceSet(b.clients))
				for _, r := range []*loopResult{plain, traced} {
					if r.failed > 0 {
						t.Fatalf("loop: %s", r.firstErr)
					}
					firsts = append(firsts, r.first)
				}
			}
			for i := 1; i < len(firsts); i++ {
				if !reflect.DeepEqual(firsts[0], firsts[i]) {
					t.Errorf("pass %d differs from pass 0 in counters or simulated cost", i)
				}
			}
		})
	}
}

// TestReportMatchesBenchmarkJSON runs each workload briefly, untraced
// and traced, and checks that the printed metrics are exactly the
// end-to-end and per-layer metrics BENCHMARK.json declares, with the
// declared units, and that every answer was right.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"serve_mix", "analytic", "robust_sweep"}) {
		t.Fatalf("BENCHMARK.json workloads %v", names)
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			list := spec.EndToEnd
			if trace {
				list = spec.PerLayer
			}
			for _, m := range list {
				want[m.Name] = m.Unit
			}
			rep, err := run(options{workload: name, seed: 5, seconds: 0.05, trace: trace, outDir: t.TempDir(), scale: testScale})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			got := map[string]string{}
			for n, m := range rep.Metrics {
				got[n] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics differ from BENCHMARK.json:\n got %v\nwant %v", name, trace, got, want)
			}
		}
	}
}

// TestSelfTimesCoverWall pins that the layers' self times add up to
// the traced queries' wall time.
func TestSelfTimesCoverWall(t *testing.T) {
	b := buildPrepared(t, "serve_mix", 2)
	tr := newTraceSet(b.clients)
	if r := b.loop(0, tr); r.failed > 0 {
		t.Fatal(r.firstErr)
	}
	self, wall := tr.selfTimes()
	var sum int64
	for _, l := range layers {
		sum += int64(self[l])
	}
	if sum != int64(wall) || wall <= 0 {
		t.Errorf("self times sum to %d ns, traced wall is %d ns", sum, wall)
	}
}
