package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "dice.input", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "cluster.reset", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "netem.settle", Start: 30, End: 60},     // overlaps span 2 by 10
		{ID: 4, Parent: 1, Name: "checker.check", Start: 35, End: 38},    // inside the covered part
		{ID: 5, Parent: 1, Name: "cluster.release", Start: 90, End: 120}, // sticks out of the parent
		{ID: 6, Parent: 3, Name: "bird.update", Start: 40, End: 50},
		{ID: 7, Parent: 0, Name: "dice.input", Start: 200, End: 260}, // a root with no children
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (60 - 10) - (100 - 90), // children cover [10,60] and [90,100]
		2: 30,
		3: 30 - 10,
		4: 3,
		5: 30,
		6: 10,
		7: 60,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}
	agg := aggregate(spans)
	if got := agg["dice.input"]; got.count != 2 || got.total != 160 || got.self != 40+60 {
		t.Errorf("dice.input aggregate = %+v", *got)
	}
	if layerOf("cluster.reset") != "cluster" || layerOf("plain") != "plain" {
		t.Error("layerOf does not split at the first dot")
	}
}

func TestTracerNestsAndNilIsInert(t *testing.T) {
	var off *Tracer
	if id := off.Begin("x"); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	off.End(0)
	off.Tag(0, "k", "v")
	if off.Spans() != nil {
		t.Fatal("nil tracer recorded spans")
	}
	tr := NewTracer()
	a := tr.Begin("dice.input", "unit", "R1<-R2")
	b := tr.Begin("cluster.lease")
	tr.Rename(b, "cluster.reset")
	tr.End(b)
	c := tr.Begin("netem.settle")
	tr.Tag(c, "events", "7")
	tr.End(c)
	tr.End(a)
	spans := tr.Spans()
	if len(spans) != 3 || spans[1].Parent != a || spans[2].Parent != a || spans[0].Parent != 0 {
		t.Fatalf("unexpected nesting: %+v", spans)
	}
	if spans[1].Name != "cluster.reset" || spans[2].Tags["events"] != "7" || spans[0].Tags["unit"] != "R1<-R2" {
		t.Fatalf("rename or tags lost: %+v", spans)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		some bool
	}{
		{5, 0, false}, {19, 0, false}, {20, 50, true}, {41, 50, true}, {99, 50, true},
		{100, 90, true}, {199, 90, true}, {200, 95, true}, {214, 95, true}, {999, 95, true},
		{1000, 99, true}, {10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if ok != c.some || p != c.p {
			t.Errorf("n=%d: got p%g (%v), want p%g (%v)", c.n, p, ok, c.p, c.some)
		}
	}
	v := make([]float64, 214)
	for i := range v {
		v[i] = float64(i + 1)
	}
	got := summarize(v)
	if got.N != 214 || got.Median != 107.5 || got.TailP != 95 || got.Tail != 204 {
		t.Errorf("summarize(1..214) = %+v", got)
	}
	if 214-int(got.Tail) < 10 {
		t.Errorf("fewer than ten samples beyond the reported tail: %+v", got)
	}
}

func TestSeedMedianRateShrugsOffMinorityOutliers(t *testing.T) {
	work := []float64{135, 135, 135}
	clean := [][]float64{{1.0, 1.0, 1.0}, {1.1, 1.1, 1.1}, {0.9, 0.9, 0.9}}
	want := 405.0 / 3.0
	if got := seedMedianRate(work, clean); math.Abs(got-want) > 1e-9 {
		t.Fatalf("clean rate %v, want %v", got, want)
	}
	// One of three repeats per slot hit by a 3x stall: under half, no effect.
	hit := [][]float64{{1.0, 3.0, 1.0}, {3.3, 1.1, 1.1}, {0.9, 0.9, 2.7}}
	if got := seedMedianRate(work, hit); math.Abs(got-want) > 1e-9 {
		t.Errorf("rate with one disturbed repeat per slot %v, want %v", got, want)
	}
	// Two of three in one slot: that slot moves, a mean would move further.
	worse := [][]float64{{3.0, 3.0, 1.0}, {1.1, 1.1, 1.1}, {0.9, 0.9, 0.9}}
	if got := seedMedianRate(work, worse); got >= want || got < 405.0/5.1 {
		t.Errorf("rate with a majority-disturbed slot %v, want in [%v, %v)", got, 405.0/5.1, want)
	}
	if got := seedMedianRate(nil, nil); got != 0 {
		t.Errorf("empty estimator = %v", got)
	}
	d := disturbanceOf(hit)
	if !d.Disturbed || d.P50 != 1 {
		t.Errorf("3x stalls not marked disturbed: %+v", d)
	}
	if d := disturbanceOf(clean); d.Disturbed {
		t.Errorf("steady run marked disturbed: %+v", d)
	}
}

func TestRelSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := relSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("relSpread = %v, want %v", got, want)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestNamesAreWellFormedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is malformed", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, len(w.why))
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), layerMetrics()...) {
		check("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	if n := len(layerMetrics()); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the sizes are cut for %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v", f.Paths)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %+v, code has %s: %s", i, f.Workloads[i], w.name, w.why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(f.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range endToEnd {
		got := f.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: file has %+v, code has %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	layers := layerMetrics()
	if len(f.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(f.PerLayer), len(layers))
	}
	for i, m := range layers {
		got := f.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: file has %+v, code has %+v", i, got, m)
		}
	}

	// And the other way round: what a run prints is exactly what is declared.
	for _, traced := range []bool{false, true} {
		r := newResult(&workloads[0], 1, sizes{}, traced)
		r.Layer = map[string]float64{}
		var line struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(contractLine(r)), &line); err != nil {
			t.Fatal(err)
		}
		want := map[string]string{}
		if traced {
			for _, m := range f.PerLayer {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range f.EndToEnd {
				want[m.Name] = m.Unit
			}
		}
		if len(line.Metrics) != len(want) || line.Attempted < 1 {
			t.Errorf("traced=%v: run prints %d metrics (attempted %d), BENCHMARK.json declares %d", traced, len(line.Metrics), line.Attempted, len(want))
		}
		for name, unit := range want {
			if got, ok := line.Metrics[name]; !ok || got.Unit != unit || got.Value == nil {
				t.Errorf("traced=%v: metric %s missing from the run's output or unit differs", traced, name)
			}
		}
	}
}

func TestCompareRunsGatesOnBoundsAndExactCounts(t *testing.T) {
	w := workloadByName("dist-fed-demo27")
	mk := func(rate, alloc, wire float64) *result {
		r := newResult(w, 1, sizes{}, false)
		r.Metrics["inputs_per_s"], r.Metrics["alloc_kb_per_input"] = rate, alloc
		r.Metrics["setup_s"], r.Metrics["pause_ms_p50"], r.Metrics["peak_rss_mb"], r.Metrics["disclosed_bytes_per_input"] = 0.1, 10, 100, 7000
		r.Extra["control.wire_bytes_per_input"], r.Extra["dice.failed_ops_share"] = wire, 0
		return r
	}
	verdict := func(rows []comparison) map[string]bool {
		out := map[string]bool{}
		for _, c := range rows {
			out[c.Metric] = c.OK
		}
		return out
	}
	same := verdict(compareRuns(mk(100, 3500.04, 19000), mk(95, 3500.11, 19001)))
	for name, ok := range same {
		if !ok {
			t.Errorf("%s flagged between two runs inside their bounds", name)
		}
	}
	if _, gated := same["live.quiet_epoch_ms_p50"]; gated {
		t.Error("a live-only metric was compared on the dist workload")
	}
	off := verdict(compareRuns(mk(100, 3500, 19000), mk(70, 3502, 19003)))
	for _, name := range []string{"inputs_per_s", "alloc_kb_per_input", "control.wire_bytes_per_input"} {
		if off[name] {
			t.Errorf("%s not flagged: 30%% slower, 2 KB more, three bytes more", name)
		}
	}
	if better := verdict(compareRuns(mk(100, 3500, 19000), mk(140, 3500, 19000))); !better["inputs_per_s"] {
		t.Error("a faster second run was flagged")
	}
}
