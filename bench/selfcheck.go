package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// exactMetrics are counts: two runs of one build on one seed must agree on
// them within the tolerance given, whatever the host does.
var exactMetrics = map[string]float64{
	"alloc_kb_per_input":         1, // KB: timers and goroutine stacks move it by a few hundredths of a per cent
	"disclosed_bytes_per_input":  0,
	"live.delta_bytes_per_epoch": 0,
	"live.first_finding_epoch":   0,
	// Result frames carry measured durations as gob varints, whose width
	// follows their value: a few bytes per shard, under a byte per input.
	"control.wire_bytes_per_input": 2, // B
	"dice.failed_ops_share":        0,
}

// comparison is one workload × metric row of the A/A report.
type comparison struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	// Worse is how much worse B is than A as a share of A (negative: better).
	Worse float64 `json:"worse"`
	Bound float64 `json:"bound"`
	Exact bool    `json:"exact"`
	OK    bool    `json:"ok"`
}

// compareRuns lists every end-to-end metric of two runs of one workload
// beside its bound.
func compareRuns(a, b *result) []comparison {
	var rows []comparison
	defs := append(append([]metricDef(nil), endToEnd...), workloadEndToEnd...)
	for _, m := range defs {
		if !m.appliesTo(a.Workload) {
			continue
		}
		va, vb := a.Metrics[m.Name], b.Metrics[m.Name]
		if x, ok := a.Extra[m.Name]; ok {
			va, vb = x, b.Extra[m.Name]
		}
		c := comparison{Workload: a.Workload, Metric: m.Name, Unit: m.Unit, A: va, B: vb, Bound: m.Bound}
		if va != 0 {
			c.Worse = (vb - va) / va
			if m.Better == "higher" {
				c.Worse = -c.Worse
			}
		} else if vb != 0 {
			c.Worse = 1 // from nothing to something: counted as wholly worse
		}
		if tol, exact := exactMetrics[m.Name]; exact {
			c.Exact = true
			c.OK = math.Abs(va-vb) <= tol
		} else {
			c.OK = c.Worse <= m.Bound
		}
		rows = append(rows, c)
	}
	return rows
}

// selfcheck is the A/A test: the untraced suite twice on the same build and
// seed. Every timing must repeat within its bound and every count exactly;
// the two result sets and the comparison are written to -out as the baseline
// of record (checked in as bench/baseline/seed.json and bench/BASELINE.md).
func selfcheck(o options) error {
	type pass struct {
		Results []*result `json:"results"`
	}
	var passes [2]pass
	for i := range passes {
		for _, w := range workloads {
			r, err := runChild(o, w.name, 0)
			if err != nil {
				return err
			}
			if !r.Correct {
				return fmt.Errorf("%s: outputs are not correct: %s", w.name, strings.Join(r.Problems, "; "))
			}
			passes[i].Results = append(passes[i].Results, r)
		}
	}
	var rows []comparison
	bad := 0
	for i := range workloads {
		for _, c := range compareRuns(passes[0].Results[i], passes[1].Results[i]) {
			rows = append(rows, c)
			if !c.OK {
				bad++
			}
		}
	}
	md := selfcheckMarkdown(o, rows, passes[0].Results, passes[1].Results)
	fmt.Print(md)
	if err := writeJSON(filepath.Join(o.outDir, "selfcheck.json"), struct {
		// Claim is null: an A/A run measures the benchmark, not a change.
		Claim      *string      `json:"claim"`
		Seed       int64        `json:"seed"`
		Seconds    int          `json:"seconds"`
		A          pass         `json:"a"`
		B          pass         `json:"b"`
		Comparison []comparison `json:"comparison"`
	}{nil, o.seed, o.seconds, passes[0], passes[1], rows}); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, "SELFCHECK.md"), []byte(md), 0o644); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d workload × metric pairs outside their bound", bad)
	}
	return nil
}

func selfcheckMarkdown(o options, rows []comparison, a, b []*result) string {
	var s strings.Builder
	fmt.Fprintf(&s, "# A/A selfcheck: two untraced runs of one build, seed %d, -seconds %d\n\n", o.seed, o.seconds)
	s.WriteString("Times are in reference time (see README, host correction). `worse` is how much worse run B\n")
	s.WriteString("read than run A; it must stay within `bound`, and counts marked exact must agree.\n\n")
	s.WriteString("| workload | metric | unit | run A | run B | worse | bound | ok |\n|---|---|---|---:|---:|---:|---:|---|\n")
	for _, c := range rows {
		bound := fmt.Sprintf("%g%%", c.Bound*100)
		if c.Exact {
			bound = "exact"
		} else if c.Bound == 0 {
			bound = "any rise"
		}
		ok := "yes"
		if !c.OK {
			ok = "NO"
		}
		fmt.Fprintf(&s, "| %s | %s | %s | %s | %s | %+.1f%% | %s | %s |\n", c.Workload, c.Metric, c.Unit,
			formatValue(c.A), formatValue(c.B), c.Worse*100, bound, ok)
	}
	s.WriteString("\n| workload | run | raw inputs/s | ref kernel p50 ms | ref spread | batch p90/p10 | disturbed |\n|---|---|---:|---:|---:|---:|---|\n")
	for i := range a {
		for j, r := range []*result{a[i], b[i]} {
			ratio := 0.0
			if r.Disturbance.P10 > 0 {
				ratio = r.Disturbance.P90 / r.Disturbance.P10
			}
			fmt.Fprintf(&s, "| %s | %c | %s | %.1f | %.1f%% | %.2f | %v |\n", r.Workload, 'A'+j,
				formatValue(r.Raw["inputs_per_s"]), r.RefMsP50, r.RefSpread*100, ratio, r.Disturbance.Disturbed)
		}
	}
	return s.String()
}
