// Command bench measures the DiCE reproduction end to end and layer by layer.
//
// One run measures one workload (-workload) on one core: it builds the system
// from scratch a few dozen times (setup_s), runs the real dice.Campaign /
// live.Runtime / control.Controller+agent.Agent on counted work, checks the
// outputs against the goldens and against each other, and prints every metric
// by name and unit followed by one JSON line. With -trace 1 it instead drives
// the benchmark's own replica of the per-input path under spans and prints
// the per-layer metrics. Without -workload it runs every workload, each in a
// process of its own. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type options struct {
	workload     string
	seed         int64
	seconds      int
	trace        int
	short        bool
	updateGolden bool
	selfcheck    bool
	outDir       string
	goldenDir    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all, each in its own process)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed every input derives from; seed slot s runs campaign seed seed+s")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "run length the counted work is sized for")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run, per-layer metrics; 0: untraced run, end-to-end metrics")
	flag.BoolVar(&o.short, "short", false, "one small batch per workload, correctness checks only")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "rewrite the goldens from this run (default seed only)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "A/A: run the untraced suite twice and compare against the bounds")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for trace files and result JSON")
	flag.StringVar(&o.goldenDir, "golden-dir", "bench/golden", "directory -update-golden writes to")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case o.selfcheck:
		err = selfcheck(o)
	case o.workload == "":
		err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints its report; the
// last line of standard output is the contract's JSON object.
func runOne(o options) error {
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	// One core: the headline is literally per core, and the collector's cost
	// lands in the numbers instead of hiding on a second processor.
	runtime.GOMAXPROCS(1)
	sz := w.sizesFor(o.seconds, o.short)
	if o.updateGolden {
		// A golden pins five slots whatever a timed run uses; nothing is timed.
		sz.Seeds, sz.Repeats, sz.Setups, sz.Quiet = goldenSlots, 1, 1, 4
		if w.kind == kindLive {
			sz.Seeds = 1
		}
	}
	ref := newRefKernel()
	var r *result
	var err error
	switch {
	case o.trace == 1 && w.kind == kindLive:
		r, err = traceLive(w, o.seed, sz, ref, o.outDir)
	case o.trace == 1:
		r, err = traceCampaign(w, o.seed, sz, ref, o.outDir)
	case w.kind == kindLive:
		r, _, err = measureLive(w, o.seed, sz, ref)
	default:
		r, err = measureCampaign(w, o.seed, sz, ref)
	}
	if err != nil {
		return err
	}
	if o.updateGolden {
		if !r.Correct {
			return fmt.Errorf("not writing a golden from an incorrect run: %s", strings.Join(r.Problems, "; "))
		}
		if err := writeGolden(o.goldenDir, r); err != nil {
			return err
		}
	} else {
		verifyGolden(r)
	}
	r.finish(ref)
	printReport(r)
	if err := writeJSON(resultPath(o.outDir, r.Workload, r.Traced), r); err != nil {
		return err
	}
	fmt.Println(contractLine(r))
	if !r.Correct {
		return fmt.Errorf("%s: outputs are not correct", r.Workload)
	}
	return nil
}

func resultPath(outDir, workload string, traced bool) string {
	suffix := ""
	if traced {
		suffix = "-trace"
	}
	return filepath.Join(outDir, "result-"+workload+suffix+".json")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// contractLine is the one JSON object the acceptance harness reads: every
// end-to-end metric of an untraced run, every per-layer metric of a traced one.
func contractLine(r *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if r.Traced {
		for _, m := range layerMetrics() {
			v := r.Layer[m.Name]
			if x, ok := r.Extra[m.Name]; ok {
				v = x
			}
			metrics[m.Name] = value{v, m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = value{r.Metrics[m.Name], m.Unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, metrics})
	return string(line)
}

// printReport prints every metric by name with its unit.
func printReport(r *result) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s  seed %d  %s  sizes %+v\n", r.Workload, r.Seed, mode, r.Sizes)
	row := func(def metricDef, v float64) {
		line := fmt.Sprintf("  %-36s %14s %-9s", def.Name, formatValue(v), def.Unit)
		if raw, ok := r.Raw[def.Name]; ok {
			line += fmt.Sprintf("  raw %s", formatValue(raw))
		}
		if def.Bound > 0 {
			line += fmt.Sprintf("  bound %g%%", def.Bound*100)
		}
		fmt.Println(line)
	}
	fmt.Println("end to end (times in reference time):")
	for _, m := range endToEnd {
		if v, ok := r.Metrics[m.Name]; ok {
			row(m, v)
		}
	}
	for _, m := range workloadEndToEnd {
		if v, ok := r.Extra[m.Name]; ok && m.appliesTo(r.Workload) {
			row(m, v)
		}
	}
	if len(r.Timings) > 0 {
		fmt.Println("timings (median, highest supported percentile, samples):")
		names := make([]string, 0, len(r.Timings))
		for name := range r.Timings {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t := r.Timings[name]
			tail := "-"
			if t.TailP > 0 {
				tail = fmt.Sprintf("p%g %s", t.TailP, formatValue(t.Tail))
			}
			fmt.Printf("  %-36s %14s  %-22s n=%d\n", name, formatValue(t.Median), tail, t.N)
		}
	}
	if r.Traced {
		fmt.Println("per layer:")
		for _, m := range perLayer {
			row(m, r.Layer[m.Name])
		}
	}
	d := r.Disturbance
	state := "steady"
	if d.Disturbed {
		state = "DISTURBED (p90/p10 > " + strconv.FormatFloat(disturbedRatio, 'g', -1, 64) + ")"
	}
	if d.P50 > 0 {
		fmt.Printf("host: batch time p10/p50/p90 %.3f/%.3f/%.3f of slot median, %s\n", d.P10, d.P50, d.P90, state)
	}
	fmt.Printf("host: reference kernel p50 %.1f ms (nominal %g), spread %.1f%% over %d samples\n",
		r.RefMsP50, refNominalMs, r.RefSpread*100, r.RefSamples)
	for _, msg := range r.Warnings {
		fmt.Println("warning:", msg)
	}
	for _, msg := range r.Problems {
		fmt.Println("INCORRECT:", msg)
	}
	fmt.Printf("correct %v, attempted %d, failed %d\n", r.Correct, r.Attempted, r.Failed)
}

func formatValue(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return strconv.FormatFloat(v, 'f', 1, 64)
	default:
		return strconv.FormatFloat(v, 'g', 5, 64)
	}
}

// runChild runs one workload in a process of its own, so that peak_rss_mb is
// per workload, and returns the result file it wrote.
func runChild(o options, workload string, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-trace", strconv.Itoa(trace), "-out", o.outDir, "-golden-dir", o.goldenDir}
	if o.short {
		args = append(args, "-short")
	}
	if o.updateGolden {
		args = append(args, "-update-golden")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(resultPath(o.outDir, workload, trace == 1))
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// runAll runs every workload, untraced or traced as asked, and reports
// whether all of them were correct.
func runAll(o options) error {
	bad := 0
	for _, w := range workloads {
		r, err := runChild(o, w.name, o.trace)
		if err != nil {
			return err
		}
		if !r.Correct {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d workloads were not correct", bad, len(workloads))
	}
	return nil
}
