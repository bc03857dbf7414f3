package dice

import (
	"bytes"
	"context"
	"fmt"
	mrand "math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dice-project/dice/internal/agent"
	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/control"
	"github.com/dice-project/dice/internal/dice"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/fuzz"
	"github.com/dice-project/dice/internal/live"
	"github.com/dice-project/dice/internal/node/procdriver"
	"github.com/dice-project/dice/internal/obs"
	"github.com/dice-project/dice/internal/serve"
	"github.com/dice-project/dice/internal/topology"
)

// ExperimentConfig controls the experiment harness. Quick mode shrinks
// budgets so the whole suite runs in seconds (used by unit tests and CI);
// the full mode is what cmd/dice-bench and EXPERIMENTS.md report.
type ExperimentConfig struct {
	Quick bool
	Seed  int64
}

func (c ExperimentConfig) inputs(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// ---------------------------------------------------------------------------
// E1 — the paper's demo (Figure 1): DiCE explores a 27-router deployment with
// the three fault classes planted and reports what it detects.
// ---------------------------------------------------------------------------

// E1Result summarizes the demo run.
type E1Result struct {
	Routers           int
	Links             int
	ConvergenceEvents int
	SnapshotBytes     int
	SnapshotDuration  time.Duration
	InputsExplored    int
	UniquePaths       int
	Detections        map[string]int
	DetectedClasses   map[string]bool
	Duration          time.Duration
}

// RunE1 runs the demo experiment.
func RunE1(cfg ExperimentConfig) (*E1Result, error) {
	topo := topology.Demo27()
	victim := topo.Nodes[26].Prefixes[0] // a tier-3 stub's prefix
	trigger := bgp.NewCommunity(65001, 666)

	cfgFaults := []faults.ConfigFault{
		faults.MisOrigination{Router: "R12", Prefix: victim},
		faults.MissingImportFilter{Router: "R1", Peer: "R4"},
		faults.DisputeWheel{Routers: []string{"R1", "R2", "R3"}, Prefix: topo.Nodes[12].Prefixes[0]},
	}
	bug := faults.CommunityCrash("R1", trigger)

	copts := cluster.Options{
		Seed:           cfg.Seed,
		ConfigOverride: faults.ApplyConfigFaults(cfgFaults...),
		MaxEvents:      300000,
	}
	live, err := cluster.Build(topo, copts)
	if err != nil {
		return nil, err
	}
	faults.InstallCodeFaults(live.Routers, bug)
	events := live.Converge()

	campaign := NewCampaign(live, topo,
		WithUnits(Unit{
			Explorer:  "R1",
			FromPeer:  "R4",
			MaxInputs: cfg.inputs(48, 10),
			FuzzSeeds: cfg.inputs(10, 4),
			Seed:      cfg.Seed,
		}),
		WithSeed(cfg.Seed),
		WithCodeFaults(bug),
		WithClusterOptions(copts),
		WithShadowMaxEvents(60000),
		WithWorkers(1))
	cres, err := campaign.Run(context.Background())
	if err != nil {
		return nil, err
	}
	res := cres.Units[0]
	res.Duration = cres.Duration

	out := &E1Result{
		Routers:           len(topo.Nodes),
		Links:             len(topo.Links),
		ConvergenceEvents: events,
		SnapshotBytes:     res.SnapshotBytes,
		SnapshotDuration:  res.SnapshotDuration,
		InputsExplored:    res.InputsExplored,
		UniquePaths:       res.ExplorerStats.UniquePaths,
		Detections:        map[string]int{},
		DetectedClasses:   map[string]bool{},
		Duration:          res.Duration,
	}
	for _, d := range res.Detections {
		out.Detections[d.Class.String()]++
		out.DetectedClasses[d.Class.String()] = true
	}
	return out, nil
}

// String renders the result as the demo's textual report.
func (r *E1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E1 (Figure 1 demo): %d routers, %d links\n", r.Routers, r.Links)
	fmt.Fprintf(&b, "  convergence events       %d\n", r.ConvergenceEvents)
	fmt.Fprintf(&b, "  snapshot                 %d bytes in %v\n", r.SnapshotBytes, r.SnapshotDuration)
	fmt.Fprintf(&b, "  inputs explored          %d (%d unique paths)\n", r.InputsExplored, r.UniquePaths)
	for class, n := range r.Detections {
		fmt.Fprintf(&b, "  detected %-22s %d violations\n", class+":", n)
	}
	fmt.Fprintf(&b, "  total wall-clock         %v\n", r.Duration)
	return b.String()
}

// ---------------------------------------------------------------------------
// E2 — the DiCE workflow of Figure 2: snapshot, clone, explore, check, and
// the isolation guarantee.
// ---------------------------------------------------------------------------

// E2Result verifies and quantifies each step of the workflow.
type E2Result struct {
	Nodes              int
	SnapshotDuration   time.Duration
	SnapshotBytes      int
	PerNodeBytes       int
	InFlightMessages   int
	ClonesCreated      int
	InputsExplored     int
	ChecksRun          int
	LiveStateUntouched bool
}

// RunE2 runs the workflow experiment on a 5-node topology.
func RunE2(cfg ExperimentConfig) (*E2Result, error) {
	topo := topology.Star(5)
	copts := cluster.Options{Seed: cfg.Seed}
	live, err := cluster.Build(topo, copts)
	if err != nil {
		return nil, err
	}
	live.Converge()
	beforeChanges := live.TotalBestChanges()

	start := time.Now()
	snap := live.Snapshot()
	snapDur := time.Since(start)
	sizes, err := checkpoint.Measure(snap)
	if err != nil {
		return nil, err
	}

	inputs := cfg.inputs(12, 4)
	res, err := exploreUnit(live, topo,
		Unit{Explorer: explorerOf(topo), FromPeer: firstNeighbor(topo), MaxInputs: inputs, FuzzSeeds: 4, Seed: cfg.Seed},
		WithClusterOptions(copts))
	if err != nil {
		return nil, err
	}

	perNode := 0
	for _, n := range sizes.PerNodeBytes {
		perNode += n
	}
	if len(sizes.PerNodeBytes) > 0 {
		perNode /= len(sizes.PerNodeBytes)
	}
	return &E2Result{
		Nodes:              len(topo.Nodes),
		SnapshotDuration:   snapDur,
		SnapshotBytes:      sizes.TotalBytes,
		PerNodeBytes:       perNode,
		InFlightMessages:   sizes.Messages,
		ClonesCreated:      res.InputsExplored,
		InputsExplored:     res.InputsExplored,
		ChecksRun:          res.InputsExplored * len(checker.DefaultProperties(topo)),
		LiveStateUntouched: live.TotalBestChanges() == beforeChanges,
	}, nil
}

// String renders the workflow report.
func (r *E2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E2 (Figure 2 workflow): %d nodes\n", r.Nodes)
	fmt.Fprintf(&b, "  1. snapshot triggered     %v, %d bytes total (%d bytes/node), %d in-flight msgs\n",
		r.SnapshotDuration, r.SnapshotBytes, r.PerNodeBytes, r.InFlightMessages)
	fmt.Fprintf(&b, "  2. clones created         %d (one per explored input)\n", r.ClonesCreated)
	fmt.Fprintf(&b, "  3. inputs explored        %d\n", r.InputsExplored)
	fmt.Fprintf(&b, "  4. property checks run    %d\n", r.ChecksRun)
	fmt.Fprintf(&b, "  5. live state untouched   %v\n", r.LiveStateUntouched)
	return b.String()
}

// ---------------------------------------------------------------------------
// E3 — detection of the three fault classes across topology sizes (the "§3
// quickly detects faults" claim).
// ---------------------------------------------------------------------------

// E3Row is one (fault class, topology size) measurement.
type E3Row struct {
	Class          string
	Routers        int
	Detected       bool
	InputsToDetect int
	TimeToDetect   time.Duration
	InputsExplored int
}

// RunE3 measures detection latency per fault class and topology size.
func RunE3(cfg ExperimentConfig) ([]E3Row, error) {
	sizes := []int{9, 18, 27}
	if cfg.Quick {
		sizes = []int{9}
	}
	var rows []E3Row
	for _, n := range sizes {
		topo := threeTier(n)
		// Operator mistake: a latent missing import filter at the explorer.
		rows = append(rows, runE3Scenario(cfg, topo, n, "operator-mistake",
			[]faults.ConfigFault{faults.MissingImportFilter{Router: explorerOf(topo), Peer: firstNeighbor(topo)}}, nil))
		// Programming error: community-triggered crash at the explorer.
		bug := faults.CommunityCrash(explorerOf(topo), bgp.NewCommunity(65001, 666))
		rows = append(rows, runE3Scenario(cfg, topo, n, "programming-error", nil, []faults.CodeFault{bug}))
		// Policy conflict: dispute wheel on a ring sub-topology of the same
		// size class (the conflict needs a cycle of preferences).
		ringRow := runE3PolicyConflict(cfg, n)
		rows = append(rows, ringRow)
	}
	return rows, nil
}

func threeTier(n int) *topology.Topology {
	switch n {
	case 9:
		return topology.GaoRexford(2, 3, 4, 11)
	case 18:
		return topology.GaoRexford(3, 6, 9, 12)
	default:
		return topology.Demo27()
	}
}

func explorerOf(topo *topology.Topology) string {
	best, deg := topo.Nodes[0].Name, -1
	for _, n := range topo.Nodes {
		if d := len(topo.NeighborsOf(n.Name)); d > deg {
			best, deg = n.Name, d
		}
	}
	return best
}

// firstNeighbor is the explorer's first neighbour in link order.
func firstNeighbor(topo *topology.Topology) string {
	return topo.NeighborsOf(explorerOf(topo))[0]
}

// exploreUnit runs one exploration round as a single-unit, single-worker
// campaign (concolic on unless opts say otherwise) and returns the unit's
// result stamped with the whole round's wall clock, snapshot included —
// what E2, E3 and E5 report.
func exploreUnit(live *cluster.Cluster, topo *topology.Topology, u Unit, opts ...CampaignOption) (*Result, error) {
	opts = append([]CampaignOption{WithUnits(u), WithWorkers(1), WithSeed(u.Seed)}, opts...)
	cres, err := NewCampaign(live, topo, opts...).Run(context.Background())
	if err != nil {
		return nil, err
	}
	res := cres.Units[0]
	res.Duration = cres.Duration
	return res, nil
}

func runE3Scenario(cfg ExperimentConfig, topo *topology.Topology, size int, class string, cfgFaults []faults.ConfigFault, codeFaults []faults.CodeFault) E3Row {
	copts := cluster.Options{Seed: cfg.Seed, MaxEvents: 300000}
	if len(cfgFaults) > 0 {
		copts.ConfigOverride = faults.ApplyConfigFaults(cfgFaults...)
	}
	live, err := cluster.Build(topo, copts)
	if err != nil {
		return E3Row{Class: class, Routers: size}
	}
	faults.InstallCodeFaults(live.Routers, codeFaults...)
	live.Converge()
	res, err := exploreUnit(live, topo,
		Unit{Explorer: explorerOf(topo), FromPeer: firstNeighbor(topo), MaxInputs: cfg.inputs(48, 12), FuzzSeeds: 8, Seed: cfg.Seed},
		WithCodeFaults(codeFaults...), WithClusterOptions(copts), WithShadowMaxEvents(60000))
	if err != nil {
		return E3Row{Class: class, Routers: size}
	}
	row := E3Row{Class: class, Routers: size, InputsExplored: res.InputsExplored}
	wantClass := checker.ClassOperatorMistake
	if class == "programming-error" {
		wantClass = checker.ClassProgrammingError
	}
	if d := res.FirstDetection(wantClass); d != nil {
		row.Detected = true
		row.InputsToDetect = d.InputIndex
		row.TimeToDetect = d.Elapsed
	}
	return row
}

// runE3PolicyConflict plants a dispute wheel on a ring and measures how long
// exploration takes to expose the oscillation.
func runE3PolicyConflict(cfg ExperimentConfig, size int) E3Row {
	ringSize := 3
	if size >= 18 {
		ringSize = 4
	}
	topo := topology.Ring(ringSize)
	contested := topo.Nodes[0].Prefixes[0]
	copts := cluster.Options{
		Seed:           cfg.Seed,
		ConfigOverride: faults.ApplyConfigFaults(faults.DisputeWheel{Routers: topo.NodeNames(), Prefix: contested}),
		MaxEvents:      100000,
	}
	live, err := cluster.Build(topo, copts)
	if err != nil {
		return E3Row{Class: "policy-conflict", Routers: size}
	}
	live.Converge()
	props := []checker.Property{checker.Convergence{MaxChangesPerPrefix: 6}, checker.NodeHealth{}}
	res, err := exploreUnit(live, topo,
		Unit{Explorer: topo.Nodes[1].Name, FromPeer: topo.Nodes[0].Name, MaxInputs: cfg.inputs(32, 10), FuzzSeeds: 8, Seed: cfg.Seed},
		WithProperties(props...), WithClusterOptions(copts), WithShadowMaxEvents(30000))
	if err != nil {
		return E3Row{Class: "policy-conflict", Routers: size}
	}
	row := E3Row{Class: "policy-conflict", Routers: size, InputsExplored: res.InputsExplored}
	if d := res.FirstDetection(checker.ClassPolicyConflict); d != nil {
		row.Detected = true
		row.InputsToDetect = d.InputIndex
		row.TimeToDetect = d.Elapsed
	}
	return row
}

// FormatE3 renders the detection-latency table.
func FormatE3(rows []E3Row) string {
	var b strings.Builder
	b.WriteString("E3 (detection latency per fault class):\n")
	b.WriteString("  class               routers  detected  inputs  time\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-18s  %7d  %8v  %6d  %v\n", r.Class, r.Routers, r.Detected, r.InputsToDetect, r.TimeToDetect.Round(time.Millisecond))
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E4 — overhead of running DiCE alongside the deployed system.
// ---------------------------------------------------------------------------

// E4Result reports per-UPDATE handling cost with and without instrumentation,
// and checkpoint cost per node.
type E4Result struct {
	Updates               int
	BaselinePerUpdate     time.Duration
	InstrumentedPerUpdate time.Duration
	OverheadPercent       float64
	CheckpointPerNode     time.Duration
	CheckpointBytesNode   int
	SnapshotTotalBytes    int
}

// RunE4 measures the overhead metrics: per-UPDATE handling cost on a small
// deployment with and without DiCE's symbolic instrumentation armed, and
// checkpoint cost on the 27-router demo.
func RunE4(cfg ExperimentConfig) (*E4Result, error) {
	updates := cfg.inputs(2000, 200)
	gen := fuzz.New(fuzz.Options{Seed: cfg.Seed})
	bodies := make([][]byte, updates)
	for i := range bodies {
		bodies[i] = gen.Body()
	}

	baseline, err := timeUpdates(cfg, bodies, false)
	if err != nil {
		return nil, err
	}
	instrumented, err := timeUpdates(cfg, bodies, true)
	if err != nil {
		return nil, err
	}

	// Checkpoint cost on the full demo topology.
	topo := topology.Demo27()
	live, err := cluster.Build(topo, cluster.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	live.Converge()
	start := time.Now()
	snap := live.Snapshot()
	snapDur := time.Since(start)
	sizes, err := checkpoint.Measure(snap)
	if err != nil {
		return nil, err
	}
	perNodeBytes := 0
	for _, n := range sizes.PerNodeBytes {
		perNodeBytes += n
	}
	perNodeBytes /= len(sizes.PerNodeBytes)

	overhead := 0.0
	if baseline > 0 {
		overhead = 100 * float64(instrumented-baseline) / float64(baseline)
	}
	return &E4Result{
		Updates:               updates,
		BaselinePerUpdate:     baseline,
		InstrumentedPerUpdate: instrumented,
		OverheadPercent:       overhead,
		CheckpointPerNode:     snapDur / time.Duration(len(topo.Nodes)),
		CheckpointBytesNode:   perNodeBytes,
		SnapshotTotalBytes:    sizes.TotalBytes,
	}, nil
}

// buildWire wraps an UPDATE body with the BGP message header.
func buildWire(body []byte) []byte { return bgp.FrameUpdate(body) }

// timeUpdates measures average per-UPDATE processing time on a converged
// two-router deployment, optionally arming DiCE's symbolic tracing for every
// message (the "instrumentation on" configuration).
func timeUpdates(cfg ExperimentConfig, bodies [][]byte, instrument bool) (time.Duration, error) {
	topo := topology.Line(2)
	live, err := cluster.Build(topo, cluster.Options{Seed: cfg.Seed})
	if err != nil {
		return 0, err
	}
	live.Converge()
	target := live.Router("R2")
	start := time.Now()
	for _, body := range bodies {
		if instrument {
			in := concolic.NewInput("update", body)
			m := concolic.NewMachine(in, concolic.MachineOptions{})
			target.ExploreNextUpdate(m, "R1")
		}
		live.InjectRaw("R1", "R2", buildWire(body))
		live.Converge()
	}
	return time.Since(start) / time.Duration(len(bodies)), nil
}

// FormatE4 renders the overhead report.
func (r *E4Result) String() string {
	var b strings.Builder
	b.WriteString("E4 (overhead alongside the deployed system):\n")
	fmt.Fprintf(&b, "  UPDATE handling, DiCE off        %v/update (n=%d)\n", r.BaselinePerUpdate, r.Updates)
	fmt.Fprintf(&b, "  UPDATE handling, instrumentation %v/update (%.1f%% overhead)\n", r.InstrumentedPerUpdate, r.OverheadPercent)
	fmt.Fprintf(&b, "  checkpoint                       %v and %d bytes per node (total %d bytes)\n",
		r.CheckpointPerNode, r.CheckpointBytesNode, r.SnapshotTotalBytes)
	return b.String()
}

// ---------------------------------------------------------------------------
// E5 — exploration effectiveness: concolic vs fuzzing vs combined.
// ---------------------------------------------------------------------------

// E5Row is one exploration mode's outcome.
type E5Row struct {
	Mode            string
	Inputs          int
	UniquePaths     int
	CoverageSites   int
	SolverQueries   int
	SolverSteps     int
	FoundBug        bool
	InputsToFindBug int
}

// RunE5 compares input-generation strategies on the programming-error
// scenario.
func RunE5(cfg ExperimentConfig) ([]E5Row, error) {
	topo := topology.Line(3)
	trigger := bgp.NewCommunity(65001, 666)
	bug := faults.CommunityCrash("R2", trigger)
	copts := cluster.Options{Seed: cfg.Seed}

	run := func(mode string, useConcolic bool, seeds int) (E5Row, error) {
		live, err := cluster.Build(topo, copts)
		if err != nil {
			return E5Row{}, err
		}
		faults.InstallCodeFaults(live.Routers, bug)
		live.Converge()
		res, err := exploreUnit(live, topo,
			Unit{Explorer: "R2", FromPeer: "R1", MaxInputs: cfg.inputs(96, 48), FuzzSeeds: seeds, Seed: cfg.Seed},
			WithConcolic(useConcolic), WithCodeFaults(bug), WithClusterOptions(copts))
		if err != nil {
			return E5Row{}, err
		}
		row := E5Row{
			Mode:          mode,
			Inputs:        res.InputsExplored,
			UniquePaths:   res.ExplorerStats.UniquePaths,
			CoverageSites: res.ExplorerStats.CoverageSites,
			SolverQueries: res.ExplorerStats.SolverQueries,
			SolverSteps:   res.ExplorerStats.SolverSteps,
		}
		if d := res.FirstDetection(checker.ClassProgrammingError); d != nil {
			row.FoundBug = true
			row.InputsToFindBug = d.InputIndex
		}
		return row, nil
	}

	var rows []E5Row
	fuzzOnly, err := run("fuzzing-only", false, 8)
	if err != nil {
		return nil, err
	}
	rows = append(rows, fuzzOnly)
	concolicOnly, err := run("concolic (1 seed)", true, 1)
	if err != nil {
		return nil, err
	}
	rows = append(rows, concolicOnly)
	combined, err := run("concolic+fuzzing", true, 8)
	if err != nil {
		return nil, err
	}
	rows = append(rows, combined)
	return rows, nil
}

// FormatE5 renders the comparison table.
func FormatE5(rows []E5Row) string {
	var b strings.Builder
	b.WriteString("E5 (exploration effectiveness):\n")
	b.WriteString("  mode               inputs  paths  coverage  solver-queries  solver-steps  bug-found  inputs-to-bug\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-17s  %6d  %5d  %8d  %14d  %12d  %9v  %13d\n",
			r.Mode, r.Inputs, r.UniquePaths, r.CoverageSites, r.SolverQueries, r.SolverSteps, r.FoundBug, r.InputsToFindBug)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E6 — grammar-based fuzzing quality (small inputs, valid by construction).
// ---------------------------------------------------------------------------

// E6Result reports fuzzer quality metrics.
type E6Result struct {
	Messages        int
	ValidRatio      float64
	MutatedRatio    float64
	MeanBodyBytes   float64
	MaxBodyBytes    int
	GenerationPerMs float64
}

// RunE6 measures the fuzzer.
func RunE6(cfg ExperimentConfig) (*E6Result, error) {
	n := cfg.inputs(5000, 500)
	topo := topology.Demo27()
	var opts fuzz.Options
	opts.Seed = cfg.Seed
	for _, node := range topo.Nodes {
		opts.Prefixes = append(opts.Prefixes, node.Prefixes...)
		opts.ASNs = append(opts.ASNs, node.AS)
	}
	g := fuzz.New(opts)
	valid := g.ValidRatio(n)

	mut := fuzz.New(fuzz.Options{Seed: cfg.Seed, MutationProbability: 0.3})
	mutValid := mut.ValidRatio(n)

	sizeGen := fuzz.New(opts)
	totalBytes, maxBytes := 0, 0
	start := time.Now()
	for i := 0; i < n; i++ {
		b := sizeGen.Body()
		totalBytes += len(b)
		if len(b) > maxBytes {
			maxBytes = len(b)
		}
	}
	elapsed := time.Since(start)

	return &E6Result{
		Messages:        n,
		ValidRatio:      valid,
		MutatedRatio:    mutValid,
		MeanBodyBytes:   float64(totalBytes) / float64(n),
		MaxBodyBytes:    maxBytes,
		GenerationPerMs: float64(n) / float64(elapsed.Milliseconds()+1),
	}, nil
}

// String renders the fuzzer report.
func (r *E6Result) String() string {
	var b strings.Builder
	b.WriteString("E6 (grammar-based fuzzing):\n")
	fmt.Fprintf(&b, "  messages generated        %d\n", r.Messages)
	fmt.Fprintf(&b, "  valid ratio (pure)        %.3f\n", r.ValidRatio)
	fmt.Fprintf(&b, "  valid ratio (30%% mutated) %.3f\n", r.MutatedRatio)
	fmt.Fprintf(&b, "  mean / max body size      %.1f / %d bytes\n", r.MeanBodyBytes, r.MaxBodyBytes)
	fmt.Fprintf(&b, "  generation rate           %.0f msgs/ms\n", r.GenerationPerMs)
	return b.String()
}

// ---------------------------------------------------------------------------
// E7 — narrow information-sharing interface vs full state sharing.
// ---------------------------------------------------------------------------

// E7Result compares disclosure at equal detection power.
type E7Result struct {
	Routers             int
	NarrowBytesPerCheck int
	FullStateBytes      int
	ReductionFactor     float64
	BothDetectHijack    bool
}

// RunE7 measures disclosure for the hijack scenario.
func RunE7(cfg ExperimentConfig) (*E7Result, error) {
	topo := topology.Demo27()
	victim := topo.Nodes[26].Prefixes[0]
	copts := cluster.Options{
		Seed:           cfg.Seed,
		ConfigOverride: faults.ApplyConfigFaults(faults.MisOrigination{Router: "R12", Prefix: victim}),
	}
	live, err := cluster.Build(topo, copts)
	if err != nil {
		return nil, err
	}
	live.Converge()

	props := checker.DefaultProperties(topo)
	report := checker.CheckAll(live, props)
	narrow := report.DisclosedBytes()
	full, err := checker.FullStateDisclosure(live)
	if err != nil {
		return nil, err
	}
	detected := false
	for _, v := range report.Violations() {
		if v.Class == checker.ClassOperatorMistake {
			detected = true
		}
	}
	factor := 0.0
	if narrow > 0 {
		factor = float64(full) / float64(narrow)
	}
	return &E7Result{
		Routers:             len(topo.Nodes),
		NarrowBytesPerCheck: narrow,
		FullStateBytes:      full,
		ReductionFactor:     factor,
		BothDetectHijack:    detected,
	}, nil
}

// String renders the disclosure comparison.
func (r *E7Result) String() string {
	var b strings.Builder
	b.WriteString("E7 (narrow information-sharing interface):\n")
	fmt.Fprintf(&b, "  routers                        %d\n", r.Routers)
	fmt.Fprintf(&b, "  narrow interface disclosure    %d bytes per full check round\n", r.NarrowBytesPerCheck)
	fmt.Fprintf(&b, "  full-state sharing             %d bytes\n", r.FullStateBytes)
	fmt.Fprintf(&b, "  reduction factor               %.1fx\n", r.ReductionFactor)
	fmt.Fprintf(&b, "  hijack detected either way     %v\n", r.BothDetectHijack)
	return b.String()
}

// ---------------------------------------------------------------------------
// E8 — campaign scaling: a multi-explorer campaign over the 27-router demo,
// serial vs parallel clone execution with the same input budget. The clone
// executions are embarrassingly parallel (each worker restores its own
// snapshot clone), so the campaign should scale with the worker pool while
// finding exactly the same detections.
// ---------------------------------------------------------------------------

// E8Result compares serial and parallel execution of the same campaign.
type E8Result struct {
	Routers            int
	Units              int
	TotalInputs        int
	Workers            int
	SerialDuration     time.Duration
	ParallelDuration   time.Duration
	Speedup            float64
	SameDetections     bool
	Detections         int
	DetectionsStreamed int
}

// RunE8 runs the same multi-explorer campaign twice — WithWorkers(1) and
// WithWorkers(runtime.NumCPU()) — and compares wall clock and detections.
func RunE8(cfg ExperimentConfig) (*E8Result, error) {
	topo := topology.Demo27()
	victim := topo.Nodes[26].Prefixes[0]
	copts := cluster.Options{
		Seed: cfg.Seed,
		ConfigOverride: faults.ApplyConfigFaults(
			faults.MisOrigination{Router: "R12", Prefix: victim},
			faults.MissingImportFilter{Router: "R1", Peer: "R4"},
		),
		MaxEvents: 300000,
	}
	live, err := cluster.Build(topo, copts)
	if err != nil {
		return nil, err
	}
	live.Converge()

	totalInputs := cfg.inputs(216, 54)
	out := &E8Result{
		Routers:     len(topo.Nodes),
		TotalInputs: totalInputs,
		Workers:     runtime.NumCPU(),
	}

	run := func(workers int) (time.Duration, *CampaignResult, int, error) {
		var streamed atomic.Int64
		campaign := NewCampaign(live, topo,
			WithStrategy(AllNodesStrategy{}),
			WithBudget(Budget{TotalInputs: totalInputs}),
			WithFuzzSeeds(cfg.inputs(8, 2)),
			WithSeed(cfg.Seed),
			WithClusterOptions(copts),
			WithWorkers(workers),
			WithOnEvent(func(ev Event) {
				if ev.Kind == EventDetection {
					streamed.Add(1)
				}
			}))
		start := time.Now()
		res, err := campaign.Run(context.Background())
		return time.Since(start), res, int(streamed.Load()), err
	}

	serialDur, serialRes, _, err := run(1)
	if err != nil {
		return nil, err
	}
	parallelDur, parallelRes, streamed, err := run(out.Workers)
	if err != nil {
		return nil, err
	}

	keys := func(r *CampaignResult) string {
		ks := make([]string, 0, len(r.Detections))
		for _, d := range r.Detections {
			ks = append(ks, d.Violation.Key())
		}
		sort.Strings(ks)
		return strings.Join(ks, ";")
	}
	out.Units = len(serialRes.Units)
	out.SerialDuration = serialDur
	out.ParallelDuration = parallelDur
	if parallelDur > 0 {
		out.Speedup = float64(serialDur) / float64(parallelDur)
	}
	out.SameDetections = keys(serialRes) == keys(parallelRes)
	out.Detections = len(parallelRes.Detections)
	out.DetectionsStreamed = streamed
	return out, nil
}

// String renders the scaling report.
func (r *E8Result) String() string {
	var b strings.Builder
	b.WriteString("E8 (campaign scaling, serial vs parallel):\n")
	fmt.Fprintf(&b, "  topology                  %d routers, %d exploration units\n", r.Routers, r.Units)
	fmt.Fprintf(&b, "  input budget              %d clone executions per run\n", r.TotalInputs)
	fmt.Fprintf(&b, "  serial   (1 worker)       %v\n", r.SerialDuration.Round(time.Millisecond))
	fmt.Fprintf(&b, "  parallel (%d workers)      %v\n", r.Workers, r.ParallelDuration.Round(time.Millisecond))
	fmt.Fprintf(&b, "  speedup                   %.2fx\n", r.Speedup)
	fmt.Fprintf(&b, "  detections                %d (streamed %d, identical across runs: %v)\n",
		r.Detections, r.DetectionsStreamed, r.SameDetections)
	return b.String()
}

// ---------------------------------------------------------------------------
// E9 — clone lifecycle: cold FromSnapshot rebuilds vs the pooled
// shadow-cluster runtime (immutable images + snapshot store + in-place
// resets). The paper's premise is that clones of the running system are
// cheap; this experiment quantifies how cheap, and that cheapness changes
// nothing observable: the same campaign finds the same detections either way.
// ---------------------------------------------------------------------------

// E9Result compares the clone lifecycles.
type E9Result struct {
	Routers int

	// Per-clone microbenchmark over CloneSamples clones of the demo
	// snapshot: a legacy cold rebuild (config re-validation + record
	// re-parsing per clone) vs an in-place pooled reset of a clone that ran
	// one explored input since its last lease.
	CloneSamples   int
	ColdClonePer   time.Duration
	PooledResetPer time.Duration
	CloneSpeedup   float64

	// The same multi-explorer campaign run twice — cold clones vs pooled
	// clones — with an identical input budget.
	TotalInputs        int
	Workers            int
	ColdDuration       time.Duration
	PooledDuration     time.Duration
	ColdInputsPerSec   float64
	PooledInputsPerSec float64
	CampaignSpeedup    float64
	SameDetections     bool
	Detections         int
	PooledColdBuilds   int
	PooledResets       int

	// Snapshot-store delta accounting: mean encoded node checkpoint vs mean
	// binary delta against the campaign baseline after one explored input.
	MeanNodeBytes  int
	MeanDeltaBytes int
}

// RunE9 measures the clone lifecycle on the 27-router demo.
func RunE9(cfg ExperimentConfig) (*E9Result, error) {
	topo := topology.Demo27()
	victim := topo.Nodes[26].Prefixes[0]
	copts := cluster.Options{
		Seed: cfg.Seed,
		ConfigOverride: faults.ApplyConfigFaults(
			faults.MisOrigination{Router: "R12", Prefix: victim},
			faults.MissingImportFilter{Router: "R1", Peer: "R4"},
		),
		MaxEvents: 300000,
	}
	live, err := cluster.Build(topo, copts)
	if err != nil {
		return nil, err
	}
	live.Converge()

	out := &E9Result{
		Routers:      len(topo.Nodes),
		CloneSamples: cfg.inputs(32, 8),
		TotalInputs:  cfg.inputs(216, 54),
		Workers:      runtime.NumCPU(),
	}

	// 1. Per-clone microbenchmark.
	snap := live.Snapshot()
	start := time.Now()
	for i := 0; i < out.CloneSamples; i++ {
		if _, err := cluster.FromSnapshot(topo, snap, copts); err != nil {
			return nil, err
		}
	}
	out.ColdClonePer = time.Since(start) / time.Duration(out.CloneSamples)

	store, err := checkpoint.NewStore(snap)
	if err != nil {
		return nil, err
	}
	pool := cluster.NewClonePool(topo, store, copts)
	// explore drives one input on a leased clone. A reset rewinds only the
	// routers the last lease moved, so the clone must be used between leases
	// for the reset timed here to be the one a campaign pays.
	peer := topo.NeighborsOf("R1")[0]
	attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{topo.Node(peer).AS, 64999}, NextHop: 99}
	explore := func(c *cluster.Cluster) {
		c.InjectUpdate(peer, "R1", &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{bgp.MustParsePrefix("88.1.0.0/16")}})
		c.Net.RunQuiescent(0)
	}
	for i := 0; i <= out.CloneSamples; i++ { // the first lease is the pool's one cold build
		c, err := pool.Lease()
		if err != nil {
			return nil, err
		}
		explore(c)
		pool.Release(c)
	}
	out.PooledResetPer = pool.Stats().ResetPer()
	if out.PooledResetPer > 0 {
		out.CloneSpeedup = float64(out.ColdClonePer) / float64(out.PooledResetPer)
	}

	// 2. Campaign comparison: identical plan and budget, cold vs pooled.
	runCampaign := func(pooled bool) (time.Duration, *CampaignResult, error) {
		campaign := NewCampaign(live, topo,
			WithStrategy(AllNodesStrategy{}),
			WithBudget(Budget{TotalInputs: out.TotalInputs}),
			WithFuzzSeeds(cfg.inputs(8, 2)),
			WithSeed(cfg.Seed),
			WithClusterOptions(copts),
			WithPooledClones(pooled),
			WithWorkers(out.Workers))
		start := time.Now()
		res, err := campaign.Run(context.Background())
		return time.Since(start), res, err
	}
	coldDur, coldRes, err := runCampaign(false)
	if err != nil {
		return nil, err
	}
	pooledDur, pooledRes, err := runCampaign(true)
	if err != nil {
		return nil, err
	}
	out.ColdDuration, out.PooledDuration = coldDur, pooledDur
	if coldDur > 0 {
		out.ColdInputsPerSec = float64(coldRes.InputsExplored) / coldDur.Seconds()
	}
	if pooledDur > 0 {
		out.PooledInputsPerSec = float64(pooledRes.InputsExplored) / pooledDur.Seconds()
		out.CampaignSpeedup = float64(coldDur) / float64(pooledDur)
	}
	out.SameDetections = detectionFingerprint(coldRes) == detectionFingerprint(pooledRes)
	out.Detections = len(pooledRes.Detections)
	out.PooledColdBuilds = pooledRes.CloneStats.ColdBuilds
	out.PooledResets = pooledRes.CloneStats.Resets

	// 3. Delta accounting: size one diverged clone against the baseline.
	clone, err := pool.Lease()
	if err != nil {
		return nil, err
	}
	defer pool.Release(clone)
	explore(clone)
	totalFull, totalDelta := 0, 0
	for _, name := range clone.RouterNames() {
		d, err := store.Delta(name, clone.Router(name).TakeCheckpoint())
		if err != nil {
			return nil, err
		}
		totalFull += d.FullBytes
		totalDelta += d.DeltaBytes
	}
	out.MeanNodeBytes = totalFull / len(topo.Nodes)
	out.MeanDeltaBytes = totalDelta / len(topo.Nodes)
	return out, nil
}

// ---------------------------------------------------------------------------
// E10 — federated vs centralized testing: the paper's headline scenario. The
// same hijack campaign runs once with an omniscient checker and once split
// into per-AS administrative domains that exchange only privacy-filtered
// checker.Summary digests over the federation bus. Detections must be
// identical; the experiment reports what federation cost (wall clock) and
// what it disclosed (summary bytes vs a full-state exchange).
// ---------------------------------------------------------------------------

// E10Result compares centralized and federated campaigns.
type E10Result struct {
	Routers int
	// Domains is the partition size (one domain per AS); CrossingLinks the
	// inter-domain sessions.
	Domains       int
	CrossingLinks int

	TotalInputs int
	Workers     int

	CentralizedDuration time.Duration
	FederatedDuration   time.Duration
	// OverheadPercent is the federated wall-clock overhead relative to the
	// centralized run (positive means federation is slower).
	OverheadPercent float64

	Detections     int
	SameDetections bool

	// Disclosure accounting for the federated run.
	Summaries            int
	SummaryBytes         int
	SummaryBytesPerInput int
	FullStateBytes       int
	// ReductionVsFullState is FullStateBytes divided by the per-input
	// summary traffic: how much cheaper one round of federated checking is
	// than shipping full node state once.
	ReductionVsFullState float64
	// DomainsReporting counts domains whose exploration contributed at
	// least one campaign-unique detection.
	DomainsReporting int
}

// RunE10 measures federated vs centralized detection on the 27-router
// hijack scenario.
func RunE10(cfg ExperimentConfig) (*E10Result, error) {
	topo := topology.Demo27()
	victim := topo.Nodes[26].Prefixes[0]
	copts := cluster.Options{
		Seed: cfg.Seed,
		ConfigOverride: faults.ApplyConfigFaults(
			faults.MisOrigination{Router: "R12", Prefix: victim},
			faults.MissingImportFilter{Router: "R1", Peer: "R4"},
		),
		MaxEvents: 300000,
	}
	live, err := cluster.Build(topo, copts)
	if err != nil {
		return nil, err
	}
	live.Converge()

	partition := PartitionByAS(topo)
	out := &E10Result{
		Routers:       len(topo.Nodes),
		Domains:       len(partition.Domains),
		CrossingLinks: partition.CrossingLinks(topo),
		TotalInputs:   cfg.inputs(216, 54),
		Workers:       runtime.NumCPU(),
	}

	run := func(extra ...CampaignOption) (time.Duration, *CampaignResult, error) {
		opts := []CampaignOption{
			WithBudget(Budget{TotalInputs: out.TotalInputs}),
			WithFuzzSeeds(cfg.inputs(8, 2)),
			WithSeed(cfg.Seed),
			WithClusterOptions(copts),
			WithWorkers(out.Workers),
		}
		campaign := NewCampaign(live, topo, append(opts, extra...)...)
		start := time.Now()
		res, err := campaign.Run(context.Background())
		return time.Since(start), res, err
	}

	// Centralized baseline: every router explored, one omniscient checker.
	centDur, centRes, err := run(WithStrategy(AllNodesStrategy{}))
	if err != nil {
		return nil, err
	}
	// Federated: the same exploration split into per-AS domains (the default
	// degree strategy explores from each domain's best-connected router —
	// with one router per AS, the identical plan).
	fedDur, fedRes, err := run(WithFederation(partition))
	if err != nil {
		return nil, err
	}

	out.CentralizedDuration, out.FederatedDuration = centDur, fedDur
	if centDur > 0 {
		out.OverheadPercent = 100 * float64(fedDur-centDur) / float64(centDur)
	}
	out.Detections = len(fedRes.Detections)
	out.SameDetections = detectionFingerprint(centRes) == detectionFingerprint(fedRes)
	out.Summaries = fedRes.Disclosed.Summaries
	out.SummaryBytes = fedRes.Disclosed.Bytes
	if fedRes.InputsExplored > 0 {
		out.SummaryBytesPerInput = fedRes.Disclosed.Bytes / fedRes.InputsExplored
	}
	out.FullStateBytes = fedRes.FullStateBytes
	if fedRes.Disclosed.Bytes > 0 && fedRes.InputsExplored > 0 {
		// Full precision: dividing by the truncated per-input int would
		// overstate the reduction.
		perInput := float64(fedRes.Disclosed.Bytes) / float64(fedRes.InputsExplored)
		out.ReductionVsFullState = float64(out.FullStateBytes) / perInput
	}
	for _, d := range fedRes.Domains {
		if d.Detections > 0 {
			out.DomainsReporting++
		}
	}
	return out, nil
}

// String renders the federation report.
func (r *E10Result) String() string {
	var b strings.Builder
	b.WriteString("E10 (federated vs centralized testing):\n")
	fmt.Fprintf(&b, "  topology                  %d routers in %d domains (%d inter-domain links)\n",
		r.Routers, r.Domains, r.CrossingLinks)
	fmt.Fprintf(&b, "  input budget              %d clone executions per run (%d workers)\n", r.TotalInputs, r.Workers)
	fmt.Fprintf(&b, "  centralized               %v\n", r.CentralizedDuration.Round(time.Millisecond))
	fmt.Fprintf(&b, "  federated                 %v (%.1f%% overhead)\n", r.FederatedDuration.Round(time.Millisecond), r.OverheadPercent)
	fmt.Fprintf(&b, "  detections                %d (identical to centralized: %v, %d domains reporting)\n",
		r.Detections, r.SameDetections, r.DomainsReporting)
	fmt.Fprintf(&b, "  disclosure                %d summaries, %d bytes total (%d bytes/input)\n",
		r.Summaries, r.SummaryBytes, r.SummaryBytesPerInput)
	fmt.Fprintf(&b, "  vs full-state sharing     %d bytes once; federated checking is %.1fx cheaper per input\n",
		r.FullStateBytes, r.ReductionVsFullState)
	return b.String()
}

// ---------------------------------------------------------------------------
// E11 — heterogeneous deployments with differential conformance checking.
// The paper's title promises testing of *heterogeneous* systems: federations
// whose members run different implementations of the same protocol. The
// mixed Demo27 variant runs the transit tiers on the bird backend and every
// tier-3 stub on the frr backend (own config dialect, different-but-legal
// decision-process tie-breaking). The same hijack campaign as E10 runs once
// homogeneous and once mixed with checker.CrossImplDivergence added. Three
// claims are measured: the mixed run detects the same fault *classes*
// (heterogeneity masks nothing), the divergence checker deterministically
// flags the seeded disagreement (already in the converged steady state, no
// exploration needed), and — the differential-conformance point — the small
// set of per-node safety findings that legitimately differ between the runs
// (the two backends really do select different best paths) is fully
// explained by the divergence report: every moved detection sits at a
// flagged node.
// ---------------------------------------------------------------------------

// E11Result compares homogeneous and mixed-implementation campaigns.
type E11Result struct {
	Routers int
	// Implementations deployed in the mixed run and how many nodes each has.
	Implementations map[string]int

	TotalInputs int
	Workers     int

	HomogeneousDuration time.Duration
	MixedDuration       time.Duration

	// SafetyDetections are the merged non-divergence detections of the mixed
	// run. SameSafetyClasses reports that the mixed run detects exactly the
	// homogeneous run's fault classes — heterogeneity masks no class of
	// fault. SafetyDiffering counts the detections present in only one of
	// the two runs: the frr stubs legally select different best paths, so a
	// small tail of per-node findings genuinely moves.
	// DivergenceExplainsDiffs is the differential-conformance claim: every
	// differing safety detection sits at a node CrossImplDivergence flagged
	// as implementation-sensitive, so the divergence report accounts for
	// exactly the findings an operator would otherwise see "flap" between
	// vendors.
	SafetyDetections        int
	SameSafetyClasses       bool
	SafetyDiffering         int
	DivergenceExplainsDiffs bool
	// Divergences counts the implementation-divergence detections of the
	// mixed run; DivergentNodes lists the flagged routers, sorted.
	Divergences    int
	DivergentNodes []string
	// SteadyStateDivergence reports that the divergence is already present
	// in the converged deployment before any exploration — the seeded
	// disagreement is a property of the mixed topology, not of one explored
	// input.
	SteadyStateDivergence bool
}

// RunE11 measures heterogeneous detection on the mixed 27-router demo.
func RunE11(cfg ExperimentConfig) (*E11Result, error) {
	victimOf := func(topo *topology.Topology) bgp.Prefix { return topo.Nodes[26].Prefixes[0] }
	optsFor := func(topo *topology.Topology) cluster.Options {
		return cluster.Options{
			Seed: cfg.Seed,
			ConfigOverride: faults.ApplyConfigFaults(
				faults.MisOrigination{Router: "R12", Prefix: victimOf(topo)},
				faults.MissingImportFilter{Router: "R1", Peer: "R4"},
			),
			MaxEvents: 300000,
		}
	}

	out := &E11Result{
		TotalInputs:     cfg.inputs(216, 54),
		Workers:         runtime.NumCPU(),
		Implementations: make(map[string]int),
	}

	run := func(topo *topology.Topology, divergence bool) (time.Duration, *CampaignResult, *cluster.Cluster, error) {
		copts := optsFor(topo)
		live, err := cluster.Build(topo, copts)
		if err != nil {
			return 0, nil, nil, err
		}
		live.Converge()
		props := checker.DefaultProperties(topo)
		if divergence {
			props = append(props, checker.CrossImplDivergence{})
		}
		campaign := NewCampaign(live, topo,
			WithStrategy(AllNodesStrategy{}),
			WithBudget(Budget{TotalInputs: out.TotalInputs}),
			WithFuzzSeeds(cfg.inputs(8, 2)),
			WithSeed(cfg.Seed),
			WithProperties(props...),
			WithClusterOptions(copts),
			WithWorkers(out.Workers))
		start := time.Now()
		res, err := campaign.Run(context.Background())
		return time.Since(start), res, live, err
	}

	// Homogeneous baseline. CrossImplDivergence is configured here too —
	// the property is inert on a single-implementation deployment, which is
	// exactly what this experiment demonstrates.
	homoDur, homoRes, _, err := run(topology.Demo27(), true)
	if err != nil {
		return nil, err
	}
	mixedTopo := topology.Demo27Hetero()
	mixedDur, mixedRes, mixedLive, err := run(mixedTopo, true)
	if err != nil {
		return nil, err
	}

	out.Routers = len(mixedTopo.Nodes)
	out.Implementations = mixedTopo.ImplementationCounts()
	out.HomogeneousDuration, out.MixedDuration = homoDur, mixedDur

	safetyKeys := func(r *CampaignResult) (map[string]Detection, map[checker.FaultClass]bool, int) {
		keys := make(map[string]Detection)
		classes := make(map[checker.FaultClass]bool)
		n := 0
		for _, d := range r.Detections {
			if d.Class == checker.ClassImplDivergence {
				continue
			}
			keys[fmt.Sprintf("%s@%d", d.Violation.Key(), d.InputIndex)] = d
			classes[d.Class] = true
			n++
		}
		return keys, classes, n
	}
	homoKeys, homoClasses, _ := safetyKeys(homoRes)
	mixedKeys, mixedClasses, mixedSafety := safetyKeys(mixedRes)
	out.SafetyDetections = mixedSafety
	out.SameSafetyClasses = len(homoClasses) == len(mixedClasses)
	for cl := range homoClasses {
		if !mixedClasses[cl] {
			out.SameSafetyClasses = false
		}
	}

	divergent := make(map[string]bool)
	for _, d := range mixedRes.Detections {
		if d.Class == checker.ClassImplDivergence {
			out.Divergences++
			divergent[d.Violation.Node] = true
		}
	}
	for n := range divergent {
		out.DivergentNodes = append(out.DivergentNodes, n)
	}
	sort.Strings(out.DivergentNodes)

	// Every detection present in only one run must sit at a node the
	// divergence checker flagged.
	out.DivergenceExplainsDiffs = true
	diff := func(a, b map[string]Detection) {
		for k, d := range a {
			if _, ok := b[k]; ok {
				continue
			}
			out.SafetyDiffering++
			if !divergent[d.Violation.Node] {
				out.DivergenceExplainsDiffs = false
			}
		}
	}
	diff(homoKeys, mixedKeys)
	diff(mixedKeys, homoKeys)

	// The seeded divergence is a steady-state property of the mixed
	// deployment: checking the converged live cluster (no exploration)
	// already flags it.
	out.SteadyStateDivergence = !checker.CrossImplDivergence{}.Check(mixedLive).OK()
	return out, nil
}

// String renders the heterogeneity report.
func (r *E11Result) String() string {
	var b strings.Builder
	b.WriteString("E11 (heterogeneous backends, differential conformance):\n")
	impls := make([]string, 0, len(r.Implementations))
	for impl := range r.Implementations {
		impls = append(impls, impl)
	}
	sort.Strings(impls)
	fmt.Fprintf(&b, "  topology                  %d routers (", r.Routers)
	for i, impl := range impls {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d %s", r.Implementations[impl], impl)
	}
	b.WriteString(")\n")
	fmt.Fprintf(&b, "  input budget              %d clone executions per run (%d workers)\n", r.TotalInputs, r.Workers)
	fmt.Fprintf(&b, "  homogeneous campaign      %v\n", r.HomogeneousDuration.Round(time.Millisecond))
	fmt.Fprintf(&b, "  mixed campaign            %v\n", r.MixedDuration.Round(time.Millisecond))
	fmt.Fprintf(&b, "  safety detections         %d (same fault classes as homogeneous: %v)\n", r.SafetyDetections, r.SameSafetyClasses)
	fmt.Fprintf(&b, "  detections that moved     %d, all at divergence-flagged nodes: %v\n", r.SafetyDiffering, r.DivergenceExplainsDiffs)
	fmt.Fprintf(&b, "  divergences               %d at %d nodes %v (steady-state: %v)\n", r.Divergences, len(r.DivergentNodes), r.DivergentNodes, r.SteadyStateDivergence)
	return b.String()
}

// detectionFingerprint canonicalizes a campaign's detections: violation keys
// with the input index each was first seen at.
func detectionFingerprint(r *CampaignResult) string {
	ks := make([]string, 0, len(r.Detections))
	for _, d := range r.Detections {
		ks = append(ks, fmt.Sprintf("%s@%d", d.Violation.Key(), d.InputIndex))
	}
	sort.Strings(ks)
	return strings.Join(ks, ";")
}

// ---------------------------------------------------------------------------
// E12 — live mode: the continuous checkpoint→explore→report loop. A soak on
// the 27-router demo with a planted mis-origination and missing import
// filter: live churn flows, the runtime takes low-pause epochs into the
// rolling ring, and scheduler-drawn scenario campaigns explore every fresh
// epoch. The second half of the soak goes idle so consecutive epochs capture
// identical state — the cross-epoch dedupe cache must then skip their
// campaigns outright. Measured: checkpoint pause, per-epoch snapshot and
// delta footprint, steady-state shadow overhead, detection latency in
// epochs, minimized trace sizes and the dedupe savings.
// ---------------------------------------------------------------------------

// E12Result summarizes a bounded live soak.
type E12Result struct {
	Routers int
	Epochs  int

	// Checkpoint pause (the consistent cut + fingerprint only) and the final
	// governor cadence.
	PauseMean, PauseMax time.Duration
	PauseBudgetExceeded int
	CheckpointStride    int

	// Mean per-epoch footprint: full encoding vs fingerprint-driven delta.
	SnapshotBytesPerEpoch int
	DeltaBytesPerEpoch    int

	// Exploration volume and the dedupe savings on unchanged epochs.
	Campaigns           int
	CampaignsDeduped    int
	InputsExplored      int
	InputsSaved         int
	PathsSaved          int
	DedupeSavedFraction float64

	// ShadowOverheadPercent is exploration wall clock relative to the live
	// side (traffic + checkpointing).
	ShadowOverheadPercent float64

	// Findings: how many, how fast (in epochs), and how small the minimized
	// traces are.
	Findings            int
	FirstDetectionEpoch int
	AllReverified       bool
	TraceStepsBefore    int
	TraceStepsAfter     int
	DetectedClasses     map[string]bool

	// Minimizer replays executed (pooled search probes + cold confirmations),
	// their cold subset, and cold-vs-pooled disagreements (must be zero).
	MinimizeReplays       int
	MinimizeColdReplays   int
	MinimizeDisagreements int
}

// RunE12 runs the bounded live soak on the demo deployment.
func RunE12(cfg ExperimentConfig) (*E12Result, error) {
	topo := topology.Demo27()
	victim := topo.Nodes[26].Prefixes[0]
	copts := cluster.Options{
		Seed: cfg.Seed,
		ConfigOverride: faults.ApplyConfigFaults(
			faults.MisOrigination{Router: "R12", Prefix: victim},
			faults.MissingImportFilter{Router: "R1", Peer: "R4"},
		),
		MaxEvents: 300000,
	}
	deployed, err := cluster.Build(topo, copts)
	if err != nil {
		return nil, err
	}
	deployed.Converge()

	epochs := cfg.inputs(8, 4)
	churnEpochs := epochs / 2
	churn := live.DefaultTraffic(3)
	// Churn for the first half of the soak, then go idle: the idle epochs
	// capture identical state, which is exactly what the dedupe cache must
	// recognize and skip.
	traffic := func(c *cluster.Cluster, rng *mrand.Rand, epoch int) {
		if epoch <= churnEpochs {
			churn(c, rng, epoch)
		}
	}

	rt, err := live.NewRuntime(deployed, topo, live.Options{
		Seed:              cfg.Seed,
		ClusterOptions:    copts,
		Traffic:           traffic,
		MaxEpochs:         epochs,
		ScenariosPerEpoch: 0, // every registered scenario, every epoch
		InputsPerScenario: cfg.inputs(16, 6),
		FuzzSeeds:         cfg.inputs(4, 2),
		Explorers:         []string{"R1"},
		// The experiment pins the governor: with an effectively unlimited
		// pause budget the checkpoint cadence never stretches, so the soak
		// explores identical epoch states on any machine speed (including
		// under -race) and the results stay comparable across PRs. The
		// adaptive cadence itself is pinned by the governor tests in
		// internal/live.
		PauseBudget: time.Hour,
	})
	if err != nil {
		return nil, err
	}
	report, err := rt.Run(context.Background())
	if err != nil {
		return nil, err
	}
	stats := rt.Stats()

	out := &E12Result{
		Routers:               len(topo.Nodes),
		Epochs:                stats.Epochs,
		PauseMean:             stats.PauseMean(),
		PauseMax:              stats.CheckpointPauseMax,
		PauseBudgetExceeded:   stats.PauseBudgetExceeded,
		CheckpointStride:      stats.CheckpointStride,
		Campaigns:             stats.Campaigns,
		CampaignsDeduped:      stats.CampaignsDeduped,
		InputsExplored:        stats.InputsExplored,
		InputsSaved:           stats.InputsSaved,
		PathsSaved:            stats.PathsSaved,
		DedupeSavedFraction:   stats.DedupeSavedFraction(),
		ShadowOverheadPercent: stats.ShadowOverheadPercent(),
		Findings:              stats.Findings,
		FirstDetectionEpoch:   stats.FirstDetectionEpoch,
		AllReverified:         stats.FindingsReverified == stats.Findings,
		TraceStepsBefore:      stats.TraceStepsBefore,
		TraceStepsAfter:       stats.TraceStepsAfter,
		DetectedClasses:       map[string]bool{},
		MinimizeReplays:       stats.MinimizeReplays,
		MinimizeColdReplays:   stats.MinimizeColdReplays,
		MinimizeDisagreements: stats.MinimizeDisagreements,
	}
	if stats.Epochs > 0 {
		out.SnapshotBytesPerEpoch = stats.SnapshotBytesTotal / stats.Epochs
		out.DeltaBytesPerEpoch = stats.DeltaBytesTotal / stats.Epochs
	}
	for _, f := range report.Findings() {
		out.DetectedClasses[f.Class.String()] = true
	}
	return out, nil
}

// String renders the live-mode report.
func (r *E12Result) String() string {
	var b strings.Builder
	b.WriteString("E12 (live mode: online checkpoint→explore→report soak):\n")
	fmt.Fprintf(&b, "  topology                  %d routers, %d epochs (final stride %d)\n", r.Routers, r.Epochs, r.CheckpointStride)
	fmt.Fprintf(&b, "  checkpoint pause          mean %v, max %v (%d over budget)\n",
		r.PauseMean.Round(time.Microsecond), r.PauseMax.Round(time.Microsecond), r.PauseBudgetExceeded)
	fmt.Fprintf(&b, "  epoch footprint           %d bytes full, %d bytes delta (mean/epoch)\n",
		r.SnapshotBytesPerEpoch, r.DeltaBytesPerEpoch)
	fmt.Fprintf(&b, "  exploration               %d campaigns, %d inputs (shadow overhead %.1f%%)\n",
		r.Campaigns, r.InputsExplored, r.ShadowOverheadPercent)
	fmt.Fprintf(&b, "  cross-epoch dedupe        %d campaigns skipped, %d inputs + %d paths saved (%.0f%% of would-be inputs)\n",
		r.CampaignsDeduped, r.InputsSaved, r.PathsSaved, 100*r.DedupeSavedFraction)
	fmt.Fprintf(&b, "  findings                  %d (first in epoch %d, all traces re-verified: %v)\n",
		r.Findings, r.FirstDetectionEpoch, r.AllReverified)
	fmt.Fprintf(&b, "  trace minimization        %d steps -> %d steps across findings\n", r.TraceStepsBefore, r.TraceStepsAfter)
	fmt.Fprintf(&b, "  minimizer replays         %d (%d pooled probes + %d cold confirmations, %d disagreements)\n",
		r.MinimizeReplays, r.MinimizeReplays-r.MinimizeColdReplays, r.MinimizeColdReplays, r.MinimizeDisagreements)
	classes := make([]string, 0, len(r.DetectedClasses))
	for class := range r.DetectedClasses {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		fmt.Fprintf(&b, "  detected class            %s\n", class)
	}
	return b.String()
}

// String renders the clone-lifecycle report.
func (r *E9Result) String() string {
	var b strings.Builder
	b.WriteString("E9 (clone lifecycle: cold rebuild vs pooled reset):\n")
	fmt.Fprintf(&b, "  topology                  %d routers\n", r.Routers)
	fmt.Fprintf(&b, "  per-clone (n=%d)          cold %v, pooled reset %v (%.1fx faster)\n",
		r.CloneSamples, r.ColdClonePer.Round(time.Microsecond), r.PooledResetPer.Round(time.Microsecond), r.CloneSpeedup)
	fmt.Fprintf(&b, "  campaign, cold clones     %v (%.1f inputs/s)\n", r.ColdDuration.Round(time.Millisecond), r.ColdInputsPerSec)
	fmt.Fprintf(&b, "  campaign, pooled clones   %v (%.1f inputs/s, %d cold builds + %d resets)\n",
		r.PooledDuration.Round(time.Millisecond), r.PooledInputsPerSec, r.PooledColdBuilds, r.PooledResets)
	fmt.Fprintf(&b, "  campaign speedup          %.2fx\n", r.CampaignSpeedup)
	fmt.Fprintf(&b, "  detections                %d (identical cold vs pooled: %v)\n", r.Detections, r.SameDetections)
	fmt.Fprintf(&b, "  delta accounting          %d bytes/node full, %d bytes/node delta vs baseline\n",
		r.MeanNodeBytes, r.MeanDeltaBytes)
	return b.String()
}

// ---------------------------------------------------------------------------
// E13 — distributed campaign execution: the same demo hijack campaign run
// in-process, on one dice-agent, and sharded across three dice-agents through
// the control plane's lease protocol. Measured: wall-clock per mode, the wire
// footprint of the one-time baseline shipment and of shard leases and results
// (summaries and verdicts only — never node state), and the headline
// guarantee that every mode finds the identical detection set.
// ---------------------------------------------------------------------------

// E13Result compares in-process and distributed execution of one campaign.
type E13Result struct {
	Routers     int
	TotalInputs int
	Workers     int
	Shards      int

	InProcessDuration  time.Duration
	OneAgentDuration   time.Duration
	ThreeAgentDuration time.Duration

	// Detections of the 3-agent run; the Same* fields report fingerprint
	// equality against the in-process run.
	Detections                int
	SameDetectionsOneAgent    bool
	SameDetectionsThreeAgents bool

	// AgentsLeased counts agents that executed at least one shard in the
	// 3-agent run; Reassigned counts lease reassignments (0 in a calm run).
	AgentsLeased int
	Reassigned   int

	// Wire accounting of the 3-agent run. BaselineBytes is the one-time
	// snapshot shipment (paid once per agent); ShardBytes the lease traffic;
	// ResultBytes the streamed-back results.
	BaselineBytes int
	ShardBytes    int
	ResultBytes   int
	// ResultBytesPerInput compares against FullStatePerInput, the bytes a
	// full-state exchange per explored input would have cost; Reduction is
	// their ratio.
	ResultBytesPerInput  int
	FullStatePerInput    int
	ReductionVsFullState float64
}

// RunE13 measures distributed execution on the 27-router hijack scenario.
func RunE13(cfg ExperimentConfig) (*E13Result, error) {
	topo := topology.Demo27()
	victim := topo.Nodes[26].Prefixes[0]
	copts := cluster.Options{
		Seed: cfg.Seed,
		ConfigOverride: faults.ApplyConfigFaults(
			faults.MisOrigination{Router: "R12", Prefix: victim},
			faults.MissingImportFilter{Router: "R1", Peer: "R4"},
		),
		MaxEvents: 300000,
	}
	out := &E13Result{
		Routers:     len(topo.Nodes),
		TotalInputs: cfg.inputs(216, 54),
		Workers:     runtime.NumCPU(),
	}
	baseOpts := func() []CampaignOption {
		return []CampaignOption{
			WithStrategy(AllNodesStrategy{}),
			WithBudget(Budget{TotalInputs: out.TotalInputs}),
			WithFuzzSeeds(cfg.inputs(8, 2)),
			WithSeed(cfg.Seed),
			WithClusterOptions(copts),
			WithWorkers(out.Workers),
		}
	}
	deploy := func() (*cluster.Cluster, error) {
		live, err := cluster.Build(topo, copts)
		if err != nil {
			return nil, err
		}
		live.Converge()
		return live, nil
	}

	// In-process reference.
	live, err := deploy()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	localRes, err := NewCampaign(live, topo, baseOpts()...).Run(context.Background())
	if err != nil {
		return nil, err
	}
	out.InProcessDuration = time.Since(start)
	localPrint := detectionFingerprint(localRes)

	runDistributed := func(agents int) (time.Duration, *CampaignResult, *control.Controller, error) {
		live, err := deploy()
		if err != nil {
			return 0, nil, nil, err
		}
		ctrl := control.NewController(control.Config{
			Campaign:      "e13",
			MinAgents:     agents,
			UnitsPerShard: 2,
			LeaseTTL:      30 * time.Second,
		})
		client := control.InProcessClient(control.NewHandler(ctrl))
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var wg sync.WaitGroup
		for i := 0; i < agents; i++ {
			ag := agent.New(agent.Config{
				Name:         fmt.Sprintf("agent-%d", i),
				ControlURL:   "http://control.inproc",
				Client:       client,
				PollInterval: 2 * time.Millisecond,
			})
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = ag.Run(ctx)
			}()
		}
		opts := append(baseOpts(), dice.WithRemoteExecution(ctrl))
		start := time.Now()
		res, err := NewCampaign(live, topo, opts...).Run(context.Background())
		dur := time.Since(start)
		if err != nil {
			return 0, nil, nil, err
		}
		wg.Wait()
		return dur, res, ctrl, nil
	}

	oneDur, oneRes, _, err := runDistributed(1)
	if err != nil {
		return nil, err
	}
	threeDur, threeRes, ctrl, err := runDistributed(3)
	if err != nil {
		return nil, err
	}

	out.OneAgentDuration, out.ThreeAgentDuration = oneDur, threeDur
	out.Detections = len(threeRes.Detections)
	out.SameDetectionsOneAgent = detectionFingerprint(oneRes) == localPrint
	out.SameDetectionsThreeAgents = detectionFingerprint(threeRes) == localPrint
	for _, n := range ctrl.AgentShardCounts() {
		if n > 0 {
			out.AgentsLeased++
		}
	}
	stats := ctrl.RemoteStats()
	out.Shards = stats.Shards
	out.Reassigned = stats.Reassigned
	out.BaselineBytes = stats.BaselineBytes
	out.ShardBytes = stats.ShardBytes
	out.ResultBytes = stats.ResultBytes
	if threeRes.InputsExplored > 0 {
		out.ResultBytesPerInput = stats.ResultBytes / threeRes.InputsExplored
	}
	out.FullStatePerInput = threeRes.FullStateBytes
	if stats.ResultBytes > 0 && threeRes.InputsExplored > 0 {
		perInput := float64(stats.ResultBytes) / float64(threeRes.InputsExplored)
		out.ReductionVsFullState = float64(out.FullStatePerInput) / perInput
	}

	return out, nil
}

// String renders the distributed-execution report.
func (r *E13Result) String() string {
	var b strings.Builder
	b.WriteString("E13 (distributed execution: control plane + agents):\n")
	fmt.Fprintf(&b, "  topology                  %d routers, %d shards of the %d-input budget (%d workers)\n",
		r.Routers, r.Shards, r.TotalInputs, r.Workers)
	fmt.Fprintf(&b, "  in-process                %v\n", r.InProcessDuration.Round(time.Millisecond))
	fmt.Fprintf(&b, "  1 agent                   %v (identical detections: %v)\n",
		r.OneAgentDuration.Round(time.Millisecond), r.SameDetectionsOneAgent)
	fmt.Fprintf(&b, "  3 agents                  %v (identical detections: %v, %d agents leased, %d reassignments)\n",
		r.ThreeAgentDuration.Round(time.Millisecond), r.SameDetectionsThreeAgents, r.AgentsLeased, r.Reassigned)
	fmt.Fprintf(&b, "  detections                %d\n", r.Detections)
	fmt.Fprintf(&b, "  wire footprint            baseline %d B, leases %d B, results %d B\n",
		r.BaselineBytes, r.ShardBytes, r.ResultBytes)
	fmt.Fprintf(&b, "  privacy boundary          %d result B/input vs %d full-state B/input (%.1fx smaller)\n",
		r.ResultBytesPerInput, r.FullStatePerInput, r.ReductionVsFullState)
	return b.String()
}

// ---------------------------------------------------------------------------
// E14 — three-way differential conformance and process isolation. E11's
// oracle had two points of comparison; with the obgpd backend deployed the
// transit tier runs a third legal tie-break order and every divergence is a
// genuine vote: majority-outvoted (2-vs-1) or pairwise-legal (all three
// select differently). The same hijack campaign as E11 runs homogeneous and
// on the three-way Demo27Hetero3 mix — the mixed run twice, to demonstrate
// the divergence set is deterministic. A second leg re-runs a small seeded
// campaign with the obgpd backend behind the out-of-process driver
// (proc:obgpd subprocess per node) and asserts detection fingerprints are
// identical to in-process — process isolation is unobservable in results —
// while recording its wall-clock cost. The leg degrades to a recorded skip
// where the environment cannot fork/exec.
// ---------------------------------------------------------------------------

// E14Result compares homogeneous, three-way-mixed and subprocess-backed
// campaigns.
type E14Result struct {
	Routers int
	// Implementations deployed in the three-way run and their node counts.
	Implementations map[string]int

	TotalInputs int
	Workers     int

	HomogeneousDuration time.Duration
	MixedDuration       time.Duration

	// Safety equivalences, as in E11: the mix masks no fault class, and the
	// detections that legitimately move sit at divergence-flagged nodes.
	SafetyDetections        int
	SameSafetyClasses       bool
	SafetyDiffering         int
	DivergenceExplainsDiffs bool

	// The three-way vote. MajorityOutvoted counts 2-vs-1 divergences,
	// PairwiseLegal the three-way splits; together they partition
	// Divergences. DeterministicDivergence reports that a second run of the
	// same mixed campaign produced an identical divergence set.
	Divergences             int
	DivergentNodes          []string
	MajorityOutvoted        int
	PairwiseLegal           int
	DeterministicDivergence bool
	SteadyStateDivergence   bool

	// Process-isolation leg: the same seeded campaign over in-process obgpd
	// and over proc:obgpd subprocess nodes. ProcChecked is false (with the
	// reason recorded) where the sandbox forbids fork/exec.
	ProcChecked         bool
	ProcSkipReason      string
	ProcRouters         int
	InProcDuration      time.Duration
	ProcDuration        time.Duration
	ProcSameDetections  bool
	ProcOverheadPercent float64
}

// RunE14 measures the three-way differential oracle on the mixed 27-router
// demo and the out-of-process driver's result equivalence.
func RunE14(cfg ExperimentConfig) (*E14Result, error) {
	optsFor := func(topo *topology.Topology) cluster.Options {
		return cluster.Options{
			Seed: cfg.Seed,
			ConfigOverride: faults.ApplyConfigFaults(
				faults.MisOrigination{Router: "R12", Prefix: topo.Nodes[26].Prefixes[0]},
				faults.MissingImportFilter{Router: "R1", Peer: "R4"},
			),
			MaxEvents: 300000,
		}
	}

	out := &E14Result{
		TotalInputs:     cfg.inputs(216, 54),
		Workers:         runtime.NumCPU(),
		Implementations: make(map[string]int),
	}

	run := func(topo *topology.Topology) (time.Duration, *CampaignResult, *cluster.Cluster, error) {
		copts := optsFor(topo)
		live, err := cluster.Build(topo, copts)
		if err != nil {
			return 0, nil, nil, err
		}
		live.Converge()
		props := append(checker.DefaultProperties(topo), checker.CrossImplDivergence{})
		campaign := NewCampaign(live, topo,
			WithStrategy(AllNodesStrategy{}),
			WithBudget(Budget{TotalInputs: out.TotalInputs}),
			WithFuzzSeeds(cfg.inputs(8, 2)),
			WithSeed(cfg.Seed),
			WithProperties(props...),
			WithClusterOptions(copts),
			WithWorkers(out.Workers))
		start := time.Now()
		res, err := campaign.Run(context.Background())
		return time.Since(start), res, live, err
	}

	homoDur, homoRes, _, err := run(topology.Demo27())
	if err != nil {
		return nil, err
	}
	mixedDur, mixedRes, mixedLive, err := run(topology.Demo27Hetero3())
	if err != nil {
		return nil, err
	}
	// Determinism check: the identical mixed campaign again, divergences
	// compared below.
	_, mixedRes2, _, err := run(topology.Demo27Hetero3())
	if err != nil {
		return nil, err
	}

	mixedTopo := topology.Demo27Hetero3()
	out.Routers = len(mixedTopo.Nodes)
	out.Implementations = mixedTopo.ImplementationCounts()
	out.HomogeneousDuration, out.MixedDuration = homoDur, mixedDur

	safetyKeys := func(r *CampaignResult) (map[string]Detection, map[checker.FaultClass]bool, int) {
		keys := make(map[string]Detection)
		classes := make(map[checker.FaultClass]bool)
		n := 0
		for _, d := range r.Detections {
			if d.Class == checker.ClassImplDivergence {
				continue
			}
			keys[fmt.Sprintf("%s@%d", d.Violation.Key(), d.InputIndex)] = d
			classes[d.Class] = true
			n++
		}
		return keys, classes, n
	}
	homoKeys, homoClasses, _ := safetyKeys(homoRes)
	mixedKeys, mixedClasses, mixedSafety := safetyKeys(mixedRes)
	out.SafetyDetections = mixedSafety
	out.SameSafetyClasses = true
	for cl := range homoClasses {
		if !mixedClasses[cl] {
			out.SameSafetyClasses = false
		}
	}

	// The divergence set, canonicalized with the vote classification so the
	// determinism comparison covers the classifications too.
	divergenceSet := func(r *CampaignResult) []string {
		var ks []string
		for _, d := range r.Detections {
			if d.Class == checker.ClassImplDivergence {
				ks = append(ks, d.Violation.Key()+" "+d.Violation.Detail)
			}
		}
		sort.Strings(ks)
		return ks
	}
	set1, set2 := divergenceSet(mixedRes), divergenceSet(mixedRes2)
	out.DeterministicDivergence = strings.Join(set1, ";") == strings.Join(set2, ";")

	divergent := make(map[string]bool)
	for _, d := range mixedRes.Detections {
		if d.Class != checker.ClassImplDivergence {
			continue
		}
		out.Divergences++
		divergent[d.Violation.Node] = true
		switch {
		case strings.HasPrefix(d.Violation.Detail, checker.DivergenceMajorityOutvoted):
			out.MajorityOutvoted++
		case strings.HasPrefix(d.Violation.Detail, checker.DivergencePairwiseLegal):
			out.PairwiseLegal++
		}
	}
	for n := range divergent {
		out.DivergentNodes = append(out.DivergentNodes, n)
	}
	sort.Strings(out.DivergentNodes)

	out.DivergenceExplainsDiffs = true
	diff := func(a, b map[string]Detection) {
		for k, d := range a {
			if _, ok := b[k]; ok {
				continue
			}
			out.SafetyDiffering++
			if !divergent[d.Violation.Node] {
				out.DivergenceExplainsDiffs = false
			}
		}
	}
	diff(homoKeys, mixedKeys)
	diff(mixedKeys, homoKeys)

	out.SteadyStateDivergence = !checker.CrossImplDivergence{}.Check(mixedLive).OK()

	// Process-isolation leg. The harness binary must route procdriver child
	// re-executions (cmd/dice-bench and the test binaries call
	// procdriver.MaybeRunChild in main); environments that cannot fork/exec
	// degrade to a recorded skip.
	if err := procdriver.SpawnCheck(); err != nil {
		out.ProcSkipReason = err.Error()
		return out, nil
	}
	defer procdriver.KillAll()
	procRun := func(impl string) (time.Duration, *CampaignResult, error) {
		topo := topology.Line(4)
		topo.SetImpl(impl, topo.NodeNames()...)
		copts := cluster.Options{
			Seed:           cfg.Seed,
			ConfigOverride: faults.ApplyConfigFaults(faults.MisOrigination{Router: "R4", Prefix: topo.Nodes[0].Prefixes[0]}),
		}
		live, err := cluster.Build(topo, copts)
		if err != nil {
			return 0, nil, err
		}
		live.Converge()
		campaign := NewCampaign(live, topo,
			WithStrategy(AllNodesStrategy{}),
			WithBudget(Budget{TotalInputs: cfg.inputs(48, 12)}),
			WithFuzzSeeds(cfg.inputs(4, 2)),
			WithSeed(cfg.Seed),
			WithClusterOptions(copts),
			WithWorkers(out.Workers))
		start := time.Now()
		res, err := campaign.Run(context.Background())
		return time.Since(start), res, err
	}
	inprocDur, inprocRes, err := procRun("obgpd")
	if err != nil {
		return nil, err
	}
	procDur, procRes, err := procRun("proc:obgpd")
	if err != nil {
		return nil, err
	}
	out.ProcChecked = true
	out.ProcRouters = 4
	out.InProcDuration, out.ProcDuration = inprocDur, procDur
	out.ProcSameDetections = detectionFingerprint(procRes) == detectionFingerprint(inprocRes) && len(inprocRes.Detections) > 0
	if inprocDur > 0 {
		out.ProcOverheadPercent = 100 * (float64(procDur) - float64(inprocDur)) / float64(inprocDur)
	}
	return out, nil
}

// String renders the three-way conformance report.
func (r *E14Result) String() string {
	var b strings.Builder
	b.WriteString("E14 (three-way differential conformance, process isolation):\n")
	impls := make([]string, 0, len(r.Implementations))
	for impl := range r.Implementations {
		impls = append(impls, impl)
	}
	sort.Strings(impls)
	fmt.Fprintf(&b, "  topology                  %d routers (", r.Routers)
	for i, impl := range impls {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d %s", r.Implementations[impl], impl)
	}
	b.WriteString(")\n")
	fmt.Fprintf(&b, "  input budget              %d clone executions per run (%d workers)\n", r.TotalInputs, r.Workers)
	fmt.Fprintf(&b, "  homogeneous campaign      %v\n", r.HomogeneousDuration.Round(time.Millisecond))
	fmt.Fprintf(&b, "  three-way campaign        %v\n", r.MixedDuration.Round(time.Millisecond))
	fmt.Fprintf(&b, "  safety detections         %d (same fault classes as homogeneous: %v)\n", r.SafetyDetections, r.SameSafetyClasses)
	fmt.Fprintf(&b, "  detections that moved     %d, all at divergence-flagged nodes: %v\n", r.SafetyDiffering, r.DivergenceExplainsDiffs)
	fmt.Fprintf(&b, "  divergences               %d at %d nodes %v (deterministic: %v, steady-state: %v)\n",
		r.Divergences, len(r.DivergentNodes), r.DivergentNodes, r.DeterministicDivergence, r.SteadyStateDivergence)
	fmt.Fprintf(&b, "  vote classification       %d majority-outvoted (2-vs-1), %d pairwise-legal (three-way)\n", r.MajorityOutvoted, r.PairwiseLegal)
	if !r.ProcChecked {
		fmt.Fprintf(&b, "  process isolation         skipped: %s\n", r.ProcSkipReason)
	} else {
		fmt.Fprintf(&b, "  process isolation         %d-router line, in-process %v vs proc:obgpd %v (%.0f%% overhead), identical detections: %v\n",
			r.ProcRouters, r.InProcDuration.Round(time.Millisecond), r.ProcDuration.Round(time.Millisecond),
			r.ProcOverheadPercent, r.ProcSameDetections)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E15 — observability overhead: the dice-serve instrumentation layer
// (metrics registry over every subsystem, per-epoch exposition, span tracing
// and codec-persisted soak history) measured against the identical soak run
// bare. The instrumented soak must detect exactly the same violations, the
// exposition must be byte-deterministic, and the whole layer must stay
// within a small overhead (<2% is the budget BENCH tracks).
// ---------------------------------------------------------------------------

// E15Result summarizes the observability-overhead comparison.
type E15Result struct {
	Routers int
	Epochs  int

	// Soak wall clock with the observability layer off and on, and the
	// relative overhead ((on-off)/off).
	BareDuration         time.Duration
	InstrumentedDuration time.Duration
	OverheadPercent      float64

	// The instrumented run's exposition: registered series, body size, mean
	// render latency over 64 scrapes, and 32-scrape byte-determinism.
	SeriesCount             int
	ExpositionBytes         int
	ExpositionMean          time.Duration
	ExpositionDeterministic bool

	// Detection equivalence and the observability artifacts the run left.
	Findings          int
	SameFindings      bool
	SpansRecorded     int
	HistoryBytes      int
	HistoryRoundTrips bool
}

// e15soak is one bounded soak's outcome.
type e15soak struct {
	duration time.Duration
	epochs   int
	findings []string
	reg      *obs.Registry
	tracer   *obs.Tracer
	hist     *serve.History
}

// runE15Soak runs the standard demo soak once, optionally under the full
// observability layer (registry, per-epoch scrape, span feed, history rows).
func runE15Soak(cfg ExperimentConfig, instrument bool) (*e15soak, error) {
	topo := topology.Demo27()
	victim := topo.Nodes[26].Prefixes[0]
	copts := cluster.Options{
		Seed: cfg.Seed,
		ConfigOverride: faults.ApplyConfigFaults(
			faults.MisOrigination{Router: "R12", Prefix: victim},
			faults.MissingImportFilter{Router: "R1", Peer: "R4"},
		),
		MaxEvents: 300000,
	}
	deployed, err := cluster.Build(topo, copts)
	if err != nil {
		return nil, err
	}
	deployed.Converge()

	out := &e15soak{}
	opts := live.Options{
		Seed:              cfg.Seed,
		ClusterOptions:    copts,
		MaxEpochs:         cfg.inputs(8, 3),
		ScenariosPerEpoch: 0,
		InputsPerScenario: cfg.inputs(16, 5),
		FuzzSeeds:         cfg.inputs(4, 2),
		Explorers:         []string{"R1"},
		// Pin the governor (as in E12) so both halves of the comparison
		// checkpoint on the same cadence regardless of machine speed.
		PauseBudget: time.Hour,
	}

	var rt *live.Runtime
	var scrape bytes.Buffer
	if instrument {
		out.reg = obs.NewRegistry()
		out.tracer = obs.NewTracer(4096)
		out.hist = &serve.History{Soaks: 1}
		live.RegisterMetrics(out.reg, func() *live.Runtime { return rt })

		var mu sync.Mutex
		campaigns := make(map[string]uint64)
		opts.OnEpoch = func(sum live.EpochSummary) {
			out.hist.AddEpoch(1, sum)
			// A scrape per epoch is the cost a scraping Prometheus adds to
			// the loop; the body is rendered in full and discarded.
			scrape.Reset()
			_ = out.reg.WritePrometheus(&scrape)
		}
		opts.OnCampaignEvent = func(epoch int, scenario string, ev dice.Event) {
			key := fmt.Sprintf("%d/%s", epoch, scenario)
			mu.Lock()
			defer mu.Unlock()
			switch ev.Kind {
			case dice.EventCampaignStart:
				campaigns[key] = out.tracer.Begin(obs.SpanCampaign, key, 0)
			case dice.EventCampaignEnd:
				if id, ok := campaigns[key]; ok {
					out.tracer.End(id)
					delete(campaigns, key)
				}
			}
		}
	}

	rt, err = live.NewRuntime(deployed, topo, opts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	report, err := rt.Run(context.Background())
	if err != nil {
		return nil, err
	}
	out.duration = time.Since(start)
	out.epochs = rt.Stats().Epochs
	for _, f := range report.Findings() {
		out.findings = append(out.findings, fmt.Sprintf("%d/%s/%s<-%s/%d/%s",
			f.Epoch, f.Scenario, f.Explorer, f.FromPeer, f.InputIndex, f.Violation.Key()))
	}
	sort.Strings(out.findings)
	return out, nil
}

// RunE15 runs the soak bare and instrumented and compares.
func RunE15(cfg ExperimentConfig) (*E15Result, error) {
	bare, err := runE15Soak(cfg, false)
	if err != nil {
		return nil, err
	}
	inst, err := runE15Soak(cfg, true)
	if err != nil {
		return nil, err
	}

	out := &E15Result{
		Routers:              len(topology.Demo27().Nodes),
		Epochs:               inst.epochs,
		BareDuration:         bare.duration,
		InstrumentedDuration: inst.duration,
		Findings:             len(inst.findings),
		SameFindings:         len(bare.findings) == len(inst.findings),
	}
	if out.SameFindings {
		for i := range bare.findings {
			if bare.findings[i] != inst.findings[i] {
				out.SameFindings = false
				break
			}
		}
	}
	if bare.duration > 0 {
		out.OverheadPercent = 100 * float64(inst.duration-bare.duration) / float64(bare.duration)
	}

	// Exposition: size, determinism and render latency over the settled
	// post-soak state.
	first := inst.reg.Expose()
	out.SeriesCount = len(inst.reg.Names())
	out.ExpositionBytes = len(first)
	out.ExpositionDeterministic = true
	for i := 0; i < 32; i++ {
		if !bytes.Equal(inst.reg.Expose(), first) {
			out.ExpositionDeterministic = false
			break
		}
	}
	const renders = 64
	var buf bytes.Buffer
	start := time.Now()
	for i := 0; i < renders; i++ {
		buf.Reset()
		_ = inst.reg.WritePrometheus(&buf)
	}
	out.ExpositionMean = time.Since(start) / renders

	for _, n := range inst.tracer.Counts() {
		out.SpansRecorded += int(n)
	}
	encoded := inst.hist.Encode()
	out.HistoryBytes = len(encoded)
	if decoded, err := serve.DecodeHistory(encoded); err == nil {
		out.HistoryRoundTrips = bytes.Equal(decoded.Encode(), encoded)
	}
	return out, nil
}

// String renders the observability-overhead report.
func (r *E15Result) String() string {
	var b strings.Builder
	b.WriteString("E15 (dice-serve observability: instrumentation overhead and exposition):\n")
	fmt.Fprintf(&b, "  topology                  %d routers, %d epochs\n", r.Routers, r.Epochs)
	fmt.Fprintf(&b, "  soak wall clock           bare %v, instrumented %v (overhead %.2f%%)\n",
		r.BareDuration.Round(time.Millisecond), r.InstrumentedDuration.Round(time.Millisecond), r.OverheadPercent)
	fmt.Fprintf(&b, "  exposition                %d series, %d bytes, mean render %v, 32-scrape byte-identical: %v\n",
		r.SeriesCount, r.ExpositionBytes, r.ExpositionMean.Round(time.Microsecond), r.ExpositionDeterministic)
	fmt.Fprintf(&b, "  findings                  %d, identical to bare soak: %v\n", r.Findings, r.SameFindings)
	fmt.Fprintf(&b, "  artifacts                 %d spans, %d-byte history (codec round-trips: %v)\n",
		r.SpansRecorded, r.HistoryBytes, r.HistoryRoundTrips)
	return b.String()
}
