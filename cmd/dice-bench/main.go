// Command dice-bench regenerates the paper's evaluation artifacts. Each
// experiment (e1..e12, see EXPERIMENTS.md) can be run individually or all
// together; -quick shrinks budgets for a fast smoke run. e8 is the
// campaign-scaling experiment: the same multi-explorer campaign executed
// serially and on a full worker pool. e9 is the clone-lifecycle experiment:
// cold FromSnapshot rebuilds vs the pooled shadow-cluster runtime. e10 is
// the federation experiment: centralized vs per-AS federated detection on
// the hijack scenario. e11 is the heterogeneity experiment: the mixed
// bird+frr demo with differential conformance checking. e12 is the live-mode
// experiment: a bounded online soak (checkpoint epochs, scenario campaigns,
// dedupe, minimized traces). e13 is the distributed-execution experiment:
// the same campaign in-process, on one agent, and sharded across three
// agents through the control plane. e14 is the three-way conformance
// experiment: the bird+obgpd+frr demo under the majority-vote differential
// oracle, plus the out-of-process driver's result-equivalence leg (skipped
// where the environment cannot fork/exec). e15 is the observability
// experiment: the same soak bare vs under the full dice-serve
// instrumentation layer, with exposition latency/determinism and the
// codec-persisted soak history. (The gob-vs-codec serialization experiment
// retired with gob itself; its last ratios are frozen in EXPERIMENTS.md and
// bench/ measures the codec's layers.) -json writes the selected
// experiment's machine-readable result (`-exp e9 -json BENCH_clone.json`,
// `-exp e10 -json BENCH_federation.json`, `-exp e12 -json BENCH_live.json`,
// `-exp e13 -json BENCH_distributed.json`, `-exp e14 -json
// BENCH_hetero3.json` and `-exp e15 -json BENCH_serve.json` are the
// artifacts CI tracks across PRs).
//
// Every JSON artifact is stamped with a schema version, the experiment id,
// the seed and the Go runtime metadata (version, GOOS/GOARCH, GOMAXPROCS),
// so the bench trajectory is self-describing and comparable across PRs and
// machines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	dice "github.com/dice-project/dice"
	"github.com/dice-project/dice/internal/node/procdriver"
)

// benchSchemaVersion is bumped whenever any artifact's field set changes
// incompatibly; consumers of the bench trajectory key on it.
// v3: e9 gained gob-vs-codec snapshot encode/decode fields, e13 gained the
// gob baseline counterfactual, and the codec experiment (BENCH_codec.json)
// was added.
// v4: the e14 three-way conformance experiment (BENCH_hetero3.json) was
// added; existing artifact schemas are unchanged.
// v5: the e15 observability-overhead experiment (BENCH_serve.json) was
// added; existing artifact schemas are unchanged.
// v6: encoding/gob left the module, and the comparison with it: e9 lost its
// snapshot encode/decode fields, e13 its gob baseline counterfactual, and
// the codec experiment (BENCH_codec.json) is gone.
const benchSchemaVersion = 6

// benchMeta is the self-describing header embedded in every BENCH_*.json
// artifact.
type benchMeta struct {
	SchemaVersion int    `json:"schema_version"`
	Experiment    string `json:"experiment"`
	Quick         bool   `json:"quick"`
	Seed          int64  `json:"seed"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
}

func newBenchMeta(exp string, cfg dice.ExperimentConfig) benchMeta {
	return benchMeta{
		SchemaVersion: benchSchemaVersion,
		Experiment:    exp,
		Quick:         cfg.Quick,
		Seed:          cfg.Seed,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
	}
}

// cloneBench is the schema of the e9 -json artifact. Field names are stable:
// CI archives one of these per PR to track the clone-lifecycle perf
// trajectory.
type cloneBench struct {
	benchMeta
	Routers int `json:"routers"`

	CloneSamples    int     `json:"clone_samples"`
	ColdNsPerClone  int64   `json:"cold_ns_per_clone"`
	ResetNsPerClone int64   `json:"reset_ns_per_clone"`
	CloneSpeedup    float64 `json:"clone_speedup"`

	TotalInputs        int     `json:"total_inputs"`
	Workers            int     `json:"workers"`
	ColdCampaignNs     int64   `json:"cold_campaign_ns"`
	PooledCampaignNs   int64   `json:"pooled_campaign_ns"`
	ColdInputsPerSec   float64 `json:"cold_inputs_per_sec"`
	PooledInputsPerSec float64 `json:"pooled_inputs_per_sec"`
	CampaignSpeedup    float64 `json:"campaign_speedup"`

	Detections     int  `json:"detections"`
	SameDetections bool `json:"same_detections"`

	MeanNodeBytes  int `json:"mean_node_bytes"`
	MeanDeltaBytes int `json:"mean_delta_bytes"`
}

// federationBench is the schema of the e10 -json artifact.
type federationBench struct {
	benchMeta
	Routers int `json:"routers"`
	Domains int `json:"domains"`

	TotalInputs     int     `json:"total_inputs"`
	Workers         int     `json:"workers"`
	CentralizedNs   int64   `json:"centralized_ns"`
	FederatedNs     int64   `json:"federated_ns"`
	OverheadPercent float64 `json:"overhead_percent"`

	Detections     int  `json:"detections"`
	SameDetections bool `json:"same_detections"`

	Summaries            int     `json:"summaries"`
	SummaryBytes         int     `json:"summary_bytes"`
	SummaryBytesPerInput int     `json:"summary_bytes_per_input"`
	FullStateBytes       int     `json:"full_state_bytes"`
	ReductionVsFullState float64 `json:"reduction_vs_full_state"`
}

// liveBench is the schema of the e12 -json artifact: the live-mode soak's
// checkpoint pauses, epoch footprints, shadow overhead, dedupe savings and
// minimized-trace sizes.
type liveBench struct {
	benchMeta
	Routers int `json:"routers"`
	Epochs  int `json:"epochs"`

	PauseMeanNs         int64 `json:"pause_mean_ns"`
	PauseMaxNs          int64 `json:"pause_max_ns"`
	PauseBudgetExceeded int   `json:"pause_budget_exceeded"`
	CheckpointStride    int   `json:"checkpoint_stride"`

	SnapshotBytesPerEpoch int `json:"snapshot_bytes_per_epoch"`
	DeltaBytesPerEpoch    int `json:"delta_bytes_per_epoch"`

	Campaigns             int     `json:"campaigns"`
	CampaignsDeduped      int     `json:"campaigns_deduped"`
	InputsExplored        int     `json:"inputs_explored"`
	InputsSaved           int     `json:"inputs_saved"`
	PathsSaved            int     `json:"paths_saved"`
	DedupeSavedFraction   float64 `json:"dedupe_saved_fraction"`
	ShadowOverheadPercent float64 `json:"shadow_overhead_percent"`

	Findings            int  `json:"findings"`
	FirstDetectionEpoch int  `json:"first_detection_epoch"`
	AllReverified       bool `json:"all_reverified"`
	TraceStepsBefore    int  `json:"trace_steps_before"`
	TraceStepsAfter     int  `json:"trace_steps_after"`
}

// distributedBench is the schema of the e13 -json artifact: the same
// campaign in-process vs 1 agent vs 3 agents, with the wire accounting of
// the shard protocol (baseline shipment, lease traffic, summary-only
// results) against the full-state counterfactual.
type distributedBench struct {
	benchMeta
	Routers int `json:"routers"`
	Shards  int `json:"shards"`

	TotalInputs  int   `json:"total_inputs"`
	Workers      int   `json:"workers"`
	InProcessNs  int64 `json:"in_process_ns"`
	OneAgentNs   int64 `json:"one_agent_ns"`
	ThreeAgentNs int64 `json:"three_agent_ns"`

	Detections                int  `json:"detections"`
	SameDetectionsOneAgent    bool `json:"same_detections_one_agent"`
	SameDetectionsThreeAgents bool `json:"same_detections_three_agents"`

	AgentsLeased int `json:"agents_leased"`
	Reassigned   int `json:"reassigned"`

	BaselineBytes        int     `json:"baseline_bytes"`
	ShardBytes           int     `json:"shard_bytes"`
	ResultBytes          int     `json:"result_bytes"`
	ResultBytesPerInput  int     `json:"result_bytes_per_input"`
	FullStatePerInput    int     `json:"full_state_bytes_per_input"`
	ReductionVsFullState float64 `json:"reduction_vs_full_state"`
}

// hetero3Bench is the schema of the e14 -json artifact (BENCH_hetero3.json):
// the three-way differential conformance oracle's vote breakdown and the
// out-of-process driver's result-equivalence leg.
type hetero3Bench struct {
	benchMeta
	Routers         int            `json:"routers"`
	Implementations map[string]int `json:"implementations"`

	TotalInputs   int   `json:"total_inputs"`
	Workers       int   `json:"workers"`
	HomogeneousNs int64 `json:"homogeneous_ns"`
	MixedNs       int64 `json:"mixed_ns"`

	SafetyDetections        int  `json:"safety_detections"`
	SameSafetyClasses       bool `json:"same_safety_classes"`
	SafetyDiffering         int  `json:"safety_differing"`
	DivergenceExplainsDiffs bool `json:"divergence_explains_diffs"`

	Divergences             int      `json:"divergences"`
	DivergentNodes          []string `json:"divergent_nodes"`
	MajorityOutvoted        int      `json:"majority_outvoted"`
	PairwiseLegal           int      `json:"pairwise_legal"`
	DeterministicDivergence bool     `json:"deterministic_divergence"`
	SteadyStateDivergence   bool     `json:"steady_state_divergence"`

	ProcChecked         bool    `json:"proc_checked"`
	ProcSkipReason      string  `json:"proc_skip_reason,omitempty"`
	ProcRouters         int     `json:"proc_routers"`
	InProcNs            int64   `json:"in_proc_ns"`
	ProcNs              int64   `json:"proc_ns"`
	ProcSameDetections  bool    `json:"proc_same_detections"`
	ProcOverheadPercent float64 `json:"proc_overhead_percent"`
}

// serveBench is the schema of the e15 -json artifact (BENCH_serve.json):
// the dice-serve observability layer's soak overhead against the bare soak,
// plus exposition size/latency/determinism and the soak-history artifact.
type serveBench struct {
	benchMeta
	Routers int `json:"routers"`
	Epochs  int `json:"epochs"`

	BareNs          int64   `json:"bare_ns"`
	InstrumentedNs  int64   `json:"instrumented_ns"`
	OverheadPercent float64 `json:"overhead_percent"`

	SeriesCount             int   `json:"series_count"`
	ExpositionBytes         int   `json:"exposition_bytes"`
	ExpositionMeanNs        int64 `json:"exposition_mean_ns"`
	ExpositionDeterministic bool  `json:"exposition_deterministic"`

	Findings          int  `json:"findings"`
	SameFindings      bool `json:"same_findings"`
	SpansRecorded     int  `json:"spans_recorded"`
	HistoryBytes      int  `json:"history_bytes"`
	HistoryRoundTrips bool `json:"history_round_trips"`
}

func writeJSON(path string, out interface{}) error {
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeFederationJSON(path string, cfg dice.ExperimentConfig, r *dice.E10Result) error {
	return writeJSON(path, federationBench{
		benchMeta:            newBenchMeta("e10", cfg),
		Routers:              r.Routers,
		Domains:              r.Domains,
		TotalInputs:          r.TotalInputs,
		Workers:              r.Workers,
		CentralizedNs:        r.CentralizedDuration.Nanoseconds(),
		FederatedNs:          r.FederatedDuration.Nanoseconds(),
		OverheadPercent:      r.OverheadPercent,
		Detections:           r.Detections,
		SameDetections:       r.SameDetections,
		Summaries:            r.Summaries,
		SummaryBytes:         r.SummaryBytes,
		SummaryBytesPerInput: r.SummaryBytesPerInput,
		FullStateBytes:       r.FullStateBytes,
		ReductionVsFullState: r.ReductionVsFullState,
	})
}

func writeCloneJSON(path string, cfg dice.ExperimentConfig, r *dice.E9Result) error {
	return writeJSON(path, cloneBench{
		benchMeta:          newBenchMeta("e9", cfg),
		Routers:            r.Routers,
		CloneSamples:       r.CloneSamples,
		ColdNsPerClone:     r.ColdClonePer.Nanoseconds(),
		ResetNsPerClone:    r.PooledResetPer.Nanoseconds(),
		CloneSpeedup:       r.CloneSpeedup,
		TotalInputs:        r.TotalInputs,
		Workers:            r.Workers,
		ColdCampaignNs:     r.ColdDuration.Nanoseconds(),
		PooledCampaignNs:   r.PooledDuration.Nanoseconds(),
		ColdInputsPerSec:   r.ColdInputsPerSec,
		PooledInputsPerSec: r.PooledInputsPerSec,
		CampaignSpeedup:    r.CampaignSpeedup,
		Detections:         r.Detections,
		SameDetections:     r.SameDetections,
		MeanNodeBytes:      r.MeanNodeBytes,
		MeanDeltaBytes:     r.MeanDeltaBytes,
	})
}

func writeLiveJSON(path string, cfg dice.ExperimentConfig, r *dice.E12Result) error {
	return writeJSON(path, liveBench{
		benchMeta:             newBenchMeta("e12", cfg),
		Routers:               r.Routers,
		Epochs:                r.Epochs,
		PauseMeanNs:           r.PauseMean.Nanoseconds(),
		PauseMaxNs:            r.PauseMax.Nanoseconds(),
		PauseBudgetExceeded:   r.PauseBudgetExceeded,
		CheckpointStride:      r.CheckpointStride,
		SnapshotBytesPerEpoch: r.SnapshotBytesPerEpoch,
		DeltaBytesPerEpoch:    r.DeltaBytesPerEpoch,
		Campaigns:             r.Campaigns,
		CampaignsDeduped:      r.CampaignsDeduped,
		InputsExplored:        r.InputsExplored,
		InputsSaved:           r.InputsSaved,
		PathsSaved:            r.PathsSaved,
		DedupeSavedFraction:   r.DedupeSavedFraction,
		ShadowOverheadPercent: r.ShadowOverheadPercent,
		Findings:              r.Findings,
		FirstDetectionEpoch:   r.FirstDetectionEpoch,
		AllReverified:         r.AllReverified,
		TraceStepsBefore:      r.TraceStepsBefore,
		TraceStepsAfter:       r.TraceStepsAfter,
	})
}

func writeHetero3JSON(path string, cfg dice.ExperimentConfig, r *dice.E14Result) error {
	return writeJSON(path, hetero3Bench{
		benchMeta:               newBenchMeta("e14", cfg),
		Routers:                 r.Routers,
		Implementations:         r.Implementations,
		TotalInputs:             r.TotalInputs,
		Workers:                 r.Workers,
		HomogeneousNs:           r.HomogeneousDuration.Nanoseconds(),
		MixedNs:                 r.MixedDuration.Nanoseconds(),
		SafetyDetections:        r.SafetyDetections,
		SameSafetyClasses:       r.SameSafetyClasses,
		SafetyDiffering:         r.SafetyDiffering,
		DivergenceExplainsDiffs: r.DivergenceExplainsDiffs,
		Divergences:             r.Divergences,
		DivergentNodes:          r.DivergentNodes,
		MajorityOutvoted:        r.MajorityOutvoted,
		PairwiseLegal:           r.PairwiseLegal,
		DeterministicDivergence: r.DeterministicDivergence,
		SteadyStateDivergence:   r.SteadyStateDivergence,
		ProcChecked:             r.ProcChecked,
		ProcSkipReason:          r.ProcSkipReason,
		ProcRouters:             r.ProcRouters,
		InProcNs:                r.InProcDuration.Nanoseconds(),
		ProcNs:                  r.ProcDuration.Nanoseconds(),
		ProcSameDetections:      r.ProcSameDetections,
		ProcOverheadPercent:     r.ProcOverheadPercent,
	})
}

func writeDistributedJSON(path string, cfg dice.ExperimentConfig, r *dice.E13Result) error {
	return writeJSON(path, distributedBench{
		benchMeta:                 newBenchMeta("e13", cfg),
		Routers:                   r.Routers,
		Shards:                    r.Shards,
		TotalInputs:               r.TotalInputs,
		Workers:                   r.Workers,
		InProcessNs:               r.InProcessDuration.Nanoseconds(),
		OneAgentNs:                r.OneAgentDuration.Nanoseconds(),
		ThreeAgentNs:              r.ThreeAgentDuration.Nanoseconds(),
		Detections:                r.Detections,
		SameDetectionsOneAgent:    r.SameDetectionsOneAgent,
		SameDetectionsThreeAgents: r.SameDetectionsThreeAgents,
		AgentsLeased:              r.AgentsLeased,
		Reassigned:                r.Reassigned,
		BaselineBytes:             r.BaselineBytes,
		ShardBytes:                r.ShardBytes,
		ResultBytes:               r.ResultBytes,
		ResultBytesPerInput:       r.ResultBytesPerInput,
		FullStatePerInput:         r.FullStatePerInput,
		ReductionVsFullState:      r.ReductionVsFullState,
	})
}

func writeServeJSON(path string, cfg dice.ExperimentConfig, r *dice.E15Result) error {
	return writeJSON(path, serveBench{
		benchMeta:               newBenchMeta("e15", cfg),
		Routers:                 r.Routers,
		Epochs:                  r.Epochs,
		BareNs:                  r.BareDuration.Nanoseconds(),
		InstrumentedNs:          r.InstrumentedDuration.Nanoseconds(),
		OverheadPercent:         r.OverheadPercent,
		SeriesCount:             r.SeriesCount,
		ExpositionBytes:         r.ExpositionBytes,
		ExpositionMeanNs:        r.ExpositionMean.Nanoseconds(),
		ExpositionDeterministic: r.ExpositionDeterministic,
		Findings:                r.Findings,
		SameFindings:            r.SameFindings,
		SpansRecorded:           r.SpansRecorded,
		HistoryBytes:            r.HistoryBytes,
		HistoryRoundTrips:       r.HistoryRoundTrips,
	})
}

func main() {
	// E14's process-isolation leg re-execs this binary as a backend
	// subprocess; divert those re-executions before flag parsing.
	procdriver.MaybeRunChild()
	exp := flag.String("exp", "all", "experiment to run: e1..e15, or all")
	quick := flag.Bool("quick", false, "use reduced budgets")
	seed := flag.Int64("seed", 1, "random seed")
	jsonPath := flag.String("json", "", "write the selected experiment's machine-readable artifact to this path (e10, e12, e13, e14 and e15 write their own schemas; any other selection writes the e9 clone-lifecycle artifact, running e9 if needed)")
	flag.Parse()

	cfg := dice.ExperimentConfig{Quick: *quick, Seed: *seed}
	which := strings.ToLower(*exp)
	run := func(name string) bool { return which == "all" || which == name }
	failed := false

	report := func(name string, out fmt.Stringer, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			failed = true
			return
		}
		fmt.Println(out.String())
	}

	wrote := func(path string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
			failed = true
			return
		}
		fmt.Printf("wrote %s\n", path)
	}

	// The -json artifact follows the selected experiment when it has its own
	// schema (e10, e12, e13, e14, e15); every other selection tracks
	// the e9 clone artifact.
	jsonOwner := "e9"
	if which == "e10" || which == "e12" || which == "e13" || which == "e14" || which == "e15" {
		jsonOwner = which
	}

	if run("e1") {
		res, err := dice.RunE1(cfg)
		report("E1", res, err)
	}
	if run("e2") {
		res, err := dice.RunE2(cfg)
		report("E2", res, err)
	}
	if run("e3") {
		rows, err := dice.RunE3(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "E3 failed: %v\n", err)
			failed = true
		} else {
			fmt.Println(dice.FormatE3(rows))
		}
	}
	if run("e4") {
		res, err := dice.RunE4(cfg)
		report("E4", res, err)
	}
	if run("e5") {
		rows, err := dice.RunE5(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "E5 failed: %v\n", err)
			failed = true
		} else {
			fmt.Println(dice.FormatE5(rows))
		}
	}
	if run("e6") {
		res, err := dice.RunE6(cfg)
		report("E6", res, err)
	}
	if run("e7") {
		res, err := dice.RunE7(cfg)
		report("E7", res, err)
	}
	if run("e8") {
		res, err := dice.RunE8(cfg)
		report("E8", res, err)
	}
	if run("e9") || (*jsonPath != "" && jsonOwner == "e9") {
		res, err := dice.RunE9(cfg)
		report("E9", res, err)
		if err == nil && *jsonPath != "" && jsonOwner == "e9" {
			wrote(*jsonPath, writeCloneJSON(*jsonPath, cfg, res))
		}
	}
	if run("e10") {
		res, err := dice.RunE10(cfg)
		report("E10", res, err)
		if err == nil && *jsonPath != "" && jsonOwner == "e10" {
			wrote(*jsonPath, writeFederationJSON(*jsonPath, cfg, res))
		}
	}
	if run("e11") {
		res, err := dice.RunE11(cfg)
		report("E11", res, err)
	}
	if run("e12") {
		res, err := dice.RunE12(cfg)
		report("E12", res, err)
		if err == nil && *jsonPath != "" && jsonOwner == "e12" {
			wrote(*jsonPath, writeLiveJSON(*jsonPath, cfg, res))
		}
	}
	if run("e13") {
		res, err := dice.RunE13(cfg)
		report("E13", res, err)
		if err == nil && *jsonPath != "" && jsonOwner == "e13" {
			wrote(*jsonPath, writeDistributedJSON(*jsonPath, cfg, res))
		}
	}
	if run("e14") {
		res, err := dice.RunE14(cfg)
		report("E14", res, err)
		if err == nil && *jsonPath != "" && jsonOwner == "e14" {
			wrote(*jsonPath, writeHetero3JSON(*jsonPath, cfg, res))
		}
	}
	if run("e15") {
		res, err := dice.RunE15(cfg)
		report("E15", res, err)
		if err == nil && *jsonPath != "" && jsonOwner == "e15" {
			wrote(*jsonPath, writeServeJSON(*jsonPath, cfg, res))
		}
	}
	if failed {
		os.Exit(1)
	}
}
