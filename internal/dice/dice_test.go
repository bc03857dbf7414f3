package dice

import (
	"context"
	"testing"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/topology"
)

// deployedLine builds and converges a small deployed cluster with the given
// faults planted.
func deployedLine(t *testing.T, n int, cfgFaults []faults.ConfigFault, codeFaults []faults.CodeFault) (*topology.Topology, *cluster.Cluster, cluster.Options) {
	t.Helper()
	topo := topology.Line(n)
	opts := cluster.Options{Seed: 1}
	if len(cfgFaults) > 0 {
		opts.ConfigOverride = faults.ApplyConfigFaults(cfgFaults...)
	}
	c := cluster.MustBuild(topo, opts)
	faults.InstallCodeFaults(c.Routers, codeFaults...)
	c.Converge()
	return topo, c, opts
}

// runUnit explores one (explorer, peer) unit as a single-worker campaign and
// returns the unit's result.
func runUnit(t *testing.T, live *cluster.Cluster, topo *topology.Topology, u Unit, opts ...CampaignOption) *Result {
	t.Helper()
	opts = append([]CampaignOption{WithUnits(u), WithWorkers(1), WithSeed(u.Seed)}, opts...)
	cres, err := NewCampaign(live, topo, opts...).Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return cres.Units[0]
}

func TestRunDetectsMisOrigination(t *testing.T) {
	victim := topology.Line(3).Nodes[0].Prefixes[0]
	topo, live, copts := deployedLine(t, 3,
		[]faults.ConfigFault{faults.MisOrigination{Router: "R3", Prefix: victim}}, nil)
	res := runUnit(t, live, topo, Unit{Explorer: "R2", FromPeer: "R1", MaxInputs: 4, FuzzSeeds: 2, Seed: 1}, WithClusterOptions(copts))
	if !res.Detected(checker.ClassOperatorMistake) {
		t.Fatalf("mis-origination not detected; detections=%v", res.Detections)
	}
	d := res.FirstDetection(checker.ClassOperatorMistake)
	if d.InputIndex < 1 || d.Input == nil {
		t.Errorf("detection metadata incomplete: %+v", d)
	}
	if res.SnapshotNodes != 3 || res.SnapshotBytes == 0 {
		t.Errorf("snapshot accounting missing: %+v", res)
	}
	if res.DisclosedBytes == 0 || res.FullStateBytes == 0 {
		t.Errorf("disclosure accounting missing")
	}
	// The deployed cluster itself was not modified by exploration.
	if crashed, _ := live.Router("R2").Panicked(); crashed {
		t.Errorf("exploration crashed the deployed router")
	}
}

func TestRunDetectsProgrammingErrorViaConcolic(t *testing.T) {
	trigger := bgp.NewCommunity(65001, 666)
	bug := faults.CommunityCrash("R2", trigger)
	topo, live, copts := deployedLine(t, 3, nil, []faults.CodeFault{bug})

	res := runUnit(t, live, topo, Unit{Explorer: "R2", FromPeer: "R1", MaxInputs: 48, FuzzSeeds: 6, Seed: 7},
		WithCodeFaults(bug), WithClusterOptions(copts))
	if !res.Detected(checker.ClassProgrammingError) {
		t.Fatalf("programming error not detected in %d inputs; stats=%+v", res.InputsExplored, res.ExplorerStats)
	}
	// The deployed router never crashed: only shadow clones did.
	if crashed, _ := live.Router("R2").Panicked(); crashed {
		t.Errorf("deployed router crashed — isolation violated")
	}
}

func TestRunDetectsHijackThroughMissingFilter(t *testing.T) {
	topo, live, copts := deployedLine(t, 3,
		[]faults.ConfigFault{faults.MissingImportFilter{Router: "R2", Peer: "R1"}}, nil)
	// The deployed system is currently clean: the mistake is latent.
	if !checker.CheckAll(live, checker.DefaultProperties(topo)).OK() {
		t.Fatalf("fault should be latent before exploration")
	}
	res := runUnit(t, live, topo, Unit{Explorer: "R2", FromPeer: "R1", MaxInputs: 32, FuzzSeeds: 10, Seed: 3}, WithClusterOptions(copts))
	if !res.Detected(checker.ClassOperatorMistake) {
		t.Fatalf("latent missing-filter mistake not detected; detections=%v", res.Detections)
	}
}

func TestFuzzOnlyModeRuns(t *testing.T) {
	topo, live, copts := deployedLine(t, 2, nil, nil)
	res := runUnit(t, live, topo, Unit{Explorer: "R1", FromPeer: "R2", MaxInputs: 6, FuzzSeeds: 3, Seed: 2},
		WithConcolic(false), WithClusterOptions(copts))
	if res.InputsExplored != 6 {
		t.Errorf("fuzz-only mode explored %d inputs, want 6", res.InputsExplored)
	}
}

func TestExplorerSelectionDefaults(t *testing.T) {
	topo := topology.Star(4) // R1 is the hub with 3 neighbors
	c := cluster.MustBuild(topo, cluster.Options{Seed: 1})
	c.Converge()
	units, err := NewCampaign(c, topo).planUnits()
	if err != nil || len(units) != 1 {
		t.Fatalf("default plan = %+v, %v; want one unit", units, err)
	}
	if got := units[0].Explorer; got != "R1" {
		t.Errorf("default explorer = %s, want the highest-degree router R1", got)
	}
	if units[0].FromPeer == "" {
		t.Errorf("default plan chose no peer: %+v", units[0])
	}
	if _, err := NewCampaign(c, nil).Run(context.Background()); err == nil {
		t.Errorf("Run without topology must fail")
	}
}

func TestResultGrouping(t *testing.T) {
	res := &Result{Detections: []Detection{
		{Class: checker.ClassOperatorMistake},
		{Class: checker.ClassOperatorMistake},
		{Class: checker.ClassProgrammingError},
	}}
	groups := res.DetectionsByClass()
	if len(groups[checker.ClassOperatorMistake]) != 2 || len(groups[checker.ClassProgrammingError]) != 1 {
		t.Errorf("grouping broken: %v", groups)
	}
	if res.Detected(checker.ClassPolicyConflict) {
		t.Errorf("false positive class detection")
	}
}
