package main

import (
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/topology"
)

// kind is how a workload drives the system.
type kind int

const (
	kindCampaign kind = iota // centralized pooled dice.Campaign
	kindLive                 // live.Runtime soak
	kindDist                 // federated campaign over control.Controller + agents
)

// workload is one fixed set of inputs. Names are cited by later issues and
// must not change.
type workload struct {
	name string
	why  string
	kind kind
	// topo builds the deployment's topology. It is part of the workload, not
	// an input: no workload draws it from the seed (see gr50TopologySeed).
	topo func() *topology.Topology
	// planted reports whether the demo's two operator mistakes are planted.
	planted bool
	// gaoRexford selects relationship-derived policies.
	gaoRexford bool
	// crossImpl adds the three-way voting oracle to the default properties.
	crossImpl bool
	// inputs is a campaign batch's Budget.TotalInputs (unused by the soak).
	inputs int
}

// Exploration knobs shared by the campaign workloads.
const (
	fuzzSeeds       = 2
	shadowMaxEvents = 20000 // the campaign default, named so the replica matches
	clusterMaxEvent = 300000
)

// gr50TopologySeed pins campaign-gr50's Gao–Rexford draw. The issue drew the
// topology from -seed, but then every metric of the workload — set-up, pause,
// allocation, even bytes disclosed — moved with the seed (set-up by 19%,
// allocation by 7% over ten seeds), and the acceptance harness counts
// seed-to-seed movement as noise. The seed still draws everything explored.
const gr50TopologySeed = 1

// Soak shape of live-soak-demo27.
const (
	liveChurnEpochs       = 6
	liveQuietEpochs       = 100
	liveInputsPerScenario = 6
	liveExplorer          = "R1"
)

// Distributed shape of dist-fed-demo27.
const (
	distAgents        = 2
	distUnitsPerShard = 2
)

var workloads = []workload{
	{
		name: "campaign-hetero3",
		why:  "paper's heterogeneous demo: bird+obgpd+frr resets, full property set and voting oracle in one pooled campaign",
		kind: kindCampaign, topo: topology.Demo27Hetero3,
		planted: true, crossImpl: true, inputs: 135,
	},
	{
		name: "campaign-gr50",
		why:  "50-router Gao-Rexford probe that fits in cache: reset and whole-cluster check dominate, settle is 2%",
		kind: kindCampaign, topo: func() *topology.Topology { return topology.GaoRexford(5, 15, 30, gr50TopologySeed) },
		gaoRexford: true, inputs: 150,
	},
	{
		name: "live-soak-demo27",
		why:  "live.Runtime soak: checkpoint writes (cut, encode, hash, CAS, delta), scenario preludes, minimiser cold replays, deduped quiet epochs",
		kind: kindLive, topo: topology.Demo27,
		planted: true,
	},
	{
		name: "dist-fed-demo27",
		why:  "only workload crossing the gob control wire: baseline+deltas to 2 agents, per-domain CheckLocal/Bus, CheckAll bypassed",
		kind: kindDist, topo: topology.Demo27,
		planted: true, inputs: 216,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// clusterOptions are the deployment's (and every shadow clone's) options.
func (w *workload) clusterOptions(topo *topology.Topology, seed int64) cluster.Options {
	o := cluster.Options{Seed: seed, GaoRexford: w.gaoRexford, MaxEvents: clusterMaxEvent}
	if w.planted {
		o.ConfigOverride = faults.ApplyConfigFaults(
			faults.MisOrigination{Router: "R12", Prefix: topo.Nodes[26].Prefixes[0]},
			faults.MissingImportFilter{Router: "R1", Peer: "R4"},
		)
	}
	return o
}

// properties is the checked property set.
func (w *workload) properties(topo *topology.Topology) []checker.Property {
	props := checker.DefaultProperties(topo)
	if w.crossImpl {
		props = append(props, checker.CrossImplDivergence{})
	}
	return props
}

// sizes is how much counted work one run does. Work is never time-boxed: the
// run length follows from these counts.
type sizes struct {
	Seeds   int `json:"seeds"`   // S seed slots
	Repeats int `json:"repeats"` // K timed repeats per slot
	Setups  int `json:"setups"`  // from-scratch set-up repeats
	Churn   int `json:"churn_epochs,omitempty"`
	Quiet   int `json:"quiet_epochs,omitempty"`
}

// defaultSeconds is the -seconds the default sizes are cut for. The issue
// planned S = 5 seeds × K = 5 repeats, 41 set-ups and a 14 + 200 epoch soak on
// a sandbox that explored 180 inputs/s; the same sandbox now manages 60–90, and
// the acceptance harness gives ninety-two runs 57 minutes in all. So the
// default is K = 3 (the issue's floor), S = 3 (2 on campaign-gr50, whose batches are
// the longest), 21 set-ups (its floor) and a 6 + 100 epoch soak: about 25 s of wall
// clock per run. A larger -seconds buys repeats and quiet epochs, never a
// different batch.
const defaultSeconds = 20

// sizesFor returns the workload's counts for a run sized for -seconds.
func (w *workload) sizesFor(seconds int, short bool) sizes {
	if short {
		return sizes{Seeds: 1, Repeats: 1, Setups: 3, Churn: 2, Quiet: 4}
	}
	scale := func(n int) int { return max(n, (n*seconds+defaultSeconds/2)/defaultSeconds) }
	s := sizes{Seeds: 3, Repeats: scale(3), Setups: scale(21)}
	switch w.name {
	case "campaign-gr50":
		s.Seeds = 2
	case "live-soak-demo27":
		s = sizes{Seeds: 1, Repeats: 1, Setups: s.Setups, Churn: liveChurnEpochs, Quiet: scale(liveQuietEpochs)}
	}
	return s
}
