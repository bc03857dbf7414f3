package dice

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/federation"
	"github.com/dice-project/dice/internal/topology"
)

// This file is the metamorphic campaign suite: properties of the form
// "campaign variant A and campaign variant B must produce identical
// detection sets" checked over seeded *random* Gao–Rexford topologies, not
// just the hand-built demo. The fixed demo topologies can hide coincidental
// equivalences (symmetric tiers, one router per AS in every partition);
// random multi-homed graphs with planted faults exercise the equivalence
// claims where the structure varies. Everything is seeded, so failures
// reproduce exactly; `go test -race` covers the parallel variants.

// metamorphicCase is one seeded deployment the equivalences are checked on.
type metamorphicCase struct {
	name string
	topo *topology.Topology
	opts cluster.Options
}

// metamorphicCases builds converged-ready deployments over seeded random
// topologies with a mis-origination planted at the last (stub) router and a
// missing import filter at the best-connected one.
func metamorphicCases(t *testing.T) []metamorphicCase {
	t.Helper()
	var cases []metamorphicCase
	for _, seed := range []int64{7, 19} {
		topo := topology.GaoRexford(2, 3, 5, seed)
		if err := topo.Validate(); err != nil {
			t.Fatalf("seed %d topology invalid: %v", seed, err)
		}
		if !topo.Connected() {
			t.Fatalf("seed %d topology disconnected", seed)
		}
		victimNode := topo.Nodes[0]
		hijacker := topo.Nodes[len(topo.Nodes)-1].Name
		filterless := topo.Nodes[2].Name
		peer := topo.NeighborsOf(filterless)[0]
		opts := cluster.Options{
			Seed:       seed,
			GaoRexford: true,
			ConfigOverride: faults.ApplyConfigFaults(
				faults.MisOrigination{Router: hijacker, Prefix: victimNode.Prefixes[0]},
				faults.MissingImportFilter{Router: filterless, Peer: peer},
			),
			MaxEvents: 300000,
		}
		cases = append(cases, metamorphicCase{
			name: fmt.Sprintf("gao-rexford-seed-%d", seed),
			topo: topo,
			opts: opts,
		})
	}
	return cases
}

// deploy builds and converges a fresh live cluster for the case. Each
// campaign variant gets its own deployment so one variant's snapshot timing
// cannot influence another's.
func (mc metamorphicCase) deploy(t *testing.T) *cluster.Cluster {
	t.Helper()
	live, err := cluster.Build(mc.topo, mc.opts)
	if err != nil {
		t.Fatalf("%s: Build: %v", mc.name, err)
	}
	live.Converge()
	return live
}

// detectionSet canonicalizes a campaign's merged detections (violation key
// plus first-seen input index).
func detectionSet(r *CampaignResult) string {
	ks := make([]string, 0, len(r.Detections))
	for _, d := range r.Detections {
		ks = append(ks, fmt.Sprintf("%s@%d", d.Violation.Key(), d.InputIndex))
	}
	sort.Strings(ks)
	return strings.Join(ks, ";")
}

func (mc metamorphicCase) campaign(t *testing.T, live *cluster.Cluster, extra ...CampaignOption) *CampaignResult {
	t.Helper()
	opts := []CampaignOption{
		WithStrategy(AllNodesStrategy{}),
		WithBudget(Budget{TotalInputs: 30}),
		WithFuzzSeeds(2),
		WithSeed(11),
		WithClusterOptions(mc.opts),
	}
	res, err := NewCampaign(live, mc.topo, append(opts, extra...)...).Run(context.Background())
	if err != nil {
		t.Fatalf("%s: Run: %v", mc.name, err)
	}
	return res
}

// TestMetamorphicFederatedEqualsCentralized asserts the federation
// equivalence on random topologies: splitting the same campaign into per-AS
// administrative domains (summary-only disclosure, domain-scoped checking)
// must change nothing about what is detected.
func TestMetamorphicFederatedEqualsCentralized(t *testing.T) {
	for _, mc := range metamorphicCases(t) {
		t.Run(mc.name, func(t *testing.T) {
			central := mc.campaign(t, mc.deploy(t))
			federated := mc.campaign(t, mc.deploy(t), WithFederation(federation.PartitionByAS(mc.topo)))
			if len(central.Detections) == 0 {
				t.Fatalf("campaign found nothing; equivalence is vacuous")
			}
			if got, want := detectionSet(federated), detectionSet(central); got != want {
				t.Errorf("federated detections differ from centralized:\n  federated   %s\n  centralized %s", got, want)
			}
			if !federated.Federated || federated.Disclosed.Summaries == 0 {
				t.Errorf("federated run did not exercise the summary bus: %+v", federated.Disclosed)
			}
		})
	}
}

// TestMetamorphicFederatedEqualsCentralizedHetero3 is the federation
// equivalence for the differential oracle: on the three-way heterogeneous
// demo, where every PartitionByAS domain is a single router, the per-domain
// checks must still compare the policies the *deployment* mixes. A domain
// view that judged itself homogeneous silently lost every
// cross-impl-divergence detection.
func TestMetamorphicFederatedEqualsCentralizedHetero3(t *testing.T) {
	topo := topology.Demo27Hetero3()
	mc := metamorphicCase{name: "demo27-hetero3", topo: topo, opts: cluster.Options{Seed: 7, GaoRexford: true}}
	extra := []CampaignOption{
		WithSeed(7),
		WithBudget(Budget{TotalInputs: 54}),
		WithProperties(append(checker.DefaultProperties(topo), checker.CrossImplDivergence{})...),
	}
	keys := func(r *CampaignResult) []string {
		ks := make([]string, 0, len(r.Detections))
		for _, d := range r.Detections {
			ks = append(ks, d.Violation.Key())
		}
		sort.Strings(ks)
		return ks
	}
	central := keys(mc.campaign(t, mc.deploy(t), extra...))
	federated := keys(mc.campaign(t, mc.deploy(t), append(extra, WithFederation(federation.PartitionByAS(topo)))...))
	divergent := 0
	for _, k := range central {
		if strings.HasPrefix(k, "cross-impl-divergence|") {
			divergent++
		}
	}
	if divergent == 0 {
		t.Fatal("the centralized campaign flagged no divergence; the equivalence is vacuous")
	}
	if !reflect.DeepEqual(federated, central) {
		missing := 0
		have := make(map[string]bool, len(federated))
		for _, k := range federated {
			have[k] = true
		}
		for _, k := range central {
			if !have[k] {
				missing++
			}
		}
		t.Errorf("federated found %d detections, centralized %d (%d of them divergences); %d centralized detections are missing", len(federated), len(central), divergent, missing)
	}
}

// TestMetamorphicPooledEqualsCold asserts the clone-lifecycle equivalence on
// random topologies: leasing rewound clones from the pool and cold-building
// a fresh clone per input must explore the same states and find the same
// detections, serially and with a parallel worker pool.
func TestMetamorphicPooledEqualsCold(t *testing.T) {
	for _, mc := range metamorphicCases(t) {
		t.Run(mc.name, func(t *testing.T) {
			cold := mc.campaign(t, mc.deploy(t), WithPooledClones(false), WithWorkers(1))
			pooled := mc.campaign(t, mc.deploy(t), WithPooledClones(true), WithWorkers(1))
			pooledParallel := mc.campaign(t, mc.deploy(t), WithPooledClones(true), WithWorkers(4))
			if len(cold.Detections) == 0 {
				t.Fatalf("campaign found nothing; equivalence is vacuous")
			}
			if got, want := detectionSet(pooled), detectionSet(cold); got != want {
				t.Errorf("pooled detections differ from cold:\n  pooled %s\n  cold   %s", got, want)
			}
			if got, want := detectionSet(pooledParallel), detectionSet(cold); got != want {
				t.Errorf("parallel pooled detections differ from cold:\n  pooled %s\n  cold   %s", got, want)
			}
			if cold.CloneStats.Resets != 0 || pooled.CloneStats.Resets == 0 {
				t.Errorf("lifecycle accounting wrong: cold %+v, pooled %+v", cold.CloneStats, pooled.CloneStats)
			}
		})
	}
}

// TestMetamorphicHeterogeneousFindsSameClasses asserts the heterogeneity
// variant of the metamorphic property on a random topology: re-tagging the
// transit tier onto obgpd and the stub tier onto frr — a genuine three-way
// bird/obgpd/frr deployment — must not lose any detected fault class
// relative to the homogeneous run.
func TestMetamorphicHeterogeneousFindsSameClasses(t *testing.T) {
	for _, mc := range metamorphicCases(t) {
		t.Run(mc.name, func(t *testing.T) {
			homo := mc.campaign(t, mc.deploy(t))

			mixedTopo := mc.topo // mutate a copy of the node list, not the shared case
			cp := *mixedTopo
			cp.Nodes = append([]topology.Node(nil), mixedTopo.Nodes...)
			var transits, stubs []string
			for _, n := range cp.Nodes {
				switch n.Tier {
				case 2:
					transits = append(transits, n.Name)
				case 3:
					stubs = append(stubs, n.Name)
				}
			}
			cp.SetImpl("obgpd", transits...)
			cp.SetImpl("frr", stubs...)
			mcMixed := metamorphicCase{name: mc.name + "-mixed", topo: &cp, opts: mc.opts}
			mixed := mcMixed.campaign(t, mcMixed.deploy(t))

			impls := map[string]bool{}
			for _, n := range cp.Nodes {
				impl := n.Impl
				if impl == "" {
					impl = "bird"
				}
				impls[impl] = true
			}
			if len(impls) != 3 {
				t.Fatalf("mixed topology runs %d implementations, want a three-way mix: %v", len(impls), impls)
			}

			classes := func(r *CampaignResult) map[string]bool {
				out := map[string]bool{}
				for _, d := range r.Detections {
					out[d.Class.String()] = true
				}
				return out
			}
			for cl := range classes(homo) {
				if !classes(mixed)[cl] {
					t.Errorf("three-way mixed deployment lost fault class %s", cl)
				}
			}
		})
	}
}
