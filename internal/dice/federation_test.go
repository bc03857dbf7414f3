package dice

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/federation"
	"github.com/dice-project/dice/internal/topology"
)

// detectionFingerprint canonicalizes detections as key@inputIndex pairs.
func detectionFingerprint(ds []Detection) string {
	keys := make([]string, 0, len(ds))
	for _, d := range ds {
		keys = append(keys, fmt.Sprintf("%s@%d", d.Violation.Key(), d.InputIndex))
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

// TestFederatedMatchesCentralizedHijack is the headline equivalence: on the
// hijack scenario with identical seeds, a federated campaign (per-AS
// domains, summaries over the bus) must detect exactly the violations the
// omniscient centralized campaign detects, at the same input indices —
// federation changes who may see what, not what is found.
func TestFederatedMatchesCentralizedHijack(t *testing.T) {
	run := func(opts ...CampaignOption) *CampaignResult {
		topo, live, copts := hijackedLine(t, 4)
		base := []CampaignOption{
			WithBudget(Budget{TotalInputs: 24}),
			WithFuzzSeeds(4),
			WithSeed(3),
			WithClusterOptions(copts),
			WithWorkers(2),
		}
		res, err := NewCampaign(live, topo, append(base, opts...)...).Run(context.Background())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	centralized := run(WithStrategy(AllNodesStrategy{}))
	federated := run(WithFederation(federation.PartitionByAS(topology.Line(4))))

	if len(centralized.Detections) == 0 {
		t.Fatal("centralized campaign found nothing; equivalence is vacuous")
	}
	if !federated.Federated || centralized.Federated {
		t.Fatalf("Federated flags wrong: centralized=%v federated=%v", centralized.Federated, federated.Federated)
	}
	if federated.InputsExplored != centralized.InputsExplored {
		t.Errorf("inputs explored differ: federated=%d centralized=%d", federated.InputsExplored, centralized.InputsExplored)
	}
	if got, want := detectionFingerprint(federated.Detections), detectionFingerprint(centralized.Detections); got != want {
		t.Errorf("federated detections differ from centralized:\n  federated   %s\n  centralized %s", got, want)
	}
	if len(federated.Domains) != 4 {
		t.Fatalf("per-domain breakdown has %d entries, want 4: %+v", len(federated.Domains), federated.Domains)
	}
	if federated.Disclosed.Summaries == 0 || federated.Disclosed.Bytes == 0 {
		t.Errorf("federated campaign disclosed nothing: %+v", federated.Disclosed)
	}
	// The breakdown must tie out against the campaign totals.
	units, inputs, found := 0, 0, 0
	for _, d := range federated.Domains {
		units += d.Units
		inputs += d.InputsExplored
		found += d.Detections
	}
	if units != len(federated.Units) || inputs != federated.InputsExplored || found != len(federated.Detections) {
		t.Errorf("domain breakdown inconsistent: units %d/%d inputs %d/%d detections %d/%d",
			units, len(federated.Units), inputs, federated.InputsExplored, found, len(federated.Detections))
	}
	// Per explored input, the summary traffic must undercut what one
	// full-state exchange would cost — the paper's disclosure claim.
	if federated.InputsExplored == 0 {
		t.Fatal("federated campaign explored nothing")
	}
	if perInput := federated.Disclosed.Bytes / federated.InputsExplored; perInput >= federated.FullStateBytes {
		t.Errorf("summaries per input (%d bytes) should cost less than a full-state exchange (%d bytes)",
			perInput, federated.FullStateBytes)
	}
}

// TestFederatedDeterministicInWorkers mirrors the centralized determinism
// guarantee for federated campaigns.
func TestFederatedDeterministicInWorkers(t *testing.T) {
	run := func(workers int) *CampaignResult {
		topo, live, copts := hijackedLine(t, 4)
		res, err := NewCampaign(live, topo,
			WithFederation(federation.PartitionByAS(topo)),
			WithBudget(Budget{TotalInputs: 16}),
			WithFuzzSeeds(4),
			WithSeed(3),
			WithClusterOptions(copts),
			WithWorkers(workers)).Run(context.Background())
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		return res
	}
	serial, parallel := run(1), run(4)
	if len(serial.Detections) == 0 {
		t.Fatal("federated campaign found nothing")
	}
	if detectionFingerprint(serial.Detections) != detectionFingerprint(parallel.Detections) {
		t.Errorf("federated detections differ across worker counts")
	}
	if serial.Disclosed != parallel.Disclosed {
		t.Errorf("disclosure accounting differs across worker counts: %+v vs %+v", serial.Disclosed, parallel.Disclosed)
	}
}

// allowedSummaryPkgs are the packages whose types may appear anywhere inside
// checker.Summary. Anything from bird, policy, rib or netem inside the
// summary type graph would mean node-local state can cross the bus.
var allowedSummaryPkgs = map[string]bool{
	"": true, // builtins
	"github.com/dice-project/dice/internal/checker": true,
	"github.com/dice-project/dice/internal/bgp":     true,
}

// walkTypes recursively collects every named type reachable from t.
func walkTypes(t reflect.Type, seen map[reflect.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map, reflect.Chan:
		walkTypes(t.Elem(), seen)
		if t.Kind() == reflect.Map {
			walkTypes(t.Key(), seen)
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			walkTypes(t.Field(i).Type, seen)
		}
	}
}

// TestFederationPrivacy proves the two halves of the privacy claim on a real
// federated run over a policied deployment: (1) nothing that crosses the bus
// references router configurations, policies or raw route attributes —
// structurally (type graph) and on the wire (serialized envelopes contain no
// private config content); (2) the campaign's Disclosed accounting equals
// the bytes actually exchanged on the bus.
func TestFederationPrivacy(t *testing.T) {
	// Structural half: the summary type graph stays within checker/bgp.
	seen := map[reflect.Type]bool{}
	walkTypes(reflect.TypeOf(checker.Summary{}), seen)
	for typ := range seen {
		if !allowedSummaryPkgs[typ.PkgPath()] {
			t.Errorf("checker.Summary reaches type %v from package %q — private state could cross the bus", typ, typ.PkgPath())
		}
	}

	// Behavioral half: run a federated campaign over a Gao–Rexford-policied
	// deployment (so the configs hold genuinely private policy content) with
	// a hijack planted, and audit the bus.
	topo := topology.Line(3)
	victim := topo.Nodes[0].Prefixes[0]
	copts := cluster.Options{
		Seed:           1,
		GaoRexford:     true,
		ConfigOverride: faults.ApplyConfigFaults(faults.MisOrigination{Router: "R3", Prefix: victim}),
	}
	live := cluster.MustBuild(topo, copts)
	live.Converge()

	campaign := NewCampaign(live, topo,
		WithFederation(federation.PartitionByAS(topo)),
		WithStrategy(AllNodesStrategy{}),
		WithBudget(Budget{TotalInputs: 12}),
		WithSeed(1),
		WithClusterOptions(copts),
		WithWorkers(2))
	campaign.testRetainBusLog = true
	res, err := campaign.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Detections) == 0 {
		t.Fatal("campaign found nothing; privacy audit is vacuous")
	}

	// Private content that must never appear on the wire: every policy name
	// and import/export binding of every router config.
	var forbidden []string
	for _, name := range live.RouterNames() {
		cfg := live.Router(name).Config()
		for pname := range cfg.Policies {
			forbidden = append(forbidden, pname)
		}
		for _, n := range cfg.Neighbors {
			if n.Import != "" {
				forbidden = append(forbidden, n.Import)
			}
			if n.Export != "" {
				forbidden = append(forbidden, n.Export)
			}
		}
	}

	log := campaign.fed.bus.Log()
	if len(log) == 0 {
		t.Fatal("federated campaign exchanged no summaries")
	}
	totalBytes, totalSize := 0, 0
	for _, env := range log {
		totalBytes += env.Bytes
		totalSize += env.Summary.Size()
		// JSON reflects every exported field by name, so nothing a summary
		// carries can hide from the scan.
		wire, err := json.Marshal(env.Summary)
		if err != nil {
			t.Fatalf("serializing bus envelope %d: %v", env.Seq, err)
		}
		for _, secret := range forbidden {
			if bytes.Contains(wire, []byte(secret)) {
				t.Fatalf("envelope %d (%s -> %s) leaks private config content %q", env.Seq, env.From, env.To, secret)
			}
		}
	}

	// Disclosure accounting: charged bytes == serialized sizes == campaign
	// totals, and the per-unit aggregation agrees with the bus.
	if totalBytes != totalSize {
		t.Errorf("bus charged %d bytes but summaries serialize to %d", totalBytes, totalSize)
	}
	if res.Disclosed.Bytes != totalBytes || res.Disclosed.Summaries != len(log) {
		t.Errorf("Disclosed %+v does not match bus traffic (%d summaries, %d bytes)",
			res.Disclosed, len(log), totalBytes)
	}
	if res.DisclosedBytes != totalBytes {
		t.Errorf("per-unit DisclosedBytes sum %d != bus bytes %d", res.DisclosedBytes, totalBytes)
	}
}

// TestFederationLiteralPartitionAndPinnedUnits covers the WithUnits path
// with a partition built as a plain struct literal (never through
// NewPartition): the campaign must adopt a validated partition rather than
// trusting the caller's unindexed value.
func TestFederationLiteralPartitionAndPinnedUnits(t *testing.T) {
	topo, live, copts := hijackedLine(t, 3)
	literal := &federation.Partition{Domains: []federation.Domain{
		{Name: "edge", Nodes: []string{"R1", "R2"}},
		{Name: "core", Nodes: []string{"R3"}},
	}}
	res, err := NewCampaign(live, topo,
		WithFederation(literal),
		WithUnits(Unit{Explorer: "R2", FromPeer: "R3", MaxInputs: 8, FuzzSeeds: 4}),
		WithSeed(1),
		WithClusterOptions(copts)).Run(context.Background())
	if err != nil {
		t.Fatalf("Run with literal partition: %v", err)
	}
	if len(res.Units) != 1 || res.Units[0].Domain != "edge" {
		t.Fatalf("pinned unit not assigned to its domain: %+v", res.Units[0])
	}
	if !res.Detected(checker.ClassOperatorMistake) {
		t.Errorf("federated pinned-unit campaign missed the hijack")
	}

	// A partition that does not fit the topology still fails cleanly.
	bad := &federation.Partition{Domains: []federation.Domain{{Name: "a", Nodes: []string{"R1"}}}}
	topo2, live2, copts2 := hijackedLine(t, 3)
	if _, err := NewCampaign(live2, topo2,
		WithFederation(bad),
		WithClusterOptions(copts2)).Run(context.Background()); err == nil {
		t.Errorf("partition not covering the topology must fail Run")
	}
}

// secondProjection is a second distinct ProjectionProperty: federated
// campaigns carry one projection per summary, so configuring it next to
// LoopFreedom must be rejected instead of silently mis-evaluated.
type secondProjection struct{ checker.LoopFreedom }

func (secondProjection) Name() string { return "second-projection" }

func TestFederatedRejectsMultipleProjectionProperties(t *testing.T) {
	topo, live, copts := hijackedLine(t, 3)
	_, err := NewCampaign(live, topo,
		WithFederation(federation.PartitionByAS(topo)),
		WithProperties(checker.LoopFreedom{}, secondProjection{}),
		WithClusterOptions(copts)).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "projection-based") {
		t.Errorf("two distinct projection properties accepted: %v", err)
	}
	// Duplicate instances of the same property share the projection and are
	// fine.
	topo2, live2, copts2 := hijackedLine(t, 3)
	if _, err := NewCampaign(live2, topo2,
		WithFederation(federation.PartitionByAS(topo2)),
		WithProperties(checker.LoopFreedom{}, checker.LoopFreedom{}),
		WithUnits(Unit{Explorer: "R2", MaxInputs: 2}),
		WithClusterOptions(copts2)).Run(context.Background()); err != nil {
		t.Errorf("duplicate projection property instances rejected: %v", err)
	}
}

// TestCampaignCloneLeaseNeverLeaks fault-injects failures into the clone
// path and cancels campaigns mid-flight, then asserts the pool's books
// balance: every leased clone was released, nothing outstanding.
func TestCampaignCloneLeaseNeverLeaks(t *testing.T) {
	t.Run("injected-clone-faults", func(t *testing.T) {
		topo, live, copts := hijackedLine(t, 3)
		campaign := NewCampaign(live, topo,
			WithStrategy(AllNodesStrategy{}),
			WithBudget(Budget{TotalInputs: 18}),
			WithSeed(1),
			WithClusterOptions(copts),
			WithWorkers(2))
		boom := errors.New("injected clone fault")
		var calls atomic.Int64
		campaign.testCloneFault = func() error {
			// Workers call this concurrently; the counter must not race.
			if calls.Add(1)%3 == 0 {
				return boom
			}
			return nil
		}
		res, err := campaign.Run(context.Background())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if res.InputsExplored == 0 {
			t.Fatal("campaign explored nothing around the injected faults")
		}
		if out := campaign.clones.Outstanding(); out != 0 {
			t.Errorf("%d pooled clones leaked after injected mid-clone failures", out)
		}
		if s := campaign.clones.Stats(); s.Leases != s.Releases {
			t.Errorf("pool stats unbalanced: %+v", s)
		}
	})

	t.Run("cancel-mid-campaign", func(t *testing.T) {
		for _, pooled := range []bool{true, false} {
			t.Run(fmt.Sprintf("pooled=%v", pooled), func(t *testing.T) {
				topo, live, copts := hijackedLine(t, 3)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				campaign := NewCampaign(live, topo,
					WithStrategy(AllNodesStrategy{}),
					WithBudget(Budget{TotalInputs: 100000}),
					WithSeed(1),
					WithClusterOptions(copts),
					WithPooledClones(pooled),
					WithWorkers(2),
					WithOnEvent(func(ev Event) {
						if ev.Kind == EventDetection {
							cancel()
						}
					}))
				if _, err := campaign.Run(ctx); !errors.Is(err, context.Canceled) {
					t.Fatalf("Run = %v, want context.Canceled", err)
				}
				var stats cluster.PoolStats
				if pooled {
					if out := campaign.clones.Outstanding(); out != 0 {
						t.Errorf("%d pooled clones leaked after cancellation", out)
					}
					stats = campaign.clones.Stats()
				} else {
					campaign.coldMu.Lock()
					stats = campaign.coldStats
					campaign.coldMu.Unlock()
				}
				if stats.Leases != stats.Releases {
					t.Errorf("clone stats unbalanced after cancellation: %+v", stats)
				}
			})
		}
	})
}
