package live

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/dice"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/topology"
)

// soakFixture deploys a Line(3) with a mis-origination planted at R3 (it
// hijacks R1's prefix) and converges it.
func soakFixture(t *testing.T) (*cluster.Cluster, *topology.Topology, cluster.Options) {
	t.Helper()
	topo := topology.Line(3)
	victim := topo.Nodes[0].Prefixes[0]
	opts := cluster.Options{Seed: 1, ConfigOverride: faults.ApplyConfigFaults(
		faults.MisOrigination{Router: "R3", Prefix: victim})}
	c, err := cluster.Build(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Converge()
	return c, topo, opts
}

func TestRuntimeSoakDetectsMisOrigination(t *testing.T) {
	deployed, topo, opts := soakFixture(t)
	before := deployed.TotalBestChanges()

	rt, err := NewRuntime(deployed, topo, Options{
		Seed:              1,
		ClusterOptions:    opts,
		MaxEpochs:         2,
		InputsPerScenario: 4,
		FuzzSeeds:         2,
		Explorers:         []string{"R2"},
		Workers:           1,
		Traffic:           func(*cluster.Cluster, *rand.Rand, int) {}, // idle: determinism
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := rt.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	stats := rt.Stats()
	if stats.Epochs != 2 {
		t.Fatalf("epochs = %d, want 2", stats.Epochs)
	}
	if !report.Detected(checker.ClassOperatorMistake) {
		t.Fatalf("mis-origination not detected online; findings: %v", report.Findings())
	}
	if stats.FirstDetectionEpoch != 1 {
		t.Errorf("first detection in epoch %d, want 1 (steady-state violation)", stats.FirstDetectionEpoch)
	}
	for _, f := range report.Findings() {
		if f.Epoch < 1 || f.Epoch > 2 {
			t.Errorf("finding with bad epoch provenance: %v", f)
		}
		if f.Scenario == "" || f.Explorer == "" || f.InputIndex < 1 {
			t.Errorf("finding with incomplete provenance: %v", f)
		}
		if !f.Reverified {
			t.Errorf("finding not re-verified against a cold clone: %v", f)
		}
		if len(f.Trace) > f.TraceOriginal {
			t.Errorf("minimized trace longer than original: %v", f)
		}
	}
	// The mis-origination is a steady-state violation: its minimal trace is
	// empty (the cold clone already violates).
	if f := report.Find(firstKey(report)); f != nil && f.Class == checker.ClassOperatorMistake && len(f.Trace) != 0 {
		for _, g := range report.Findings() {
			if g.Class == checker.ClassOperatorMistake && len(g.Trace) == 0 {
				goto ok
			}
		}
		t.Errorf("no operator-mistake finding minimized to the empty trace")
	ok:
	}
	// Exploration never perturbs the deployment.
	if deployed.TotalBestChanges() != before {
		t.Errorf("live cluster mutated by the soak")
	}
	// Ring retained both epochs, tagged in order.
	if got := rt.Ring().Seqs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("ring seqs = %v", got)
	}
	// Run is single-use.
	if _, err := rt.Run(context.Background()); err != ErrRuntimeReused {
		t.Errorf("second Run err = %v, want ErrRuntimeReused", err)
	}
}

func firstKey(r *Report) string {
	fs := r.Findings()
	if len(fs) == 0 {
		return ""
	}
	return fs[0].Violation.Key()
}

// TestRuntimeDedupeOnIdleEpochs pins the cross-epoch dedupe claim: epochs
// whose state fingerprint is unchanged skip their scenario campaigns
// entirely, charging the saved inputs and paths to the dedupe counters.
func TestRuntimeDedupeOnIdleEpochs(t *testing.T) {
	deployed, topo, opts := soakFixture(t)
	rt, err := NewRuntime(deployed, topo, Options{
		Seed:              1,
		ClusterOptions:    opts,
		MaxEpochs:         3,
		InputsPerScenario: 3,
		FuzzSeeds:         2,
		Explorers:         []string{"R2"},
		Workers:           1,
		MinimizeReplays:   -1,                                         // irrelevant here
		Traffic:           func(*cluster.Cluster, *rand.Rand, int) {}, // idle: state never changes
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := rt.Stats()
	n := rt.Scheduler().Len()
	if stats.Campaigns != n {
		t.Errorf("campaigns = %d, want %d (only epoch 1 explores)", stats.Campaigns, n)
	}
	if stats.CampaignsDeduped != 2*n {
		t.Errorf("deduped = %d, want %d (epochs 2 and 3 fully skipped)", stats.CampaignsDeduped, 2*n)
	}
	if stats.InputsSaved <= 0 || stats.InputsSaved != 2*stats.InputsExplored {
		t.Errorf("inputs saved = %d, explored = %d; want saved == 2x explored", stats.InputsSaved, stats.InputsExplored)
	}
	if stats.DedupeSavedFraction() < 0.6 {
		t.Errorf("dedupe fraction = %.2f, want >= 0.66", stats.DedupeSavedFraction())
	}
	if rt.Cache().Len() != n {
		t.Errorf("cache entries = %d, want %d", rt.Cache().Len(), n)
	}
}

// TestRuntimeChurnChangesFingerprints is the dedupe counter-case: with real
// traffic between epochs the fingerprints differ and every epoch explores.
func TestRuntimeChurnChangesFingerprints(t *testing.T) {
	deployed, topo, opts := soakFixture(t)
	rt, err := NewRuntime(deployed, topo, Options{
		Seed:              1,
		ClusterOptions:    opts,
		MaxEpochs:         2,
		InputsPerScenario: 2,
		FuzzSeeds:         2,
		ScenariosPerEpoch: 1,
		Explorers:         []string{"R2"},
		Workers:           1,
		MinimizeReplays:   -1,
		Traffic:           DefaultTraffic(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	eps := rt.Ring().Seqs()
	if len(eps) != 2 {
		t.Fatalf("ring seqs = %v", eps)
	}
	a, b := rt.Ring().Get(eps[0]), rt.Ring().Get(eps[1])
	if a.Fingerprint == b.Fingerprint {
		t.Fatalf("churned epochs share a fingerprint")
	}
	if b.NodesChanged == 0 {
		t.Errorf("churned epoch reports no changed nodes")
	}
	if rt.Stats().CampaignsDeduped != 0 {
		t.Errorf("churned epochs deduped: %d", rt.Stats().CampaignsDeduped)
	}
}

// TestMinimizerShrinksTrace drives the greedy minimizer directly: a trace
// padded with removable churn around the one hijack injection that matters
// must shrink to exactly that injection, re-verified on a cold clone.
func TestMinimizerShrinksTrace(t *testing.T) {
	topo := topology.Line(3)
	opts := cluster.Options{Seed: 1}
	deployed := cluster.MustBuild(topo, opts)
	deployed.Converge()

	rt, err := NewRuntime(deployed, topo, Options{Seed: 1, ClusterOptions: opts, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := rt.Ring().Push(deployed.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	victim := topo.Nodes[2].Prefixes[0] // R3's prefix, hijacked by R1
	ownPfx := topo.Nodes[0].Prefixes[0]
	legit := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{topo.Nodes[0].AS}, NextHop: 1}
	wire := func(u *bgp.Update) []byte { return bgp.Encode(u) }
	trace := []TraceStep{
		// Removable noise: R1 re-announces and withdraws its own prefix.
		{From: "R1", To: "R2", Wire: wire(&bgp.Update{Attrs: legit, NLRI: []bgp.Prefix{ownPfx}})},
		{From: "R1", To: "R2", Wire: wire(&bgp.Update{Withdrawn: []bgp.Prefix{ownPfx}})},
		{From: "R1", To: "R2", Wire: wire(&bgp.Update{Attrs: legit, NLRI: []bgp.Prefix{ownPfx}})},
		// The step that matters: R1 hijacks R3's prefix.
		{From: "R1", To: "R2", Wire: wire(&bgp.Update{Attrs: legit, NLRI: []bgp.Prefix{victim}})},
	}

	// Recover the violation the full trace produces.
	var violation checker.Violation
	found := false
	shadow, err := cluster.FromSnapshot(topo, ep.Store.Snapshot(), opts)
	if err != nil {
		t.Fatal(err)
	}
	replaySteps(shadow, trace, 20000)
	for _, v := range checker.CheckAll(shadow, rt.props).Violations() {
		if v.Class == checker.ClassOperatorMistake {
			violation, found = v, true
			break
		}
	}
	if !found {
		t.Fatal("fixture trace produces no operator-mistake violation")
	}

	f := &Finding{Violation: violation, Class: violation.Class, Trace: cloneSteps(trace), TraceOriginal: len(trace)}
	rt.minimize(ep, f)
	if !f.Reverified {
		t.Fatalf("minimized trace not re-verified")
	}
	if len(f.Trace) != 1 {
		t.Fatalf("minimized to %d steps, want 1: %v", len(f.Trace), f.Trace)
	}
	if !bytes.Equal(f.Trace[0].Wire, trace[3].Wire) {
		t.Fatalf("minimizer kept the wrong step: %v", f.Trace[0])
	}
	if !rt.reproduces(ep, f.Trace, violation.Key()) {
		t.Fatalf("minimized trace does not reproduce from a cold clone")
	}
}

func TestGovernorStretchesCadenceOnPauseOverrun(t *testing.T) {
	deployed, topo, opts := soakFixture(t)
	rt, err := NewRuntime(deployed, topo, Options{
		Seed:              1,
		ClusterOptions:    opts,
		MaxEpochs:         3,
		PauseBudget:       time.Nanosecond, // every real pause overruns
		InputsPerScenario: 2,
		FuzzSeeds:         2,
		ScenariosPerEpoch: 1,
		Explorers:         []string{"R2"},
		Workers:           1,
		MinimizeReplays:   -1,
		Traffic:           func(*cluster.Cluster, *rand.Rand, int) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := rt.Stats()
	if stats.PauseBudgetExceeded != 3 {
		t.Errorf("budget exceeded = %d, want 3", stats.PauseBudgetExceeded)
	}
	if stats.CheckpointStride != 8 {
		t.Errorf("final stride = %d, want 8 (doubled each epoch, capped)", stats.CheckpointStride)
	}
	if stats.StrideStretches != 3 {
		t.Errorf("stride stretches = %d, want 3 (one per doubling: 1→2→4→8)", stats.StrideStretches)
	}
	if stats.StrideRelaxes != 0 {
		t.Errorf("stride relaxes = %d, want 0", stats.StrideRelaxes)
	}
	if stats.CheckpointPauseMax <= 0 || stats.PauseMean() <= 0 {
		t.Errorf("pause accounting empty: %+v", stats)
	}
}

// TestGovernorOverrunsAtStrideCap pins the promoted governor counters apart:
// once the stride caps at 8, further overruns keep incrementing
// PauseBudgetExceeded but produce no stretch — StrideStretches counts actual
// cadence doublings, exactly one per stretch, never one per overrun.
func TestGovernorOverrunsAtStrideCap(t *testing.T) {
	deployed, topo, opts := soakFixture(t)
	rt, err := NewRuntime(deployed, topo, Options{
		Seed:              1,
		ClusterOptions:    opts,
		MaxEpochs:         5,
		PauseBudget:       time.Nanosecond, // every real pause overruns
		InputsPerScenario: 2,
		FuzzSeeds:         2,
		ScenariosPerEpoch: 1,
		Explorers:         []string{"R2"},
		Workers:           1,
		MinimizeReplays:   -1,
		Traffic:           func(*cluster.Cluster, *rand.Rand, int) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := rt.Stats()
	if stats.PauseBudgetExceeded != 5 {
		t.Errorf("budget exceeded = %d, want 5 (every epoch overran)", stats.PauseBudgetExceeded)
	}
	if stats.StrideStretches != 3 {
		t.Errorf("stride stretches = %d, want 3 (1→2→4→8, then capped)", stats.StrideStretches)
	}
	if stats.CheckpointStride != 8 {
		t.Errorf("final stride = %d, want 8", stats.CheckpointStride)
	}
}

func TestDeliverSupersedesStaleEpoch(t *testing.T) {
	rt := &Runtime{}
	deployedTopo := topology.Line(2)
	c := cluster.MustBuild(deployedTopo, cluster.Options{Seed: 1})
	c.Converge()
	ring := checkpoint.NewRing(2)
	ep1, err := ring.Push(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := ring.Push(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	mailbox := make(chan epochWork, 1)
	rt.deliver(mailbox, epochWork{ep: ep1})
	rt.deliver(mailbox, epochWork{ep: ep2}) // supersedes ep1
	got := <-mailbox
	if got.ep != ep2 {
		t.Fatalf("mailbox holds epoch %d, want %d", got.ep.Seq, ep2.Seq)
	}
	if rt.stats.EpochsSuperseded != 1 {
		t.Fatalf("superseded = %d, want 1", rt.stats.EpochsSuperseded)
	}
}

func TestRuntimeOverlapSoak(t *testing.T) {
	deployed, topo, opts := soakFixture(t)
	rt, err := NewRuntime(deployed, topo, Options{
		Seed:              1,
		ClusterOptions:    opts,
		MaxEpochs:         3,
		Overlap:           true,
		InputsPerScenario: 3,
		FuzzSeeds:         2,
		ScenariosPerEpoch: 2,
		Explorers:         []string{"R2"},
		Workers:           1,
		MinimizeReplays:   -1,
		Traffic:           DefaultTraffic(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := rt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Pipelined exploration still finds the planted fault; every epoch was
	// either explored or superseded by a fresher one.
	if !report.Detected(checker.ClassOperatorMistake) {
		t.Fatalf("overlap soak missed the planted fault")
	}
	stats := rt.Stats()
	if stats.Epochs != 3 {
		t.Errorf("epochs = %d", stats.Epochs)
	}
	explored := stats.Campaigns + stats.CampaignsDeduped
	if explored == 0 {
		t.Errorf("no epochs explored at all")
	}
}

func TestRuntimeCancellation(t *testing.T) {
	deployed, topo, opts := soakFixture(t)
	rt, err := NewRuntime(deployed, topo, Options{
		Seed:              1,
		ClusterOptions:    opts,
		MaxEpochs:         0, // unbounded: only the context ends the soak
		InputsPerScenario: 2,
		FuzzSeeds:         2,
		ScenariosPerEpoch: 1,
		Explorers:         []string{"R2"},
		Workers:           1,
		MinimizeReplays:   -1,
		Traffic:           func(*cluster.Cluster, *rand.Rand, int) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var runErr error
	go func() {
		_, runErr = rt.Run(ctx)
		close(done)
	}()
	for rt.Stats().Epochs == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("soak did not stop on cancellation")
	}
	if runErr != context.Canceled {
		t.Errorf("Run err = %v, want context.Canceled", runErr)
	}
}

// coldReplayKeys is the reference replay: a full FromSnapshot rebuild per
// call, no pooling, no memo — what every minimizer replay was before the
// search moved onto pooled clones.
func (rt *Runtime) coldReplayKeys(ep *checkpoint.Epoch, steps []TraceStep) map[string]bool {
	shadow, err := cluster.FromSnapshot(rt.topo, ep.Store.Snapshot(), rt.opts.ClusterOptions)
	if err != nil {
		return nil
	}
	faults.InstallCodeFaults(shadow.Routers, rt.opts.CodeFaults...)
	replaySteps(shadow, steps, rt.opts.ShadowMaxEvents)
	shadow.Net.RunQuiescent(rt.opts.ShadowMaxEvents)
	out := make(map[string]bool)
	for _, v := range checker.CheckAll(shadow, rt.props).Violations() {
		out[v.Key()] = true
	}
	return out
}

// coldMinimizeGroup is the reference minimizer: the all-cold greedy loop the
// pooled search replaced, kept here so the equivalence test below has
// something independent to compare against.
func (rt *Runtime) coldMinimizeGroup(ep *checkpoint.Epoch, group []*Finding, budget int) {
	replays := 0
	replay := func(steps []TraceStep) map[string]bool {
		replays++
		return rt.coldReplayKeys(ep, steps)
	}
	full := replay(group[0].Trace)
	var want []string
	var verifiable []*Finding
	for _, f := range group {
		if full[f.Violation.Key()] {
			want = append(want, f.Violation.Key())
			verifiable = append(verifiable, f)
		} else {
			f.Reverified = false
		}
	}
	if len(verifiable) == 0 {
		return
	}
	covers := func(got map[string]bool) bool {
		for _, k := range want {
			if !got[k] {
				return false
			}
		}
		return true
	}
	steps := cloneSteps(group[0].Trace)
	for i := 0; i < len(steps) && replays < budget; {
		candidate := append(cloneSteps(steps[:i]), cloneSteps(steps[i+1:])...)
		if covers(replay(candidate)) {
			steps = candidate
		} else {
			i++
		}
	}
	var steady map[string]bool
	if len(steps) > 0 && replays < budget {
		steady = replay(nil)
	}
	for _, f := range verifiable {
		if steady[f.Violation.Key()] {
			f.Trace = nil
		} else {
			f.Trace = cloneSteps(steps)
		}
		f.Reverified = true
	}
}

// coldReproducer is rt.reproduces over many findings: one cold replay per
// distinct (epoch, trace) instead of one per finding.
func coldReproducer(rt *Runtime) func(*Finding) bool {
	replays := make(map[int]*epochReplays)
	return func(f *Finding) bool {
		if replays[f.Epoch] == nil {
			replays[f.Epoch] = rt.replaysOf(rt.Ring().Get(f.Epoch))
		}
		return rt.confirm(replays[f.Epoch], f.Trace)[f.Violation.Key()]
	}
}

func sameTrace(a, b []TraceStep) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].From != b[i].From || a[i].To != b[i].To || !bytes.Equal(a[i].Wire, b[i].Wire) {
			return false
		}
	}
	return true
}

// TestPooledSearchMatchesColdSearch pins pooled search ≡ cold search: two
// identical soaks, one minimizing online (pooled probes, memoised cold
// confirmations), one publishing raw traces that the reference all-cold
// minimizer then shrinks. Every finding must come out with the same trace
// bytes and the same Reverified, and must reproduce from a cold clone.
func TestPooledSearchMatchesColdSearch(t *testing.T) {
	line := topology.Line(3)
	demo := topology.Demo27Hetero3()
	cases := []struct {
		name     string
		topo     *topology.Topology
		faults   []faults.ConfigFault
		explorer string
		epochs   int
	}{
		{"line3-two-faults", line, []faults.ConfigFault{
			faults.MisOrigination{Router: "R3", Prefix: line.Nodes[0].Prefixes[0]},
			faults.MissingImportFilter{Router: "R2", Peer: "R1"},
		}, "R2", 2},
		{"demo27-hetero3", demo, []faults.ConfigFault{
			faults.MisOrigination{Router: "R12", Prefix: demo.Nodes[26].Prefixes[0]},
			faults.MissingImportFilter{Router: "R1", Peer: "R4"},
		}, "R1", 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			copts := cluster.Options{Seed: 1, MaxEvents: 300000, ConfigOverride: faults.ApplyConfigFaults(tc.faults...)}
			soak := func(minimizeReplays int) *Runtime {
				deployed := cluster.MustBuild(tc.topo, copts)
				deployed.Converge()
				rt, err := NewRuntime(deployed, tc.topo, Options{
					Seed:              1,
					ClusterOptions:    copts,
					MaxEpochs:         tc.epochs,
					InputsPerScenario: 4,
					FuzzSeeds:         2,
					Explorers:         []string{tc.explorer},
					Workers:           1,
					MinimizeReplays:   minimizeReplays,
					Traffic:           DefaultTraffic(2),
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := rt.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
				return rt
			}
			pooled, raw := soak(0), soak(-1)
			if s := pooled.Stats(); s.MinimizeDisagreements != 0 || s.ReplayErrors != 0 ||
				s.MinimizeColdReplays == 0 || s.MinimizeReplays <= s.MinimizeColdReplays {
				t.Fatalf("replays %d (cold %d), disagreements %d, errors %d; want pooled probes, cold confirmations, no disagreement",
					s.MinimizeReplays, s.MinimizeColdReplays, s.MinimizeDisagreements, s.ReplayErrors)
			}

			// Regroup the raw soak's findings as explore() grouped them (one
			// group per detecting clone execution) and minimize all-cold.
			type groupKey struct {
				epoch                    int
				scenario, explorer, peer string
				domain                   string
				input                    int
			}
			groups := make(map[groupKey][]*Finding)
			var order []groupKey
			for _, f := range raw.Report().Findings() {
				k := groupKey{f.Epoch, f.Scenario, f.Explorer, f.FromPeer, f.Domain, f.InputIndex}
				if len(groups[k]) == 0 {
					order = append(order, k)
				}
				groups[k] = append(groups[k], f)
			}
			for _, k := range order {
				raw.coldMinimizeGroup(raw.Ring().Get(k.epoch), groups[k], pooled.opts.MinimizeReplays)
			}

			got := pooled.Report().Findings()
			if len(got) == 0 || len(got) != raw.Report().Len() {
				t.Fatalf("findings: pooled soak %d, raw soak %d", len(got), raw.Report().Len())
			}
			shrunk := 0
			reproduces := coldReproducer(pooled)
			for _, f := range got {
				key := f.Violation.Key()
				ref := raw.Report().Find(key)
				if ref == nil {
					t.Fatalf("finding %s missing from the reference soak", key)
				}
				if !sameTrace(f.Trace, ref.Trace) || f.Reverified != ref.Reverified {
					t.Errorf("%s: pooled trace %v (reverified %v), cold reference %v (reverified %v)",
						key, f.Trace, f.Reverified, ref.Trace, ref.Reverified)
				}
				if len(f.Trace) < f.TraceOriginal {
					shrunk++
				}
				if f.Reverified && !reproduces(f) {
					t.Errorf("%s: reverified trace does not reproduce from a cold clone", key)
				}
			}
			if shrunk == 0 {
				t.Errorf("no trace was shrunk; the fixture does not exercise the search")
			}
		})
	}
}

// TestMinimizerDisagreementKeepsOriginalTrace makes the pooled search lie (it
// claims every candidate reproduces the violation) and proves the fallback:
// the cold confirmation refuses the over-shrunk trace, the finding keeps its
// original trace, cold-verified, and the disagreement is counted.
func TestMinimizerDisagreementKeepsOriginalTrace(t *testing.T) {
	topo := topology.Line(3)
	opts := cluster.Options{Seed: 1}
	deployed := cluster.MustBuild(topo, opts)
	deployed.Converge()
	var lines []string
	rt, err := NewRuntime(deployed, topo, Options{Seed: 1, ClusterOptions: opts, Workers: 1,
		Trace: func(s string) { lines = append(lines, s) }})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := rt.Ring().Push(deployed.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	legit := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{topo.Nodes[0].AS}, NextHop: 1}
	trace := []TraceStep{
		{From: "R1", To: "R2", Wire: bgp.Encode(&bgp.Update{Withdrawn: []bgp.Prefix{topo.Nodes[0].Prefixes[0]}})},
		{From: "R1", To: "R2", Wire: bgp.Encode(&bgp.Update{Attrs: legit, NLRI: []bgp.Prefix{topo.Nodes[2].Prefixes[0]}})},
	}
	// Recover the violation the full trace produces (the hijack's).
	var violation checker.Violation
	shadow, err := cluster.FromSnapshot(topo, ep.Store.Snapshot(), opts)
	if err != nil {
		t.Fatal(err)
	}
	replaySteps(shadow, trace, 20000)
	for _, v := range checker.CheckAll(shadow, rt.props).Violations() {
		if v.Class == checker.ClassOperatorMistake {
			violation = v
			break
		}
	}
	if violation.Key() == "" || rt.coldReplayKeys(ep, nil)[violation.Key()] {
		t.Fatal("fixture trace produces no operator-mistake violation of its own")
	}

	rt.testProbe = func(_ []TraceStep, keys map[string]bool) map[string]bool {
		keys[violation.Key()] = true // the lie
		return keys
	}
	f := &Finding{Violation: violation, Class: violation.Class, Trace: cloneSteps(trace), TraceOriginal: len(trace)}
	rt.minimize(ep, f)
	if !sameTrace(f.Trace, trace) {
		t.Errorf("disagreeing group's trace = %v, want the original %v", f.Trace, trace)
	}
	if !f.Reverified || !rt.reproduces(ep, f.Trace, violation.Key()) {
		t.Errorf("original trace not cold-verified (reverified %v)", f.Reverified)
	}
	if s := rt.Stats(); s.MinimizeDisagreements != 1 {
		t.Errorf("MinimizeDisagreements = %d, want 1", s.MinimizeDisagreements)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "contradicted") {
		t.Errorf("trace lines = %q, want the one disagreement line", lines)
	}
}

// heavyFixture deploys the 27-router demo with both example faults planted:
// every churn epoch surfaces hundreds of findings in a few dozen groups.
func heavyFixture(t *testing.T) (*cluster.Cluster, *topology.Topology, cluster.Options) {
	t.Helper()
	topo := topology.Demo27()
	opts := cluster.Options{Seed: 1, MaxEvents: 300000, ConfigOverride: faults.ApplyConfigFaults(
		faults.MisOrigination{Router: "R12", Prefix: topo.Nodes[26].Prefixes[0]},
		faults.MissingImportFilter{Router: "R1", Peer: "R4"})}
	deployed := cluster.MustBuild(topo, opts)
	deployed.Converge()
	return deployed, topo, opts
}

// TestMinimizerHonorsCancellation cancels the soak from inside a finding-heavy
// campaign: the greedy search must stop at the next probe boundary, so Run
// returns after a bounded number of further replays (one pooled probe and one
// cold confirmation per detected group, plus the epoch's steady replay)
// instead of the full search — and everything it publishes on the way out is
// still cold-verified.
func TestMinimizerHonorsCancellation(t *testing.T) {
	run := func(cancelAt dice.EventKind) (*Runtime, *Report, error) {
		deployed, topo, opts := heavyFixture(t)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rt, err := NewRuntime(deployed, topo, Options{
			Seed:              1,
			ClusterOptions:    opts,
			MaxEpochs:         1,
			InputsPerScenario: 4,
			FuzzSeeds:         2,
			ScenariosPerEpoch: 1,
			Explorers:         []string{"R1"},
			Workers:           1,
			OnCampaignEvent: func(_ int, _ string, ev dice.Event) {
				if ev.Kind == cancelAt {
					cancel()
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		report, err := rt.Run(ctx)
		return rt, report, err
	}

	full, _, err := run(-1)
	if err != nil {
		t.Fatal(err)
	}
	// Every detection is in, none is minimized yet.
	rt, report, err := run(dice.EventCampaignEnd)
	if err != context.Canceled {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	stats := rt.Stats()
	if report.Len() == 0 {
		t.Fatal("the cancelled campaign's detections were dropped, not published")
	}
	groups := make(map[string]bool)
	reproduces := coldReproducer(rt)
	for _, f := range report.Findings() {
		groups[fmt.Sprint(f.FromPeer, f.InputIndex)] = true
		if !f.Reverified || !reproduces(f) {
			t.Errorf("published after cancellation without a cold verdict: %v", f)
		}
	}
	bound := 2*len(groups) + 1
	if stats.MinimizeReplays > bound {
		t.Errorf("%d replays after cancellation, want at most %d (%d groups)", stats.MinimizeReplays, bound, len(groups))
	}
	if fs := full.Stats(); len(groups) < 2 || fs.MinimizeReplays <= 2*bound {
		t.Errorf("%d groups; uncancelled soak spent %d replays against a bound of %d: the fixture does not exercise the search", len(groups), fs.MinimizeReplays, bound)
	}
	if rt.Cache().Len() != 0 {
		t.Errorf("a partial campaign was cached: %d entries", rt.Cache().Len())
	}
	if ps := rt.PoolStats(); ps.Leases != ps.Releases || rt.PoolOutstanding() != 0 {
		t.Errorf("leases %d, releases %d, outstanding %d after cancellation", ps.Leases, ps.Releases, rt.PoolOutstanding())
	}
}

// TestProbesShareTheCampaignPool pins the pool accounting with minimizer
// probes in the pool: leases balance, nothing stays outstanding, and each
// exploring epoch cold-builds exactly one clone per worker — probes reuse the
// campaign's clone rather than growing the pool.
func TestProbesShareTheCampaignPool(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		deployed, topo, opts := soakFixture(t)
		exploring := 0
		rt, err := NewRuntime(deployed, topo, Options{
			Seed:              1,
			ClusterOptions:    opts,
			MaxEpochs:         3,
			Overlap:           overlap,
			InputsPerScenario: 3,
			FuzzSeeds:         2,
			Explorers:         []string{"R2"},
			Workers:           1,
			Traffic:           DefaultTraffic(1),
			OnEpoch: func(s EpochSummary) {
				if s.Campaigns > 0 {
					exploring++
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		stats, ps := rt.Stats(), rt.PoolStats()
		if stats.MinimizeReplays <= stats.MinimizeColdReplays || stats.MinimizeColdReplays == 0 {
			t.Fatalf("overlap %v: replays %d, cold %d; want pooled probes and cold confirmations", overlap, stats.MinimizeReplays, stats.MinimizeColdReplays)
		}
		if ps.Leases != ps.Releases || rt.PoolOutstanding() != 0 {
			t.Errorf("overlap %v: leases %d, releases %d, outstanding %d", overlap, ps.Leases, ps.Releases, rt.PoolOutstanding())
		}
		if want := stats.InputsExplored + stats.MinimizeReplays - stats.MinimizeColdReplays; ps.Leases != want {
			t.Errorf("overlap %v: %d leases, want %d (inputs + pooled probes)", overlap, ps.Leases, want)
		}
		if exploring == 0 || ps.ColdBuilds != exploring {
			t.Errorf("overlap %v: %d cold builds over %d exploring epochs, want one per epoch per worker", overlap, ps.ColdBuilds, exploring)
		}
		if stats.MinimizeDisagreements != 0 || stats.ReplayErrors != 0 || stats.CampaignErrors != 0 {
			t.Errorf("overlap %v: disagreements %d, replay errors %d, campaign errors %d", overlap, stats.MinimizeDisagreements, stats.ReplayErrors, stats.CampaignErrors)
		}
	}
}

// TestFailuresAreCountedNotQuiet pins the two failure paths that used to be a
// quiet nothing: a campaign that fails outright and a replay whose clone
// cannot be built are counted, charged and named in the trace.
func TestFailuresAreCountedNotQuiet(t *testing.T) {
	deployed, topo, opts := soakFixture(t)
	var lines []string
	rt, err := NewRuntime(deployed, topo, Options{
		Seed:              1,
		ClusterOptions:    opts,
		MaxEpochs:         1,
		ScenariosPerEpoch: 2,
		Explorers:         []string{"no-such-router"}, // every campaign fails to plan
		Workers:           1,
		Traffic:           func(*cluster.Cluster, *rand.Rand, int) {},
		Trace:             func(s string) { lines = append(lines, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := rt.Stats()
	if stats.CampaignErrors != 2 || stats.Campaigns != 0 || stats.ExploreTime <= 0 {
		t.Errorf("campaign errors %d, campaigns %d, explore time %v; want 2 failed campaigns, charged", stats.CampaignErrors, stats.Campaigns, stats.ExploreTime)
	}
	if n := countContaining(lines, "failed: ", "no-such-router"); n != 2 {
		t.Errorf("%d trace lines carry the campaign error, want 2: %q", n, lines)
	}
	if rt.Cache().Len() != 0 {
		t.Errorf("a failed campaign was cached")
	}

	// A replay against an epoch the topology does not fit: neither the pooled
	// lease nor the cold rebuild can produce a clone.
	small := cluster.MustBuild(topology.Line(2), cluster.Options{Seed: 1})
	small.Converge()
	ep, err := checkpoint.NewRing(1).Push(small.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	lines = nil
	f := &Finding{Violation: checker.Violation{Property: "p", Node: "R3"}, Trace: []TraceStep{{From: "R1", To: "R2"}}, TraceOriginal: 1}
	rt.minimize(ep, f)
	stats = rt.Stats()
	if f.Reverified || len(f.Trace) != 1 {
		t.Errorf("unreplayable finding came out reverified %v with %d steps", f.Reverified, len(f.Trace))
	}
	if stats.ReplayErrors != 2 || stats.MinimizeReplays != 2 || stats.MinimizeColdReplays != 1 {
		t.Errorf("replay errors %d of %d replays (%d cold), want 2 of 2 (1 cold)", stats.ReplayErrors, stats.MinimizeReplays, stats.MinimizeColdReplays)
	}
	if n := countContaining(lines, "replay failed: "); n != 2 {
		t.Errorf("%d trace lines carry the replay error, want 2: %q", n, lines)
	}
}

func countContaining(lines []string, subs ...string) int {
	n := 0
next:
	for _, l := range lines {
		for _, sub := range subs {
			if !strings.Contains(l, sub) {
				continue next
			}
		}
		n++
	}
	return n
}

// soakRows runs a soak of a Line(6) whose far end hijacks R1's prefix — two
// churn epochs, then an idle deployment — and returns the finding keys, the per-epoch fingerprints and the epoch
// summaries with their timings blanked. With touchAll, a KEEPALIVE is
// delivered to every router in every epoch: on an Established session it
// changes nothing and sends nothing, but it is an entry point, so every router
// counts as moved and the whole cut is rebuilt, re-encoded and re-hashed —
// the full computation an untouched soak must be indistinguishable from.
func soakRows(t *testing.T, touchAll bool) (keys []string, fingerprints []uint64, rows []EpochSummary) {
	t.Helper()
	topo := topology.Line(6)
	opts := cluster.Options{Seed: 1, ConfigOverride: faults.ApplyConfigFaults(
		faults.MisOrigination{Router: "R6", Prefix: topo.Nodes[0].Prefixes[0]})}
	deployed := cluster.MustBuild(topo, opts)
	deployed.Converge()
	churn := DefaultTraffic(1)
	keepalive := bgp.Encode(&bgp.Keepalive{})
	var ring *checkpoint.Ring
	rt, err := NewRuntime(deployed, topo, Options{
		Seed:              1,
		ClusterOptions:    opts,
		MaxEpochs:         6,
		InputsPerScenario: 3,
		FuzzSeeds:         2,
		Explorers:         []string{"R2"},
		Workers:           1,
		PauseBudget:       time.Hour,
		Traffic: func(c *cluster.Cluster, rng *rand.Rand, epoch int) {
			if epoch <= 2 {
				churn(c, rng, epoch)
			}
			if touchAll {
				for _, name := range c.RouterNames() {
					c.InjectRaw(topo.NeighborsOf(name)[0], name, keepalive)
				}
			}
		},
		OnEpoch: func(s EpochSummary) {
			fingerprints = append(fingerprints, ring.Get(s.Seq).Fingerprint)
			s.UnixNano, s.Pause, s.Process, s.Traffic, s.Explore = 0, 0, 0, 0, 0
			rows = append(rows, s)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ring = rt.Ring()
	report, err := rt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range report.Findings() {
		keys = append(keys, fmt.Sprintf("%d %s %s %d %s %v", f.Epoch, f.Scenario, f.Explorer, f.InputIndex, f.Violation.Key(), f.Trace))
	}
	if got := rt.Stats().CheckpointNodesReused; got != sumReused(rows) {
		t.Errorf("stats count %d reused checkpoints, the epoch rows %d", got, sumReused(rows))
	}
	return keys, fingerprints, rows
}

func sumReused(rows []EpochSummary) (n int) {
	for _, r := range rows {
		n += r.NodesReused
	}
	return n
}

// TestSoakUnchangedByCheckpointReuse: routers that did not move keep their
// checkpoints from epoch to epoch and the ring resolves those by identity.
// Nothing an operator or the explorer can see may depend on it.
func TestSoakUnchangedByCheckpointReuse(t *testing.T) {
	keys, fps, rows := soakRows(t, false)
	fullKeys, fullFps, fullRows := soakRows(t, true)
	if len(keys) == 0 || len(rows) != 6 {
		t.Fatalf("%d findings over %d epochs; the soak is vacuous", len(keys), len(rows))
	}
	nodes := 6
	if rows[0].NodesReused != 0 || rows[1].NodesReused == 0 || rows[1].NodesReused >= nodes {
		t.Errorf("first cut reused %d checkpoints, first churn epoch %d of %d", rows[0].NodesReused, rows[1].NodesReused, nodes)
	}
	for i := range rows {
		quiet := rows[i].Seq > 2
		if quiet && (rows[i].NodesReused != nodes || rows[i].NodesChanged != 0 || rows[i].CampaignsDeduped == 0) {
			t.Errorf("quiet epoch %d: %d of %d checkpoints reused, %d nodes changed, %d campaigns deduped",
				rows[i].Seq, rows[i].NodesReused, nodes, rows[i].NodesChanged, rows[i].CampaignsDeduped)
		}
		if fullRows[i].NodesReused != 0 {
			t.Errorf("epoch %d of the soak that touches every router reused %d checkpoints", fullRows[i].Seq, fullRows[i].NodesReused)
		}
		rows[i].NodesReused, fullRows[i].NodesReused = 0, 0
	}
	if !reflect.DeepEqual(keys, fullKeys) {
		t.Errorf("findings differ:\n reuse %v\n full  %v", keys, fullKeys)
	}
	if !reflect.DeepEqual(fps, fullFps) {
		t.Errorf("epoch fingerprints differ:\n reuse %x\n full  %x", fps, fullFps)
	}
	if !reflect.DeepEqual(rows, fullRows) {
		t.Errorf("epoch rows differ:\n reuse %+v\n full  %+v", rows, fullRows)
	}
}
