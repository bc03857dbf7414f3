package dice

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/topology"
)

// hijackedLine builds a converged Line(n) deployment with a mis-origination
// planted on the last router.
func hijackedLine(t *testing.T, n int) (*topology.Topology, *cluster.Cluster, cluster.Options) {
	t.Helper()
	topo := topology.Line(n)
	victim := topo.Nodes[0].Prefixes[0]
	last := topo.Nodes[n-1].Name
	opts := cluster.Options{Seed: 1, ConfigOverride: faults.ApplyConfigFaults(faults.MisOrigination{Router: last, Prefix: victim})}
	c := cluster.MustBuild(topo, opts)
	c.Converge()
	return topo, c, opts
}

func detectionKeys(ds []Detection) []string {
	keys := make([]string, 0, len(ds))
	for _, d := range ds {
		keys = append(keys, d.Violation.Key())
	}
	sort.Strings(keys)
	return keys
}

func TestCampaignOptionDefaults(t *testing.T) {
	c := NewCampaign(nil, nil)
	if c.cfg.workers != runtime.NumCPU() {
		t.Errorf("default workers = %d, want NumCPU %d", c.cfg.workers, runtime.NumCPU())
	}
	if _, ok := c.cfg.strategy.(DegreeStrategy); !ok {
		t.Errorf("default strategy = %T, want DegreeStrategy", c.cfg.strategy)
	}
	if !c.cfg.useConcolic {
		t.Errorf("concolic should be on by default")
	}
	if c.cfg.fuzzSeeds != 8 || c.cfg.shadowMaxEvents != 20000 {
		t.Errorf("budget defaults wrong: %+v", c.cfg)
	}
	// WithWorkers(0) selects NumCPU, not zero.
	c = NewCampaign(nil, nil, WithWorkers(0))
	if c.cfg.workers != runtime.NumCPU() {
		t.Errorf("WithWorkers(0) = %d workers, want NumCPU", c.cfg.workers)
	}
	// Run without a topology fails like the legacy engine.
	if _, err := NewCampaign(nil, nil).Run(context.Background()); !errors.Is(err, ErrNoTopology) {
		t.Errorf("Run without topology = %v, want ErrNoTopology", err)
	}
}

func TestCampaignDefaultUnitBudget(t *testing.T) {
	topo := topology.Star(4)
	c := NewCampaign(nil, topo)
	units, err := c.planUnits()
	if err != nil {
		t.Fatalf("planUnits: %v", err)
	}
	if len(units) != 1 {
		t.Fatalf("degree strategy planned %d units, want 1", len(units))
	}
	if units[0].Explorer != "R1" {
		t.Errorf("default explorer = %s, want hub R1", units[0].Explorer)
	}
	if units[0].MaxInputs != 64 || units[0].FuzzSeeds != 8 {
		t.Errorf("unit defaults = %+v, want 64 inputs / 8 seeds", units[0])
	}
}

func TestCampaignBudgetSplit(t *testing.T) {
	topo := topology.Ring(3)
	c := NewCampaign(nil, topo,
		WithStrategy(AllNodesStrategy{}),
		WithBudget(Budget{TotalInputs: 10}))
	units, err := c.planUnits()
	if err != nil {
		t.Fatalf("planUnits: %v", err)
	}
	if len(units) != 3 {
		t.Fatalf("all-nodes on Ring(3) planned %d units, want 3", len(units))
	}
	total := 0
	for _, u := range units {
		total += u.MaxInputs
	}
	if total != 10 {
		t.Errorf("budget split sums to %d, want 10 (units %+v)", total, units)
	}
	if units[0].MaxInputs != 4 || units[1].MaxInputs != 3 || units[2].MaxInputs != 3 {
		t.Errorf("uneven split should favor earlier units: %+v", units)
	}
	// Distinct units must get distinct derived seeds.
	if units[0].Seed == units[1].Seed || units[1].Seed == units[2].Seed {
		t.Errorf("per-unit seeds not derived: %+v", units)
	}

	// Units that pin MaxInputs keep it and only the remainder is split, so
	// the campaign-wide bound holds when pinned and unpinned units mix.
	c = NewCampaign(nil, topo,
		WithUnits(
			Unit{Explorer: "R1", FromPeer: "R2", MaxInputs: 6},
			Unit{Explorer: "R2"},
			Unit{Explorer: "R3"},
		),
		WithBudget(Budget{TotalInputs: 10}))
	units, err = c.planUnits()
	if err != nil {
		t.Fatalf("planUnits with pinned unit: %v", err)
	}
	if units[0].MaxInputs != 6 {
		t.Errorf("pinned unit lost its MaxInputs: %+v", units[0])
	}
	if units[1].MaxInputs+units[2].MaxInputs != 4 {
		t.Errorf("unpinned units should split the remaining budget (10-6=4): %+v", units)
	}
}

func TestCampaignEmptyPropertiesDisablesChecking(t *testing.T) {
	topo, live, copts := hijackedLine(t, 3)
	res := runUnit(t, live, topo, Unit{Explorer: "R2", FromPeer: "R1", MaxInputs: 4, FuzzSeeds: 2, Seed: 1},
		WithProperties(), // explicitly: check nothing
		WithClusterOptions(copts))
	if len(res.Detections) != 0 {
		t.Errorf("WithProperties() must disable checking, got %d detections", len(res.Detections))
	}
}

func TestCampaignDetectsHijackAndStreams(t *testing.T) {
	topo, live, copts := hijackedLine(t, 3)
	// The callback observes emission time: it runs synchronously on worker
	// goroutines, so a detection callback before Run returns proves
	// streaming; the channel consumer verifies delivery and close.
	var runReturned atomic.Bool
	var earlyDetections atomic.Int64
	campaign := NewCampaign(live, topo,
		WithUnits(Unit{Explorer: "R2", FromPeer: "R3"}),
		WithBudget(Budget{TotalInputs: 8}),
		WithFuzzSeeds(4),
		WithSeed(1),
		WithClusterOptions(copts),
		WithWorkers(2),
		WithOnEvent(func(ev Event) {
			if ev.Kind == EventDetection && !runReturned.Load() {
				earlyDetections.Add(1)
			}
		}))
	events := campaign.Events()

	type streamed struct {
		kind           EventKind
		detectionClass checker.FaultClass
	}
	collected := make(chan []streamed, 1)
	go func() {
		var got []streamed
		for ev := range events {
			s := streamed{kind: ev.Kind}
			if ev.Detection != nil {
				s.detectionClass = ev.Detection.Class
			}
			got = append(got, s)
		}
		collected <- got
	}()

	res, err := campaign.Run(context.Background())
	runReturned.Store(true)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := <-collected

	if !res.Detected(checker.ClassOperatorMistake) {
		t.Fatalf("hijack not detected; detections=%v", res.Detections)
	}
	if res.InputsExplored == 0 || res.SnapshotBytes == 0 || res.SnapshotNodes != 3 {
		t.Errorf("campaign accounting incomplete: %+v", res)
	}
	kinds := map[EventKind]int{}
	for _, s := range got {
		kinds[s.kind]++
	}
	if kinds[EventCampaignStart] != 1 || kinds[EventSnapshot] != 1 || kinds[EventCampaignEnd] != 1 {
		t.Errorf("lifecycle events wrong: %v", kinds)
	}
	if kinds[EventUnitStart] != 1 || kinds[EventUnitEnd] != 1 {
		t.Errorf("unit events wrong: %v", kinds)
	}
	if kinds[EventDetection] == 0 {
		t.Fatalf("no detection events streamed")
	}
	if earlyDetections.Load() == 0 {
		t.Errorf("detections must stream before Run returns")
	}
	// A campaign is single-shot.
	if _, err := campaign.Run(context.Background()); !errors.Is(err, ErrCampaignReused) {
		t.Errorf("second Run = %v, want ErrCampaignReused", err)
	}
}

func TestCampaignWorkersDeterministic(t *testing.T) {
	for _, concolic := range []bool{true, false} {
		t.Run(fmt.Sprintf("concolic=%v", concolic), func(t *testing.T) {
			run := func(workers int) *CampaignResult {
				topo, live, copts := hijackedLine(t, 4)
				campaign := NewCampaign(live, topo,
					WithStrategy(AllNodesStrategy{}),
					WithBudget(Budget{TotalInputs: 24}),
					WithFuzzSeeds(4),
					WithSeed(3),
					WithConcolic(concolic),
					WithClusterOptions(copts),
					WithWorkers(workers))
				res, err := campaign.Run(context.Background())
				if err != nil {
					t.Fatalf("Run(workers=%d): %v", workers, err)
				}
				return res
			}
			serial := run(1)
			parallel := run(4)
			if serial.InputsExplored != parallel.InputsExplored {
				t.Errorf("inputs explored differ: serial=%d parallel=%d", serial.InputsExplored, parallel.InputsExplored)
			}
			sk, pk := detectionKeys(serial.Detections), detectionKeys(parallel.Detections)
			if len(sk) == 0 {
				t.Fatalf("expected detections from the hijacked line")
			}
			if fmt.Sprint(sk) != fmt.Sprint(pk) {
				t.Errorf("detections differ across worker counts:\n  serial   %v\n  parallel %v", sk, pk)
			}
			for i, u := range serial.Units {
				pu := parallel.Units[i]
				if u == nil || pu == nil {
					t.Fatalf("unit %d missing result", i)
				}
				if fmt.Sprint(detectionKeys(u.Detections)) != fmt.Sprint(detectionKeys(pu.Detections)) {
					t.Errorf("unit %d detections differ across worker counts", i)
				}
				if u.InputsExplored != pu.InputsExplored {
					t.Errorf("unit %d inputs differ: %d vs %d", i, u.InputsExplored, pu.InputsExplored)
				}
			}
		})
	}
}

func TestCampaignContextCancellation(t *testing.T) {
	// Pre-cancelled context: no unit runs, partial result comes back with
	// the context error.
	topo, live, copts := hijackedLine(t, 3)
	campaign := NewCampaign(live, topo, WithClusterOptions(copts), WithSeed(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := campaign.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx = %v, want context.Canceled", err)
	}
	if res == nil || !res.Cancelled {
		t.Fatalf("cancelled campaign should return a partial result marked Cancelled")
	}
	if res.InputsExplored != 0 {
		t.Errorf("pre-cancelled campaign explored %d inputs, want 0", res.InputsExplored)
	}

	// Cancellation mid-campaign: cancel on the first detection event; the
	// campaign must stop well before its (huge) budget.
	topo2, live2, copts2 := hijackedLine(t, 3)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	campaign2 := NewCampaign(live2, topo2,
		WithStrategy(AllNodesStrategy{}),
		WithBudget(Budget{TotalInputs: 100000}),
		WithSeed(1),
		WithClusterOptions(copts2),
		WithWorkers(2),
		WithOnEvent(func(ev Event) {
			if ev.Kind == EventDetection {
				cancel2()
			}
		}))
	res2, err2 := campaign2.Run(ctx2)
	if !errors.Is(err2, context.Canceled) {
		t.Fatalf("mid-campaign cancel = %v, want context.Canceled", err2)
	}
	if !res2.Cancelled {
		t.Errorf("result not marked cancelled")
	}
	if res2.InputsExplored >= 100000 {
		t.Errorf("cancellation did not stop exploration early (%d inputs)", res2.InputsExplored)
	}

	// Cancellation must not read as budget exhaustion.
	if res.BudgetExhausted || res2.BudgetExhausted {
		t.Errorf("cancelled campaigns reported BudgetExhausted")
	}
}

// TestCampaignBudgetExhaustionIsNotCancellation is the regression test for
// the Cancelled/budget conflation: Run wraps the context for
// Budget.MaxDuration, so a campaign that merely runs out of its own time
// budget used to come back Cancelled with a DeadlineExceeded error. Budget
// expiry is a normal completion: nil error, BudgetExhausted set, Cancelled
// clear.
//
// The budget timer is injected, so expiry is driven by the test rather than
// the wall clock: the timer "fires" right after the first clone executes,
// deterministically on any machine. (The earlier version used a real
// 1ms MaxDuration, which raced both ways — a loaded CI runner could expire
// the budget before anything ran, and a fast machine could drain the whole
// explorer frontier before the deadline, leaving BudgetExhausted unset.)
func TestCampaignBudgetExhaustionIsNotCancellation(t *testing.T) {
	topo, live, copts := hijackedLine(t, 3)
	campaign := NewCampaign(live, topo,
		WithBudget(Budget{TotalInputs: 100000, MaxDuration: time.Hour}),
		WithSeed(1),
		WithClusterOptions(copts))
	// Hand-driven budget timer: fires once the first clone has run.
	fire := make(chan time.Time)
	campaign.cfg.budgetTimer = func(d time.Duration) <-chan time.Time {
		if d != time.Hour {
			t.Errorf("budget timer armed with %v, want the configured MaxDuration", d)
		}
		return fire
	}
	var once sync.Once
	campaign.testCloneFault = func() error {
		once.Do(func() { close(fire) })
		return nil
	}
	res, err := campaign.Run(context.Background())
	if err != nil {
		t.Fatalf("budget expiry must be a normal completion, got error %v", err)
	}
	if !res.BudgetExhausted {
		t.Errorf("result not marked BudgetExhausted")
	}
	if res.Cancelled {
		t.Errorf("budget expiry misreported as cancellation")
	}
	if res.InputsExplored >= 100000 {
		t.Errorf("budget expiry did not stop exploration early (%d inputs)", res.InputsExplored)
	}

	// A caller deadline tighter than the budget is the caller's doing:
	// Cancelled, with the context error surfaced. The clone hook blocks
	// until the caller's deadline has actually passed, so the campaign can
	// neither finish before the deadline nor exhaust its frontier first —
	// the outcome is the same on any machine; only the (generous) deadline
	// bounds the test's duration.
	topo2, live2, copts2 := hijackedLine(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	campaign2 := NewCampaign(live2, topo2,
		WithBudget(Budget{TotalInputs: 100000, MaxDuration: time.Hour}),
		WithSeed(1),
		WithClusterOptions(copts2))
	campaign2.testCloneFault = func() error {
		<-ctx.Done() // hold the first clone until the caller deadline fires
		return nil
	}
	res2, err2 := campaign2.Run(ctx)
	if !errors.Is(err2, context.DeadlineExceeded) {
		t.Fatalf("caller deadline = %v, want context.DeadlineExceeded", err2)
	}
	if !res2.Cancelled || res2.BudgetExhausted {
		t.Errorf("caller deadline misclassified: Cancelled=%v BudgetExhausted=%v", res2.Cancelled, res2.BudgetExhausted)
	}
}

func TestCampaignMultiUnitMergesDetections(t *testing.T) {
	topo, live, copts := hijackedLine(t, 3)
	campaign := NewCampaign(live, topo,
		WithUnits(
			Unit{Explorer: "R2", FromPeer: "R3"},
			Unit{Explorer: "R1", FromPeer: "R2"},
		),
		WithBudget(Budget{TotalInputs: 16}),
		WithSeed(1),
		WithClusterOptions(copts),
		WithWorkers(2))
	res, err := campaign.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Units) != 2 || res.Units[0] == nil || res.Units[1] == nil {
		t.Fatalf("expected 2 unit results, got %+v", res.Units)
	}
	if res.Units[0].Explorer != "R2" || res.Units[1].Explorer != "R1" {
		t.Errorf("unit results out of plan order: %s, %s", res.Units[0].Explorer, res.Units[1].Explorer)
	}
	// Merged detections are deduplicated by violation key.
	seen := map[string]bool{}
	for _, d := range res.Detections {
		if seen[d.Violation.Key()] {
			t.Errorf("duplicate merged detection %s", d.Violation.Key())
		}
		seen[d.Violation.Key()] = true
	}
	if res.InputsExplored != res.Units[0].InputsExplored+res.Units[1].InputsExplored {
		t.Errorf("campaign inputs %d != sum of unit inputs", res.InputsExplored)
	}
}

// TestCampaignPooledClonesEquivalentToCold verifies the clone-lifecycle
// overhaul end to end: the same campaign run on the pooled shadow-cluster
// runtime and on per-input cold rebuilds must explore the same inputs and
// find the same detections at the same input indices — pooling is purely a
// performance property.
func TestCampaignPooledClonesEquivalentToCold(t *testing.T) {
	topo, live, opts := hijackedLine(t, 4)
	run := func(pooled bool, workers int) *CampaignResult {
		campaign := NewCampaign(live, topo,
			WithUnits(Unit{Explorer: "R2", FromPeer: "R1", MaxInputs: 12, FuzzSeeds: 4, Seed: 1}),
			WithSeed(1),
			WithClusterOptions(opts),
			WithPooledClones(pooled),
			WithWorkers(workers))
		res, err := campaign.Run(context.Background())
		if err != nil {
			t.Fatalf("campaign (pooled=%v): %v", pooled, err)
		}
		return res
	}
	cold := run(false, 1)
	pooled := run(true, 1)
	pooledParallel := run(true, 4)

	if len(cold.Detections) == 0 {
		t.Fatal("campaign found nothing; equivalence test is vacuous")
	}
	for _, other := range []*CampaignResult{pooled, pooledParallel} {
		if other.InputsExplored != cold.InputsExplored {
			t.Errorf("inputs explored %d, cold %d", other.InputsExplored, cold.InputsExplored)
		}
		if fmt.Sprint(detectionKeys(other.Detections)) != fmt.Sprint(detectionKeys(cold.Detections)) {
			t.Errorf("detections differ from cold run")
		}
		for i := range cold.Detections {
			if i < len(other.Detections) && other.Detections[i].InputIndex != cold.Detections[i].InputIndex {
				t.Errorf("detection %d at input %d, cold at %d", i, other.Detections[i].InputIndex, cold.Detections[i].InputIndex)
			}
		}
	}

	// Lifecycle accounting: the cold run never resets, the pooled serial run
	// cold-builds exactly once.
	if cold.PooledClones || cold.CloneStats.Resets != 0 || cold.CloneStats.ColdBuilds != cold.InputsExplored {
		t.Errorf("cold run clone stats %+v (pooled=%v)", cold.CloneStats, cold.PooledClones)
	}
	if !pooled.PooledClones || pooled.CloneStats.ColdBuilds != 1 {
		t.Errorf("pooled serial run clone stats %+v (pooled=%v)", pooled.CloneStats, pooled.PooledClones)
	}
	if got := pooled.CloneStats.Resets + pooled.CloneStats.ColdBuilds; got != pooled.InputsExplored {
		t.Errorf("pooled leases %d != inputs explored %d", got, pooled.InputsExplored)
	}
	if pooledParallel.CloneStats.ColdBuilds > 4 {
		t.Errorf("parallel pooled run built %d clones for 4 workers", pooledParallel.CloneStats.ColdBuilds)
	}
}
