package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/dice-project/dice/internal/agent"
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/control"
	"github.com/dice-project/dice/internal/dice"
	"github.com/dice-project/dice/internal/federation"
	"github.com/dice-project/dice/internal/live"
	"github.com/dice-project/dice/internal/topology"
)

// env is one workload's deployed system: the converged deployment every batch
// explores, plus the restore-ready forms the last set-up produced.
type env struct {
	w        *workload
	seed     int64
	topo     *topology.Topology
	copts    cluster.Options
	props    []checker.Property
	deployed *cluster.Cluster
	snap     *checkpoint.Snapshot
	store    *checkpoint.Store
}

// setupSample is one from-scratch set-up, split by phase (seconds).
type setupSample struct {
	Total, Build, Converge, Cut, Decode, Pool, Extra float64
}

// scaled converts every phase to reference time.
func (s setupSample) scaled(f float64) setupSample {
	return setupSample{s.Total * f, s.Build * f, s.Converge * f, s.Cut * f, s.Decode * f, s.Pool * f, s.Extra * f}
}

// setupOnce builds the workload's system from nothing, the way a user would
// before the first input can be explored: topology → Deploy → Converge →
// Snapshot → NewStore → NewClonePool + first Lease/Release, then the
// workload's own front door (a one-input distributed campaign through a new
// controller and agent on dist; NewRuntime on live).
func setupOnce(w *workload, seed int64) (*env, setupSample, error) {
	var s setupSample
	t0 := time.Now()
	topo := w.topo()
	e := &env{w: w, seed: seed, topo: topo, copts: w.clusterOptions(topo, seed), props: w.properties(topo)}
	var err error
	if e.deployed, err = cluster.Build(topo, e.copts); err != nil {
		return nil, s, err
	}
	t1 := time.Now()
	e.deployed.Converge()
	t2 := time.Now()
	e.snap = e.deployed.Snapshot()
	t3 := time.Now()
	if e.store, err = checkpoint.NewStore(e.snap); err != nil {
		return nil, s, err
	}
	t4 := time.Now()
	pool := cluster.NewClonePool(topo, e.store, e.copts)
	shadow, err := pool.Lease()
	if err != nil {
		return nil, s, err
	}
	pool.Release(shadow)
	t5 := time.Now()
	switch w.kind {
	case kindDist:
		b, err := e.runDist(seed, distOptions{agents: 1, units: []dice.Unit{{Explorer: topo.Nodes[0].Name, MaxInputs: 1}}})
		if err != nil {
			return nil, s, err
		}
		if b.Inputs != 1 {
			return nil, s, fmt.Errorf("set-up campaign explored %d inputs, want 1", b.Inputs)
		}
	case kindLive:
		if _, err := live.NewRuntime(e.deployed, topo, e.liveOptions(sizes{})); err != nil {
			return nil, s, err
		}
	}
	t6 := time.Now()
	sec := func(a, b time.Time) float64 { return b.Sub(a).Seconds() }
	s = setupSample{Total: sec(t0, t6), Build: sec(t0, t1), Converge: sec(t1, t2), Cut: sec(t2, t3),
		Decode: sec(t3, t4), Pool: sec(t4, t5), Extra: sec(t5, t6)}
	return e, s, nil
}

// batch is what one counted campaign produced.
type batch struct {
	Inputs      int
	Seconds     float64
	Fingerprint string // SHA-256 over the sorted detection keys
	Detections  int
	UnitErrors  int
	// Pool is the clone lifecycle of the batch (on dist: summed over agents).
	Pool     cluster.PoolStats
	Explorer explorerTotals
	// Disclosed is the bytes that crossed the narrow checking interface
	// (verdicts centrally, summaries on the federation bus).
	Disclosed int
	Remote    *dice.RemoteStats
	Agents    []agentTotals
}

type explorerTotals struct {
	SolverQueries, SolverSat, UniquePaths int
}

func (e *explorerTotals) add(queries, sat, paths int) {
	e.SolverQueries += queries
	e.SolverSat += sat
	e.UniquePaths += paths
}

type agentTotals struct {
	Shards, Resets, ColdBuilds int
}

// fingerprintOf hashes the merged detections as "<violation key>@<input
// index>", sorted — the identity every equivalence check compares.
func fingerprintOf(dets []dice.Detection) string {
	keys := make([]string, len(dets))
	for i, d := range dets {
		keys[i] = fmt.Sprintf("%s@%d", d.Violation.Key(), d.InputIndex)
	}
	sort.Strings(keys)
	sum := sha256.Sum256([]byte(strings.Join(keys, ";")))
	return hex.EncodeToString(sum[:])
}

// campaignOptions are the options of one counted batch with the given
// campaign seed. One worker: the headline is per core.
func (e *env) campaignOptions(campaignSeed int64, workers int) []dice.CampaignOption {
	opts := []dice.CampaignOption{
		dice.WithStrategy(dice.AllNodesStrategy{}),
		dice.WithBudget(dice.Budget{TotalInputs: e.w.inputs}),
		dice.WithFuzzSeeds(fuzzSeeds),
		dice.WithSeed(campaignSeed),
		dice.WithProperties(e.props...),
		dice.WithClusterOptions(e.copts),
		dice.WithWorkers(workers),
	}
	if e.w.kind == kindDist {
		opts = append(opts, dice.WithFederation(federation.PartitionByAS(e.topo)))
	}
	return opts
}

func batchOf(res *dice.CampaignResult, elapsed time.Duration) batch {
	b := batch{
		Inputs:      res.InputsExplored,
		Seconds:     elapsed.Seconds(),
		Fingerprint: fingerprintOf(res.Detections),
		Detections:  len(res.Detections),
		Pool:        res.CloneStats,
		Disclosed:   res.DisclosedBytes,
		Remote:      res.Remote,
	}
	for _, err := range res.UnitErrors {
		if err != nil {
			b.UnitErrors++
		}
	}
	for _, u := range res.Units {
		if u == nil {
			continue
		}
		st := u.ExplorerStats
		b.Explorer.add(st.SolverQueries, st.SolverSat, st.UniquePaths)
	}
	return b
}

// runLocal runs one in-process campaign batch (centralized, or federated
// in-process for the dist workload's reference) and times Campaign.Run.
func (e *env) runLocal(campaignSeed int64, workers int) (batch, error) {
	c := dice.NewCampaign(e.deployed, e.topo, e.campaignOptions(campaignSeed, workers)...)
	start := time.Now()
	res, err := c.Run(context.Background())
	elapsed := time.Since(start)
	if res == nil {
		return batch{}, err
	}
	b := batchOf(res, elapsed)
	if err != nil {
		b.UnitErrors++
	}
	return b, nil
}

// distOptions vary a distributed batch: the set-up's one-input campaign, and
// the traced run's wrapped transport.
type distOptions struct {
	agents  int
	workers int
	units   []dice.Unit                               // nil: the workload's full plan
	wrap    func(http.RoundTripper) http.RoundTripper // nil: untimed transport
}

// runDist runs one distributed batch end to end — new controller, new agents
// over the in-process transport, the campaign, agents drained — and times all
// of it: a controller serves one campaign, so this is what a user pays per
// campaign.
func (e *env) runDist(campaignSeed int64, o distOptions) (batch, error) {
	if o.agents == 0 {
		o.agents = distAgents
	}
	if o.workers == 0 {
		o.workers = 1
	}
	start := time.Now()
	ctrl := control.NewController(control.Config{
		Campaign:      e.w.name,
		MinAgents:     o.agents,
		UnitsPerShard: distUnitsPerShard,
		LeaseTTL:      30 * time.Second,
	})
	client := control.InProcessClient(control.NewHandler(ctrl))
	if o.wrap != nil {
		client.Transport = o.wrap(client.Transport)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agents := make([]*agent.Agent, o.agents)
	var wg sync.WaitGroup
	for i := range agents {
		agents[i] = agent.New(agent.Config{
			Name:         fmt.Sprintf("agent-%d", i),
			ControlURL:   "http://control.inproc",
			Client:       client,
			Workers:      o.workers,
			PollInterval: 2 * time.Millisecond,
		})
		wg.Add(1)
		go func(a *agent.Agent) {
			defer wg.Done()
			_ = a.Run(ctx) // a failed agent shows as abandoned shards or unit errors
		}(agents[i])
	}
	opts := append(e.campaignOptions(campaignSeed, o.workers), dice.WithRemoteExecution(ctrl))
	if o.units != nil {
		opts = append(opts, dice.WithUnits(o.units...), dice.WithBudget(dice.Budget{}))
	}
	res, err := dice.NewCampaign(e.deployed, e.topo, opts...).Run(ctx)
	if res == nil {
		cancel()
		wg.Wait()
		return batch{}, err
	}
	// Agents leave through the protocol (NoWork{Done}); the cancel only
	// reaches one that is still waiting for a baseline.
	if !ctrl.AwaitDrain(5 * time.Second) {
		cancel()
	}
	wg.Wait()
	b := batchOf(res, time.Since(start))
	if err != nil {
		b.UnitErrors++
	}
	b.Disclosed = res.Disclosed.Bytes
	for _, a := range agents {
		ps := a.PoolStats()
		b.Agents = append(b.Agents, agentTotals{Shards: a.ShardsRun(), Resets: ps.Resets, ColdBuilds: ps.ColdBuilds})
		b.Pool = b.Pool.Add(ps)
	}
	return b, nil
}
