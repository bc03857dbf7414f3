package main

import (
	"fmt"
	"strconv"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/dice"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/federation"
	"github.com/dice-project/dice/internal/fuzz"
)

// The replica is the benchmark's own copy of the campaign's per-input path
// (dice.Campaign.runClone and the planning around it), driven through the
// layers' public functions only, so that a span can be put around each call.
// It is measurement scaffolding, not a second implementation: every traced
// run checks that it finds exactly the detections the real Campaign finds on
// the same seeds and takes about as long (dice.replica_ratio), and warns when
// it has drifted. Timers inside the program (ROADMAP item 1) will replace it.

// step is one injected wire message of a scenario prelude.
type step struct {
	From, To string
	Wire     []byte
}

// stepRecorder captures a scenario's Prime as steps; it is the bench-side
// faults.ChurnTarget.
type stepRecorder struct{ steps []step }

func (r *stepRecorder) InjectUpdate(fromPeer, to string, u *bgp.Update) {
	r.steps = append(r.steps, step{From: fromPeer, To: to, Wire: bgp.Encode(u)})
}

func preludeOf(sc faults.Scenario) []step {
	var r stepRecorder
	sc.Prime(&r)
	return r.steps
}

// replicaPlan says what one replica campaign explores.
type replicaPlan struct {
	strategy  dice.Strategy
	explorers []string
	inputs    int
	seed      int64
	partition *federation.Partition
	// store and pool, when set, are a cut somebody else took (a live epoch);
	// otherwise the replica cuts the deployment as Campaign.Run does.
	store    *checkpoint.Store
	pool     *cluster.ClonePool
	prelude  []step
	scenario string
}

// replicaResult is a batch plus the counts taken at the layer boundaries.
type replicaResult struct {
	batch
	Events        int // netem events over all explored inputs
	PreludeEvents int
	Summaries     int // federation summaries published
	SummaryBytes  int
}

// planUnits mirrors Campaign.planUnits: strategy plan (per domain when
// federated), the budget split evenly with the remainder to the first units,
// and per-unit seeds derived from the campaign seed and plan index.
func (e *env) planUnits(p replicaPlan) ([]dice.Unit, error) {
	var units []dice.Unit
	if p.partition != nil {
		for _, d := range p.partition.Domains {
			du, err := p.strategy.Plan(e.topo, d.Nodes)
			if err != nil {
				return nil, err
			}
			for i := range du {
				du[i].Domain = d.Name
			}
			units = append(units, du...)
		}
	} else {
		var err error
		if units, err = p.strategy.Plan(e.topo, p.explorers); err != nil {
			return nil, err
		}
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("replica: strategy planned no units")
	}
	budget := max(p.inputs, len(units))
	per, rem := budget/len(units), budget%len(units)
	for i := range units {
		units[i].MaxInputs = per
		if i < rem {
			units[i].MaxInputs++
		}
		units[i].FuzzSeeds = fuzzSeeds
		units[i].Seed = p.seed + int64(i)*1000003
	}
	return units, nil
}

// seedCorpus mirrors Campaign.seedInputs: grammar-fuzzed UPDATEs from the
// topology's pools plus one observed announcement of the peer's own prefix.
func (e *env) seedCorpus(u dice.Unit) []*concolic.Input {
	pools := fuzz.Options{Seed: u.Seed}
	for _, n := range e.topo.Nodes {
		pools.Prefixes = append(pools.Prefixes, n.Prefixes...)
		pools.ASNs = append(pools.ASNs, n.AS)
		pools.NextHops = append(pools.NextHops, uint32(n.RouterID))
	}
	seeds := fuzz.New(pools).Corpus(u.FuzzSeeds)
	if peer := e.topo.Node(u.FromPeer); peer != nil && len(peer.Prefixes) > 0 {
		observed := &bgp.Update{
			Attrs: &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{peer.AS}, NextHop: uint32(peer.RouterID)},
			NLRI:  []bgp.Prefix{peer.Prefixes[0]},
		}
		seeds = append(seeds, concolic.NewInput("update", observed.EncodeBody()))
	}
	return seeds
}

// propSpan names the span of one property check: checker.<name with _>.
func propSpan(p checker.Property) string {
	name := []byte(p.Name())
	for i, c := range name {
		if c == '-' {
			name[i] = '_'
		}
	}
	return "checker." + string(name)
}

// runReplica runs one replica campaign. tr may be nil (no spans, no clock
// reads beyond the batch's own).
func (e *env) runReplica(p replicaPlan, tr *Tracer) (replicaResult, error) {
	var out replicaResult
	start := time.Now()
	root := tr.Begin("dice.campaign", "seed", strconv.FormatInt(p.seed, 10), "scenario", p.scenario)
	defer tr.End(root)

	units, err := e.planUnits(p)
	if err != nil {
		return out, err
	}
	store, pool := p.store, p.pool
	if store == nil {
		id := tr.Begin("cluster.cut")
		snap := e.deployed.Snapshot()
		tr.End(id)
		id = tr.Begin("checkpoint.store_decode")
		store, err = checkpoint.NewStore(snap)
		tr.End(id)
		if err != nil {
			return out, err
		}
		// Campaign.Run sizes the cut twice for its result header.
		id = tr.Begin("checkpoint.measure")
		checker.FullStateDisclosure(e.deployed)
		_, err = checkpoint.Measure(snap)
		tr.End(id)
		if err != nil {
			return out, err
		}
	}
	if pool == nil {
		pool = cluster.NewClonePool(e.topo, store, e.copts)
	}
	poolBase := pool.Stats()

	var bus *federation.Bus
	coords := make(map[string]*federation.Coordinator)
	if p.partition != nil {
		bus = federation.NewBus()
		for _, d := range p.partition.Domains {
			coords[d.Name] = federation.NewCoordinator(e.topo, d, bus)
		}
	}

	// check mirrors the tail of runClone: centralized CheckAll, or
	// checkCloneFederated's per-domain CheckLocal + Publish.
	check := func(shadow *cluster.Cluster, u dice.Unit) ([]checker.Violation, int) {
		id := tr.Begin("checker.check")
		defer tr.End(id)
		var violations []checker.Violation
		disclosed := 0
		if p.partition == nil {
			results := make([]checker.Result, 0, len(e.props))
			for _, prop := range e.props {
				pid := tr.Begin(propSpan(prop))
				results = append(results, prop.Check(shadow))
				tr.End(pid)
			}
			sid := tr.Begin("checker.summarize")
			rep := &checker.Report{Results: results}
			violations, disclosed = rep.Violations(), rep.DisclosedBytes()
			tr.End(sid)
			return violations, disclosed
		}
		var edges []checker.ForwardingEdge
		for _, d := range p.partition.Domains {
			co := coords[d.Name]
			cid := tr.Begin("federation.check_local")
			rep, sum := co.CheckLocal(shadow, e.props)
			tr.End(cid)
			edges = append(edges, sum.Edges...)
			if d.Name == u.Domain {
				violations = append(violations, rep.Violations()...)
				continue
			}
			pid := tr.Begin("federation.publish")
			n := co.Publish(u.Domain, sum)
			tr.End(pid)
			disclosed += n
			out.Summaries++
			out.SummaryBytes += n
			for _, dg := range sum.Digests {
				violations = append(violations, dg.Violation())
			}
		}
		for _, prop := range e.props {
			if pp, ok := prop.(checker.ProjectionProperty); ok {
				pid := tr.Begin(propSpan(prop))
				violations = append(violations, pp.CheckProjection(edges, e.topo.NodeNames()).Violations...)
				tr.End(pid)
			}
		}
		return violations, disclosed
	}

	// runClone mirrors dice.Campaign.runClone for one input.
	runClone := func(u dice.Unit, in *concolic.Input, m *concolic.Machine) ([]checker.Violation, int, error) {
		id := tr.Begin("cluster.lease")
		cold := pool.Size() == 0 // an empty pool builds the clone it leases
		shadow, err := pool.Lease()
		if cold {
			tr.Rename(id, "cluster.cold_build")
		} else {
			tr.Rename(id, "cluster.reset")
		}
		tr.End(id)
		if err != nil {
			return nil, 0, err
		}
		defer func() {
			rid := tr.Begin("cluster.release")
			pool.Release(shadow)
			tr.End(rid)
		}()
		if len(p.prelude) > 0 {
			pid := tr.Begin("faults.prelude", "scenario", p.scenario)
			for _, s := range p.prelude {
				shadow.InjectRaw(s.From, s.To, s.Wire)
				out.PreludeEvents += shadow.Net.RunQuiescent(shadowMaxEvents)
			}
			out.PreludeEvents += shadow.Net.RunQuiescent(shadowMaxEvents)
			tr.End(pid)
		}
		sid := tr.Begin("netem.settle")
		shadow.Router(u.Explorer).ExploreNextUpdate(m, u.FromPeer)
		shadow.InjectRaw(u.FromPeer, u.Explorer, bgp.FrameUpdate(in.Region("update")))
		events := shadow.Net.RunQuiescent(shadowMaxEvents)
		tr.Tag(sid, "events", strconv.Itoa(events))
		tr.End(sid)
		out.Events += events
		if err := shadow.Unhealthy(); err != nil {
			return nil, 0, err
		}
		violations, disclosed := check(shadow, u)
		return violations, disclosed, nil
	}

	// Units run one after another: with one worker the real campaign also
	// executes one clone at a time, only interleaving units between inputs.
	merged := make(map[string]bool)
	var detections []dice.Detection
	for idx, u := range units {
		uid := tr.Begin("dice.unit", "unit", u.String(), "index", strconv.Itoa(idx))
		gid := tr.Begin("fuzz.gen")
		seeds := e.seedCorpus(u)
		tr.End(gid)

		seen := make(map[string]bool)
		executed := 0
		var unitDets []dice.Detection
		execute := func(in *concolic.Input, m *concolic.Machine) error {
			iid := tr.Begin("dice.input")
			defer tr.End(iid)
			violations, disclosed, err := runClone(u, in, m)
			if err != nil {
				return err
			}
			executed++
			out.Disclosed += disclosed
			fresh := false
			for _, v := range violations {
				if seen[v.Key()] {
					continue
				}
				seen[v.Key()] = true
				fresh = true
				unitDets = append(unitDets, dice.Detection{Violation: v, Class: v.Class, InputIndex: executed, Input: in.Clone()})
			}
			if fresh {
				return fmt.Errorf("replica: %d property violations", len(violations))
			}
			return nil
		}
		explorer := concolic.NewExplorer(execute, concolic.ExplorerOptions{MaxExecutions: u.MaxInputs, Seed: u.Seed})
		for _, s := range seeds {
			explorer.AddSeed(s)
		}
		// The explorer's span minus its dice.input children is the search:
		// path bookkeeping, constraint negation and solving.
		xid := tr.Begin("concolic.search")
		report, err := explorer.Run()
		tr.End(xid)
		tr.End(uid)
		if err != nil {
			return out, err
		}
		if executed == 0 && len(report.Errors) > 0 {
			out.UnitErrors++
		}
		st := explorer.Stats()
		out.Explorer.add(st.SolverQueries, st.SolverSat, st.UniquePaths)
		out.Inputs += executed
		for _, d := range unitDets {
			if !merged[d.Violation.Key()] {
				merged[d.Violation.Key()] = true
				detections = append(detections, d)
			}
		}
	}

	out.Pool = pool.Stats().Sub(poolBase)
	out.Detections = len(detections)
	out.Fingerprint = fingerprintOf(detections)
	out.Seconds = time.Since(start).Seconds()
	return out, nil
}
