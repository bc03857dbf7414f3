package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/dice"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/federation"
)

// The traced run gives the per-layer numbers. It never feeds an end-to-end
// metric: those come from the untraced run of the real program.

// tracedSetups is enough set-ups for the build/converge/cut phase medians.
const tracedSetups = 9

// compared is one real campaign next to its replica, untraced and traced.
type compared struct {
	real, off, on       float64 // reference seconds
	inputs              int
	events, prelude     int
	summaries, sumBytes int
	explorer            explorerTotals
	pool                cluster.PoolStats
	mem                 memCounters // around the real campaigns
	disclosed           int
}

func (c *compared) add(o compared) {
	c.real += o.real
	c.off += o.off
	c.on += o.on
	c.inputs += o.inputs
	c.events += o.events
	c.prelude += o.prelude
	c.summaries += o.summaries
	c.sumBytes += o.sumBytes
	c.explorer.add(o.explorer.SolverQueries, o.explorer.SolverSat, o.explorer.UniquePaths)
	c.pool = c.pool.Add(o.pool)
	c.mem = c.mem.add(o.mem)
	c.disclosed += o.disclosed
}

// compareOne runs the real campaign, the replica without spans and the
// replica with spans on one seed, each bracketed by reference samples, and
// checks the three found the same detections.
func compareOne(r *result, ref *refKernel, tr *Tracer, label string,
	realRun func() (batch, error), replica func(*Tracer) (replicaResult, error)) (compared, error) {
	var c compared
	timed := func(fn func() (float64, error)) (float64, error) {
		runtime.GC()
		before := ref.sample()
		sec, err := fn()
		return sec * refFactor(before, ref.sample()), err
	}
	var real batch
	var off, on replicaResult
	var err error
	if c.real, err = timed(func() (float64, error) {
		m0 := readMem()
		real, err = realRun()
		c.mem, c.disclosed = readMem().sub(m0), real.Disclosed
		return real.Seconds, err
	}); err != nil {
		return c, fmt.Errorf("%s: campaign: %w", label, err)
	}
	if c.off, err = timed(func() (float64, error) { off, err = replica(nil); return off.Seconds, err }); err != nil {
		return c, fmt.Errorf("%s: replica: %w", label, err)
	}
	if c.on, err = timed(func() (float64, error) { on, err = replica(tr); return on.Seconds, err }); err != nil {
		return c, fmt.Errorf("%s: traced replica: %w", label, err)
	}
	r.Attempted += real.Inputs
	r.failOp(real.UnitErrors+off.UnitErrors+on.UnitErrors, "%s: unit errors (campaign %d, replica %d/%d)", label, real.UnitErrors, off.UnitErrors, on.UnitErrors)
	for _, rep := range []replicaResult{off, on} {
		if rep.Fingerprint != real.Fingerprint || rep.Inputs != real.Inputs {
			r.failOp(1, "%s: replica (%d inputs, %.12s) has drifted from the campaign (%d inputs, %.12s)",
				label, rep.Inputs, rep.Fingerprint, real.Inputs, real.Fingerprint)
		}
		if rep.Pool.Leases != rep.Pool.Releases {
			r.failOp(1, "%s: replica leased %d clones, released %d", label, rep.Pool.Leases, rep.Pool.Releases)
		}
	}
	if on.Explorer != real.Explorer {
		r.fail("%s: replica explorer counts %+v, campaign %+v", label, on.Explorer, real.Explorer)
	}
	r.Observed.Slots = append(r.Observed.Slots, goldenSlot{Inputs: real.Inputs, Fingerprint: real.Fingerprint, Detections: real.Detections})
	c.inputs, c.events, c.prelude = on.Inputs, on.Events, on.PreludeEvents
	c.summaries, c.sumBytes, c.explorer, c.pool = on.Summaries, on.SummaryBytes, on.Explorer, on.Pool
	return c, nil
}

// traceCampaign is the traced run of a campaign or dist workload.
func traceCampaign(w *workload, seed int64, sz sizes, ref *refKernel, outDir string) (*result, error) {
	r := newResult(w, seed, sz, true)
	r.Layer = map[string]float64{}
	su, err := measureSetups(w, seed, min(sz.Setups, tracedSetups), ref)
	if err != nil {
		return nil, err
	}
	su.report(r)
	e := su.env
	tr := NewTracer()
	var partition *federation.Partition
	if w.kind == kindDist {
		partition = federation.PartitionByAS(e.topo)
	}
	if _, err := e.runLocal(seed, 1); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var total compared
	var firstReal float64
	for s := 0; s < sz.Seeds; s++ {
		cs := seed + int64(s)
		plan := replicaPlan{strategy: dice.AllNodesStrategy{}, inputs: w.inputs, seed: cs, partition: partition}
		c, err := compareOne(r, ref, tr, fmt.Sprintf("slot %d", s),
			func() (batch, error) { return e.runLocal(cs, 1) },
			func(t *Tracer) (replicaResult, error) { return e.runReplica(plan, t) })
		if err != nil {
			return nil, err
		}
		if s == 0 {
			firstReal = c.real
		}
		total.add(c)
	}
	layersFromSpans(r, tr.Spans(), total)
	r.reportMemory(total.mem, total.inputs, total.disclosed)

	if w.kind == kindDist {
		if err := traceWire(r, e, seed, sz, ref, tr); err != nil {
			return nil, err
		}
	}
	if err := probeLayers(r, e, su, ref); err != nil {
		return nil, err
	}

	// Two workers on two processors, against slot 0 on one: informational.
	runtime.GOMAXPROCS(2)
	runtime.GC()
	before := ref.sample()
	var two batch
	if w.kind == kindDist {
		two, err = e.runDist(seed, distOptions{workers: 2})
	} else {
		two, err = e.runLocal(seed, 2)
	}
	after := ref.sample()
	runtime.GOMAXPROCS(1)
	if err != nil {
		return nil, fmt.Errorf("two-worker run: %w", err)
	}
	one := firstReal
	if w.kind == kindDist {
		one = r.Raw["dist_batch_s"]
	}
	if t := two.Seconds * refFactor(before, after); t > 0 {
		r.Layer["dice.parallel_speedup_w2"] = one / t
	}

	r.Layer["trace.spans"] = float64(len(tr.Spans()))
	if err := tr.WriteFile(tracePath(outDir, w.name)); err != nil {
		return nil, err
	}
	return r, nil
}

func tracePath(outDir, workload string) string {
	return outDir + "/trace-" + workload + ".json"
}

// layersFromSpans turns the replica's spans and boundary counts into the
// per-input layer metrics. All times are reference time: the spans are scaled
// by the run's own traced-replica correction.
func layersFromSpans(r *result, spans []Span, c compared) {
	agg := aggregate(spans)
	get := func(name string) *spanStats {
		if st := agg[name]; st != nil {
			return st
		}
		return &spanStats{}
	}
	// Σ traced-replica reference seconds over Σ root span seconds converts
	// span nanoseconds to reference time.
	rootNs := float64(get("dice.campaign").total)
	if rootNs == 0 || c.inputs == 0 {
		return
	}
	f := c.on * 1e9 / rootNs
	us := func(ns float64) float64 { return ns * f / 1e3 }
	meanUs := func(name string) float64 {
		st := get(name)
		if st.count == 0 {
			return 0
		}
		return us(float64(st.total) / float64(st.count))
	}
	inputs := float64(c.inputs)
	L := r.Layer

	L["cluster.reset_us"] = meanUs("cluster.reset")
	L["cluster.resets"] = float64(c.pool.Resets)
	L["cluster.cold_builds"] = float64(c.pool.ColdBuilds)
	L["cluster.discards"] = float64(c.pool.Discards)
	L["cluster.lease_balance"] = float64(c.pool.Leases - c.pool.Releases)

	L["netem.settle_us"] = meanUs("netem.settle")
	if c.events > 0 {
		L["netem.us_per_event"] = us(float64(get("netem.settle").total)) / float64(c.events)
	}
	L["netem.events_per_input"] = float64(c.events) / inputs

	L["concolic.search_us"] = us(float64(get("concolic.search").self)) / inputs
	L["concolic.solver_queries_per_input"] = float64(c.explorer.SolverQueries) / inputs
	L["concolic.unique_paths"] = float64(c.explorer.UniquePaths)
	if c.explorer.SolverQueries > 0 {
		L["concolic.sat_share"] = float64(c.explorer.SolverSat) / float64(c.explorer.SolverQueries)
	}
	L["fuzz.gen_us"] = meanUs("fuzz.gen")

	L["checker.check_us"] = meanUs("checker.check")
	for _, p := range []string{"origin_validity", "reachability", "loop_freedom", "convergence", "node_health", "cross_impl_divergence", "summarize"} {
		L["checker."+p+"_us"] = us(float64(get("checker."+p).total)) / inputs
	}
	L["federation.check_local_us"] = meanUs("federation.check_local")
	L["federation.publish_us"] = meanUs("federation.publish")
	L["federation.summaries_per_input"] = float64(c.summaries) / inputs
	if c.summaries > 0 {
		L["federation.bytes_per_summary"] = float64(c.sumBytes) / float64(c.summaries)
	}
	if st := get("faults.prelude"); st.count > 0 {
		L["faults.prelude_us"] = meanUs("faults.prelude")
		L["faults.prelude_events"] = float64(c.prelude) / float64(st.count)
	}

	// What the dice.* spans do not hand to a layer is unaccounted for.
	var diceSelf int64
	for name, st := range agg {
		if layerOf(name) == "dice" {
			diceSelf += st.self
		}
	}
	L["dice.unaccounted_share"] = float64(diceSelf) / rootNs
	if inputNs := float64(get("dice.input").total); inputNs > 0 {
		L["dice.reset_share"] = float64(get("cluster.reset").total+get("cluster.cold_build").total) / inputNs
		L["dice.settle_share"] = float64(get("netem.settle").total+get("faults.prelude").total) / inputNs
		L["dice.check_share"] = float64(get("checker.check").total) / inputNs
	}
	L["dice.replica_ratio"] = c.off / c.real
	L["trace.overhead_pct"] = (c.on - c.off) / c.off * 100
	if ratio := L["dice.replica_ratio"]; ratio < 0.85 || ratio > 1.15 {
		r.warn("dice.replica_ratio %.3f is outside [0.85, 1.15]: the replica has drifted from the program", ratio)
	}
}

// probeLayers runs the direct probes and fills their metrics, corrected by
// the reference samples around the whole probe section.
func probeLayers(r *result, e *env, su *setups, ref *refKernel) error {
	L := r.Layer
	L["cluster.build_ms"] = median(su.column(func(x setupSample) float64 { return x.Build * 1e3 }))
	L["cluster.converge_ms"] = median(su.column(func(x setupSample) float64 { return x.Converge * 1e3 }))

	runtime.GC()
	before := ref.sample()
	backends, err := e.probeBackends()
	if err != nil {
		return fmt.Errorf("backend probes: %w", err)
	}
	cp, err := e.probeCheckpoint()
	if err != nil {
		return fmt.Errorf("checkpoint probes: %w", err)
	}
	f := refFactor(before, ref.sample())

	for impl, p := range backends {
		L[impl+".reset_us"] = p.ResetUs * f
		L[impl+".checkpoint_us"] = p.CheckpointUs * f
		L[impl+".update_us"] = p.UpdateUs * f
		L[impl+".node_bytes"] = p.NodeBytes
	}
	L["cluster.cold_build_ms"] = cp.ColdBuildMs * f
	L["cluster.from_snapshot_ms"] = cp.FromSnapshotMs * f
	if _, live := L["cluster.cut_ms_p50"]; !live {
		L["cluster.cut_ms_p50"] = median(cp.CutMs) * f
		L["cluster.cut_ms_p90"] = percentile(cp.CutMs, 90) * f
	}
	L["checkpoint.encode_ms"] = cp.EncodeMs * f
	L["checkpoint.hash_ms"] = cp.HashMs * f
	L["checkpoint.store_decode_ms"] = cp.StoreDecodeMs * f
	L["checkpoint.diff_ms"] = cp.DiffMs * f
	L["checkpoint.apply_delta_ms"] = cp.ApplyDeltaMs * f
	L["checkpoint.snapshot_bytes"] = float64(cp.SnapshotBytes)
	if _, live := L["checkpoint.ring_push_ms_p50"]; !live {
		L["checkpoint.ring_push_ms_p50"] = cp.RingPushMs * f
		L["checkpoint.ring_push_quiet_ms_p50"] = cp.RingPushQuietMs * f
		L["checkpoint.delta_bytes"] = float64(cp.DeltaBytes)
		L["checkpoint.nodes_changed"] = float64(cp.NodesChanged)
		L["checkpoint.cas_unique_blobs"] = float64(cp.CASUniqueBlobs)
		L["checkpoint.cas_shared_bytes_saved"] = float64(cp.CASSharedSaved)
	}
	return nil
}

// traceWire runs the distributed campaign once per seed slot with the timing
// transport and fills the control and agent metrics.
func traceWire(r *result, e *env, seed int64, sz sizes, ref *refKernel, tr *Tracer) error {
	root := tr.Add(0, "control.campaigns", time.Now(), time.Now())
	wt := &wireTimer{tr: tr, parent: root}
	wrap := func(next http.RoundTripper) http.RoundTripper { wt.next = next; return wt }
	var remote dice.RemoteStats
	var agents agentTotals
	var seconds, factorSum float64
	inputs := 0
	for s := 0; s < sz.Seeds; s++ {
		runtime.GC()
		before := ref.sample()
		b, err := e.runDist(seed+int64(s), distOptions{wrap: wrap})
		if err != nil {
			return fmt.Errorf("traced distributed run, slot %d: %w", s, err)
		}
		f := refFactor(before, ref.sample())
		factorSum += f
		seconds += b.Seconds * f
		inputs += b.Inputs
		r.Attempted += b.Inputs
		r.failOp(b.UnitErrors+b.Remote.Abandoned, "traced distributed run, slot %d: %d unit errors, %d abandoned shards", s, b.UnitErrors, b.Remote.Abandoned)
		if want := r.Observed.Slots[s]; b.Fingerprint != want.Fingerprint || b.Inputs != want.Inputs {
			r.failOp(1, "slot %d: distributed run (%d inputs, %.12s) differs from the in-process campaign (%d inputs, %.12s)",
				s, b.Inputs, b.Fingerprint, want.Inputs, want.Fingerprint)
		}
		remote.BaselineBytes += b.Remote.BaselineBytes
		remote.ShardBytes += b.Remote.ShardBytes
		remote.ResultBytes += b.Remote.ResultBytes
		remote.Reassigned += b.Remote.Reassigned
		remote.Abandoned += b.Remote.Abandoned
		for _, a := range b.Agents {
			agents.Shards += a.Shards
			agents.Resets += a.Resets
			agents.ColdBuilds += a.ColdBuilds
		}
	}
	f := factorSum / float64(sz.Seeds)
	r.Raw["dist_batch_s"] = seconds / float64(sz.Seeds)
	agg := aggregate(tr.Spans())
	p50us := func(name string) float64 {
		if st := agg[name]; st != nil {
			return median(st.durs) / 1e3 * f
		}
		return 0
	}
	L := r.Layer
	L["control.lease_rtt_us_p50"] = p50us("control.lease")
	L["control.result_post_us_p50"] = p50us("control.result")
	L["control.baseline_fetch_ms"] = p50us("control.baseline") / 1e3
	if wt.frames > 0 {
		L["control.frame_encode_us"] = float64(wt.encodeNs) / float64(wt.frames) / 1e3 * f
		L["control.frame_decode_us"] = float64(wt.decodeNs) / float64(wt.frames) / 1e3 * f
	}
	L["control.requests"] = float64(wt.requests)
	if wt.leases > 0 {
		L["control.idle_poll_share"] = float64(wt.idlePolls) / float64(wt.leases)
	}
	L["control.baseline_bytes"] = float64(remote.BaselineBytes)
	L["control.shard_bytes"] = float64(remote.ShardBytes)
	L["control.result_bytes"] = float64(remote.ResultBytes)
	L["control.reassigned"] = float64(remote.Reassigned)
	L["control.abandoned"] = float64(remote.Abandoned)
	L["agent.shards_run"] = float64(agents.Shards)
	L["agent.resets"] = float64(agents.Resets)
	L["agent.cold_builds"] = float64(agents.ColdBuilds)
	r.Extra["control.wire_bytes_per_input"] = float64(remote.BaselineBytes+remote.ShardBytes+remote.ResultBytes) / float64(inputs)
	return nil
}

// campaignSeedFor mirrors live.seedFor: the runtime derives a scenario
// campaign's seed from the epoch's state fingerprint and the scenario name.
func campaignSeedFor(fingerprint uint64, scenario string) int64 {
	h := fnv.New64a()
	h.Write([]byte(scenario))
	return int64((fingerprint ^ h.Sum64()) & 0x7fffffffffffffff)
}

// traceLive is the traced run of the soak: spans from the runtime's epoch and
// campaign hooks, then the per-input path of one epoch's five scenario
// campaigns through the replica.
func traceLive(w *workload, seed int64, sz sizes, ref *refKernel, outDir string) (*result, error) {
	r := newResult(w, seed, sz, true)
	r.Layer = map[string]float64{}
	su, err := measureSetups(w, seed, min(sz.Setups, tracedSetups), ref)
	if err != nil {
		return nil, err
	}
	su.report(r)
	tr := NewTracer()

	// The soak, with campaign spans built from the event hook.
	type key struct {
		epoch    int
		scenario string
	}
	started := make(map[key]time.Time)
	soakRoot := tr.Add(0, "live.soak", time.Now(), time.Now())
	hook := func(epoch int, scenario string, ev dice.Event) {
		k := key{epoch, scenario}
		switch ev.Kind {
		case dice.EventCampaignStart:
			started[k] = time.Now()
		case dice.EventCampaignEnd:
			tr.Add(soakRoot, "live.campaign", started[k], time.Now(), "epoch", strconv.Itoa(epoch), "scenario", scenario)
		}
	}
	runtime.GC()
	m0 := readMem()
	sk, err := su.env.runSoak(sz, ref, hook)
	if err != nil {
		return nil, err
	}
	reportSoak(r, sk, sz, readMem().sub(m0))
	soakLayers(r, sk, sz, aggregate(tr.Spans())["live.campaign"])

	// The per-input path: a fresh deployment's first cut, pushed into a ring
	// as the runtime does, explored by every scenario — once by the real
	// Campaign with the runtime's options, twice by the replica.
	e, _, err := setupOnce(w, seed)
	if err != nil {
		return nil, err
	}
	ep, err := checkpoint.NewRing(0).Push(e.snap.Clone())
	if err != nil {
		return nil, err
	}
	strategy := dice.DegreeStrategy{PeersPerExplorer: -1}
	pools := [3]*cluster.ClonePool{}
	for i := range pools {
		pools[i] = cluster.NewClonePool(e.topo, ep.Store, e.copts)
	}
	var total compared
	slotsBefore := len(r.Observed.Slots)
	for _, sc := range faults.Scenarios(e.topo, seed) {
		prelude := preludeOf(sc)
		cs := campaignSeedFor(ep.Fingerprint, sc.Name())
		plan := replicaPlan{strategy: strategy, explorers: []string{liveExplorer}, inputs: liveInputsPerScenario,
			seed: cs, store: ep.Store, prelude: prelude, scenario: sc.Name()}
		realRun := func() (batch, error) {
			opts := []dice.CampaignOption{
				dice.WithSnapshotStore(ep.Store), dice.WithClonePool(pools[0]), dice.WithStrategy(strategy),
				dice.WithBudget(dice.Budget{TotalInputs: liveInputsPerScenario}), dice.WithFuzzSeeds(fuzzSeeds),
				dice.WithSeed(cs), dice.WithWorkers(1), dice.WithClusterOptions(e.copts), dice.WithProperties(e.props...),
				dice.WithShadowMaxEvents(shadowMaxEvents), dice.WithExplorers(liveExplorer),
			}
			if len(prelude) > 0 {
				opts = append(opts, dice.WithClonePrelude(func(shadow *cluster.Cluster) {
					for _, s := range prelude {
						shadow.InjectRaw(s.From, s.To, s.Wire)
						shadow.Net.RunQuiescent(shadowMaxEvents)
					}
				}))
			}
			start := time.Now()
			res, err := dice.NewCampaign(nil, e.topo, opts...).Run(context.Background())
			if res == nil {
				return batch{}, err
			}
			b := batchOf(res, time.Since(start))
			if err != nil {
				b.UnitErrors++
			}
			return b, nil
		}
		next := 1
		c, err := compareOne(r, ref, tr, "scenario "+sc.Name(), realRun, func(t *Tracer) (replicaResult, error) {
			p := plan
			p.pool = pools[next]
			next++
			return e.runReplica(p, t)
		})
		if err != nil {
			return nil, err
		}
		total.add(c)
	}
	// The soak's own slot is what the golden pins; the scenario comparisons
	// above only feed the drift check.
	r.Observed.Slots = r.Observed.Slots[:slotsBefore]
	layersFromSpans(r, tr.Spans(), total)
	if err := probeLayers(r, e, su, ref); err != nil {
		return nil, err
	}
	r.Layer["trace.spans"] = float64(len(tr.Spans()))
	if err := tr.WriteFile(tracePath(outDir, w.name)); err != nil {
		return nil, err
	}
	return r, nil
}

// soakLayers fills the live-layer metrics from the soak's epoch rows (in
// reference time) and the campaign spans.
func soakLayers(r *result, sk *soak, sz sizes, campaigns *spanStats) {
	L := r.Layer
	churn := sk.churnRows(sz)
	var traffic, explore, pushChurn, pushQuiet, cuts []float64
	exploreTotal := 0.0
	for _, row := range churn {
		traffic = append(traffic, row.Traffic.Seconds()*1e3*row.Factor)
		explore = append(explore, row.Explore.Seconds()*row.Factor)
		pushChurn = append(pushChurn, row.Process.Seconds()*1e3*row.Factor)
	}
	for _, row := range sk.Rows {
		cuts = append(cuts, row.Pause.Seconds()*1e3*row.Factor)
		exploreTotal += row.Explore.Seconds() * row.Factor
	}
	for _, row := range sk.quietRows() {
		pushQuiet = append(pushQuiet, row.Process.Seconds()*1e3*row.Factor)
	}
	L["live.traffic_ms"] = median(traffic)
	L["live.explore_s"] = median(explore)
	L["live.pause_ms_p90"] = percentile(cuts, 90)
	L["cluster.cut_ms_p50"] = median(cuts)
	L["cluster.cut_ms_p90"] = percentile(cuts, 90)
	L["checkpoint.ring_push_ms_p50"] = median(pushChurn)
	L["checkpoint.ring_push_quiet_ms_p50"] = median(pushQuiet)
	if campaigns != nil && campaigns.count > 0 {
		// Spans carry raw time; the soak's mean correction brings them to
		// reference time.
		f := 0.0
		for _, row := range sk.Rows[:min(len(sk.Rows), sz.Churn)] {
			f += row.Factor
		}
		f /= float64(min(len(sk.Rows), sz.Churn))
		campaignS := float64(campaigns.total) / 1e9 * f
		L["live.campaign_ms"] = campaignS / float64(campaigns.count) * 1e3
		executed := 0
		for _, row := range sk.Rows {
			if row.Campaigns > 0 {
				executed++
			}
		}
		if executed > 0 {
			L["live.minimize_ms"] = (exploreTotal - campaignS) / float64(executed) * 1e3
			L["live.minimize_replays_per_epoch"] = float64(sk.Stats.MinimizeReplays) / float64(executed)
		}
	}
	if n := sk.Stats.Campaigns + sk.Stats.CampaignsDeduped; n > 0 {
		L["live.dedupe_hit_share"] = float64(sk.Stats.CampaignsDeduped) / float64(n)
	}
	L["live.findings"] = float64(sk.Findings)
	if sk.Findings > 0 {
		L["live.reverified_share"] = float64(sk.Reverified) / float64(sk.Findings)
	}
	if n := len(churn); n > 0 {
		delta, changed := 0, 0
		for _, row := range churn {
			delta += row.DeltaBytes
			changed += row.NodesChanged
		}
		L["checkpoint.delta_bytes"] = float64(delta) / float64(n)
		L["checkpoint.nodes_changed"] = float64(changed) / float64(n)
	}
	L["checkpoint.cas_unique_blobs"] = float64(sk.RingBlobs)
	L["checkpoint.cas_shared_bytes_saved"] = float64(sk.RingSaved)
}
