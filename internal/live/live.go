// Package live implements DiCE's online mode: a runtime that runs beside a
// deployed (emulated) cluster carrying live traffic, periodically takes
// low-pause consistent checkpoints into a rolling epoch ring, and drives
// back-to-back shadow campaigns against each fresh epoch — continuously, for
// as long as the deployment runs, without ever mutating it.
//
// The loop per epoch:
//
//	drive live traffic ─→ pause: consistent cut + state fingerprint
//	       ▲                          │ (microseconds; governed by PauseBudget)
//	       │                          ▼
//	  resume traffic          decode → epoch ring (bounded, delta-measured)
//	       │                          │
//	       │                          ▼
//	       │              scenario scheduler draws churn generators
//	       │              (weighted, adaptive, dedupe-cached)
//	       │                          │
//	       │                          ▼
//	       └──────────── shadow campaigns on pooled clones
//	                       detections → Report (minimized, re-verified traces)
//
// A resource governor keeps the runtime a good neighbor: the shadow worker
// pool gets a bounded CPU share, each checkpoint has a pause budget (pauses
// over budget stretch the checkpoint cadence), and in pipelined mode
// exploration that lags checkpointing is backpressured by superseding stale
// epochs instead of queueing them.
package live

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/dice"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/federation"
	"github.com/dice-project/dice/internal/netem"
	"github.com/dice-project/dice/internal/topology"
)

// TrafficDriver injects one epoch's worth of live traffic into the deployed
// cluster. The runtime advances the deployment by Options.TrafficStep of
// virtual time after the driver returns, so a driver only schedules
// messages; a driver that injects nothing models an idle deployment (whose
// epochs then dedupe against each other).
type TrafficDriver func(c *cluster.Cluster, rng *rand.Rand, epoch int)

// DefaultTraffic returns the default churn driver: per epoch, churn random
// origins withdraw and re-announce one of their own prefixes to a random
// neighbor at random offsets within the traffic step — steady, Internet-like
// control-plane background noise.
func DefaultTraffic(churn int) TrafficDriver {
	if churn <= 0 {
		churn = 3
	}
	return func(c *cluster.Cluster, rng *rand.Rand, epoch int) {
		names := c.RouterNames()
		for i := 0; i < churn; i++ {
			name := names[rng.Intn(len(names))]
			r := c.Router(name)
			cfg := r.Config()
			if len(cfg.Networks) == 0 {
				continue
			}
			pfx := cfg.Networks[rng.Intn(len(cfg.Networks))]
			neighbors := c.Topo.NeighborsOf(name)
			if len(neighbors) == 0 {
				continue
			}
			to := neighbors[rng.Intn(len(neighbors))]
			attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{cfg.AS}, NextHop: uint32(cfg.RouterID)}
			at := time.Duration(rng.Int63n(int64(500 * time.Millisecond)))
			c.Net.InjectMessage(netem.NodeID(name), netem.NodeID(to),
				bgp.Encode(&bgp.Update{Withdrawn: []bgp.Prefix{pfx}}), at)
			c.Net.InjectMessage(netem.NodeID(name), netem.NodeID(to),
				bgp.Encode(&bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{pfx}}), at+100*time.Millisecond)
		}
	}
}

// Options configure a live runtime.
type Options struct {
	// Seed drives the traffic driver, the scenario scheduler and the
	// per-campaign seeds (which additionally mix in the epoch's state
	// fingerprint).
	Seed int64
	// ClusterOptions must match the deployed cluster's options; shadow clones
	// are restored with them.
	ClusterOptions cluster.Options

	// TrafficStep is the virtual time the deployment advances per traffic
	// step (2s when unset). The checkpoint cadence starts at one step per
	// epoch and is stretched by the governor when pauses run over budget.
	TrafficStep time.Duration
	// Traffic injects each step's live traffic; nil selects
	// DefaultTraffic(3).
	Traffic TrafficDriver
	// MaxEpochs bounds the soak (zero: run until the context ends).
	MaxEpochs int
	// RingCapacity bounds the epoch ring's retention (8 when unset).
	RingCapacity int

	// Governor knobs.
	//
	// ShadowCPUShare is the fraction of GOMAXPROCS the shadow worker pool may
	// use, 0.5 when unset; Workers overrides the derived count directly.
	ShadowCPUShare float64
	Workers        int
	// PauseBudget is the per-checkpoint pause budget (25ms when unset). A
	// pause over budget doubles the number of traffic steps per checkpoint
	// (up to 8), trading checkpoint freshness for deployment throughput; the
	// cadence relaxes back when pauses are well under budget.
	PauseBudget time.Duration
	// Overlap pipelines exploration with checkpointing: campaigns run on
	// their own goroutine while the deployment keeps moving, and when
	// exploration lags, a fresh epoch supersedes the stale pending one
	// (counted in Stats.EpochsSuperseded) instead of queueing behind it. Off,
	// the loop explores every epoch before taking the next checkpoint.
	Overlap bool

	// Exploration knobs.
	//
	// ScenariosPerEpoch is how many scenarios the scheduler draws per epoch;
	// zero or anything at least the registry size runs them all.
	ScenariosPerEpoch int
	// InputsPerScenario is each scenario campaign's input budget (24 when
	// unset).
	InputsPerScenario int
	// FuzzSeeds is the per-unit grammar-fuzzed seed count (4 when unset).
	FuzzSeeds int
	// Scenarios overrides the scheduler's scenario registry; nil selects
	// faults.Scenarios(topo, Seed).
	Scenarios []faults.Scenario
	// Explorers restricts campaign planning to these routers; nil lets the
	// strategy default (the best-connected router) decide.
	Explorers []string
	// Strategy overrides campaign planning; nil selects
	// dice.DegreeStrategy{PeersPerExplorer: -1} (every session of each
	// explorer).
	Strategy dice.Strategy
	// Properties are the checked properties; nil selects
	// checker.DefaultProperties.
	Properties []checker.Property
	// CodeFaults are installed on every shadow clone (mirroring faulty
	// binaries on the deployed nodes).
	CodeFaults []faults.CodeFault
	// ShadowMaxEvents bounds each clone run (20000 when unset).
	ShadowMaxEvents int

	// MinimizeReplays is the greedy trace minimizer's search budget per group
	// of co-detected findings: pooled probes only (64 when unset). The cold
	// confirmations that set Reverified are outside it and always run;
	// negative disables minimization.
	MinimizeReplays int
	// Cache is the cross-epoch path-dedupe cache; nil builds a fresh one.
	// Pass a loaded cache to resume a previous soak's dedupe state. Entries
	// are keyed by the exploration configuration as well as the state
	// fingerprint, so resuming with a different budget, property set or
	// fault set re-explores rather than trusting shallower past campaigns.
	Cache *PathCache

	// Partition, when non-nil, runs every shadow campaign federated over
	// these administrative domains: units are planned per domain and
	// cross-domain verdicts travel as summary-grade disclosures. The
	// disclosures are mirrored onto the runtime's long-lived Bus, so a soak's
	// cumulative per-domain disclosure accounting is observable (the metrics
	// layer reads it).
	Partition *federation.Partition

	// OnFinding, when non-nil, is called synchronously for every new finding
	// (after minimization), always from the exploring goroutine, never
	// concurrently.
	OnFinding func(*Finding)
	// OnEpoch, when non-nil, is called synchronously from the exploring
	// goroutine after each epoch's campaigns finish, with that epoch's
	// summary row. In Overlap mode an epoch superseded before exploration
	// produces no row. Never called concurrently.
	OnEpoch func(EpochSummary)
	// OnCampaignEvent, when non-nil, receives every campaign progress event
	// (unit starts, detections, summaries) tagged with the epoch and
	// scenario — the feed for span tracing. Called synchronously from the
	// exploring goroutine.
	OnCampaignEvent func(epoch int, scenario string, ev dice.Event)
	// Trace, when non-nil, receives progress lines. Invocations are
	// serialized by the runtime (in Overlap mode both the checkpoint loop
	// and the explorer emit lines), so the callback itself needs no locking.
	Trace func(string)
}

func (o Options) withDefaults() Options {
	if o.TrafficStep <= 0 {
		o.TrafficStep = 2 * time.Second
	}
	if o.Traffic == nil {
		o.Traffic = DefaultTraffic(3)
	}
	if o.RingCapacity <= 0 {
		o.RingCapacity = 8
	}
	if o.ShadowCPUShare <= 0 || o.ShadowCPUShare > 1 {
		o.ShadowCPUShare = 0.5
	}
	if o.Workers <= 0 {
		o.Workers = int(o.ShadowCPUShare * float64(runtime.GOMAXPROCS(0)))
		if o.Workers < 1 {
			o.Workers = 1
		}
	}
	if o.PauseBudget <= 0 {
		o.PauseBudget = 25 * time.Millisecond
	}
	if o.InputsPerScenario <= 0 {
		o.InputsPerScenario = 24
	}
	if o.FuzzSeeds <= 0 {
		o.FuzzSeeds = 4
	}
	if o.Strategy == nil {
		o.Strategy = dice.DegreeStrategy{PeersPerExplorer: -1}
	}
	if o.ShadowMaxEvents <= 0 {
		o.ShadowMaxEvents = 20000
	}
	if o.MinimizeReplays == 0 {
		o.MinimizeReplays = 64
	}
	if o.Cache == nil {
		o.Cache = NewPathCache()
	}
	return o
}

// maxStride bounds how far the governor stretches the checkpoint cadence.
const maxStride = 8

// Stats aggregates a soak's activity. All counters are cumulative.
type Stats struct {
	// Epochs is the number of checkpoints taken.
	Epochs int

	// Checkpoint pause accounting: the pause is only the consistent cut plus
	// the state fingerprint — decoding, measuring and ring bookkeeping happen
	// off the critical path (CheckpointProcessTotal) while traffic resumes.
	CheckpointPauseTotal   time.Duration
	CheckpointPauseMax     time.Duration
	CheckpointProcessTotal time.Duration
	// PauseBudgetExceeded counts checkpoints whose pause ran over budget.
	// StrideStretches counts the governor actually doubling the cadence in
	// response — at the stride cap an overrun increments PauseBudgetExceeded
	// but not StrideStretches, so the two diverge exactly when the governor
	// has run out of room. StrideRelaxes counts cadence halvings on
	// comfortably-under-budget pauses. CheckpointStride is the final cadence
	// (traffic steps per checkpoint).
	PauseBudgetExceeded int
	StrideStretches     int
	StrideRelaxes       int
	CheckpointStride    int

	// Epoch footprint accounting. CheckpointNodesReused counts the router
	// checkpoints the cuts took over unchanged from a retained epoch — not
	// rebuilt, not encoded, not hashed.
	SnapshotBytesTotal    int
	DeltaBytesTotal       int
	CheckpointNodesReused int

	// Exploration accounting. The *Saved counters are what the cross-epoch
	// dedupe cache avoided re-running on unchanged state.
	Campaigns        int
	CampaignsDeduped int
	InputsExplored   int
	InputsSaved      int
	PathsExplored    int
	PathsSaved       int

	// Wall-clock split: live traffic vs shadow exploration.
	TrafficTime time.Duration
	ExploreTime time.Duration

	// EpochsSuperseded counts epochs replaced by a fresher one before
	// exploration got to them (Overlap mode backpressure).
	EpochsSuperseded int

	// CampaignErrors counts campaigns that failed outright (their time is
	// still charged to ExploreTime), ReplayErrors minimizer replays whose
	// clone could not be leased or built.
	CampaignErrors int
	ReplayErrors   int

	// Findings and minimization. MinimizeReplays counts replays executed
	// (pooled probes + cold confirmations, memo hits excluded),
	// MinimizeColdReplays its cold subset, MinimizeDisagreements groups whose
	// cold confirmation contradicted the pooled search (original trace kept).
	Findings              int
	FindingsReverified    int
	TraceStepsBefore      int
	TraceStepsAfter       int
	MinimizeReplays       int
	MinimizeColdReplays   int
	MinimizeDisagreements int
	// FirstDetectionEpoch is the epoch of the first finding (0: none yet).
	FirstDetectionEpoch int
}

// PauseMean returns the mean checkpoint pause.
func (s Stats) PauseMean() time.Duration {
	if s.Epochs == 0 {
		return 0
	}
	return s.CheckpointPauseTotal / time.Duration(s.Epochs)
}

// ShadowOverheadPercent reports steady-state shadow overhead: exploration
// wall clock relative to everything the deployment itself needed (traffic
// plus checkpointing, pause and processing).
func (s Stats) ShadowOverheadPercent() float64 {
	liveSide := s.TrafficTime + s.CheckpointPauseTotal + s.CheckpointProcessTotal
	if liveSide <= 0 {
		return 0
	}
	return 100 * float64(s.ExploreTime) / float64(liveSide)
}

// DedupeSavedFraction reports the fraction of would-be inputs the dedupe
// cache skipped.
func (s Stats) DedupeSavedFraction() float64 {
	total := s.InputsExplored + s.InputsSaved
	if total == 0 {
		return 0
	}
	return float64(s.InputsSaved) / float64(total)
}

// EpochSummary is one epoch's row of soak history: what the checkpoint cost
// and what its exploration did. Duration and byte fields are this epoch's
// own, not cumulative; delivered via Options.OnEpoch after the epoch's
// campaigns finish.
type EpochSummary struct {
	// Seq is the epoch's ring sequence number; UnixNano the wall-clock time
	// its checkpoint was taken (from the ring's clock seam).
	Seq      int
	UnixNano int64

	// Checkpoint-side costs.
	Pause      time.Duration
	Process    time.Duration
	Traffic    time.Duration
	OverBudget bool
	Stride     int

	// Footprint.
	Bytes        int
	DeltaBytes   int
	NodesChanged int
	NodesReused  int

	// Exploration activity (this epoch only).
	Explore          time.Duration
	Campaigns        int
	CampaignsDeduped int
	Inputs           int
	InputsSaved      int
	Paths            int
	PathsSaved       int
	Findings         int
}

// epochMeta carries the checkpoint loop's measurements for one epoch to the
// exploring goroutine, which folds in exploration deltas and emits the
// EpochSummary.
type epochMeta struct {
	pause      time.Duration
	process    time.Duration
	traffic    time.Duration
	overBudget bool
	stride     int
}

// epochWork pairs an epoch with its checkpoint measurements in the Overlap
// mailbox.
type epochWork struct {
	ep   *checkpoint.Epoch
	meta epochMeta
}

// Runtime attaches DiCE to a running deployment and soaks it: traffic,
// checkpoint, explore, repeat. Construct with NewRuntime, then call Run
// once.
type Runtime struct {
	live *cluster.Cluster
	topo *topology.Topology
	opts Options

	ring   *checkpoint.Ring
	sched  *Scheduler
	cache  *PathCache
	report *Report
	props  []checker.Property
	bus    *federation.Bus

	start time.Time

	mu      sync.Mutex
	stats   Stats
	started bool
	// poolStats accumulates retired epochs' clone-pool activity; activePool
	// is the currently exploring epoch's pool (nil between epochs). PoolStats
	// folds the two, so the soak-wide view never loses an epoch.
	poolStats  cluster.PoolStats
	activePool *cluster.ClonePool
	// traceMu serializes Trace callback invocations (see tracef).
	traceMu sync.Mutex
	// pathHigh is each scenario's high-water mark of unique paths explored
	// in one campaign. "New paths" for scheduler rewarding means exceeding
	// it: every executed campaign trivially explores >= 1 path, so rewarding
	// the raw count would make the decay branch unreachable and saturate
	// every weight at the ceiling.
	pathHigh map[string]int
	// configDigest folds every option that shapes what a campaign explores
	// into the dedupe-cache key (see cacheKey).
	configDigest uint64
	// testProbe lets a test make the pooled search lie (see probe).
	testProbe func(steps []TraceStep, keys map[string]bool) map[string]bool
}

// exploreConfigDigest hashes the options that determine a campaign's
// exploration: identical (fingerprint, digest, scenario) triples run
// byte-identical campaigns, which is the dedupe cache's soundness condition.
// Worker count is excluded on purpose — campaigns are deterministic in it.
func exploreConfigDigest(o Options, strategyName string, props []checker.Property) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "inputs=%d|fuzz=%d|maxev=%d|strategy=%s", o.InputsPerScenario, o.FuzzSeeds, o.ShadowMaxEvents, strategyName)
	for _, e := range o.Explorers {
		fmt.Fprintf(h, "|explorer=%s", e)
	}
	for _, p := range props {
		fmt.Fprintf(h, "|prop=%s", p.Name())
	}
	for _, f := range o.CodeFaults {
		fmt.Fprintf(h, "|codefault=%s@%s", f.Name(), f.Target())
	}
	return h.Sum64()
}

// ErrRuntimeReused is returned when Run is called more than once.
var ErrRuntimeReused = errors.New("live: runtime already run; construct a new one")

// NewRuntime returns a live runtime attached to the deployed cluster.
func NewRuntime(liveCluster *cluster.Cluster, topo *topology.Topology, opts Options) (*Runtime, error) {
	if liveCluster == nil {
		return nil, errors.New("live: runtime requires a deployed cluster")
	}
	if topo == nil {
		return nil, errors.New("live: runtime requires a topology")
	}
	opts = opts.withDefaults()
	scenarios := opts.Scenarios
	if scenarios == nil {
		scenarios = faults.Scenarios(topo, opts.Seed)
	}
	if len(scenarios) == 0 {
		return nil, errors.New("live: no scenarios registered")
	}
	props := opts.Properties
	if props == nil {
		props = checker.DefaultProperties(topo)
	}
	return &Runtime{
		live:         liveCluster,
		topo:         topo,
		opts:         opts,
		ring:         checkpoint.NewRing(opts.RingCapacity),
		sched:        NewScheduler(opts.Seed, scenarios),
		cache:        opts.Cache,
		report:       NewReport(),
		bus:          federation.NewBus(),
		pathHigh:     make(map[string]int),
		configDigest: exploreConfigDigest(opts, opts.Strategy.Name(), props),
		props:        props,
	}, nil
}

// Ring returns the runtime's epoch ring.
func (rt *Runtime) Ring() *checkpoint.Ring { return rt.ring }

// Scheduler returns the runtime's scenario scheduler.
func (rt *Runtime) Scheduler() *Scheduler { return rt.sched }

// Cache returns the cross-epoch dedupe cache (persist it with
// PathCache.Save to resume a soak later).
func (rt *Runtime) Cache() *PathCache { return rt.cache }

// Report returns the violation store (live: findings appear while Run is
// still soaking).
func (rt *Runtime) Report() *Report { return rt.report }

// Stats returns a snapshot of the soak counters.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.stats
}

// Bus returns the runtime's long-lived federation bus. Campaigns run under
// Options.Partition mirror every disclosure onto it, so its counters are the
// soak's cumulative cross-domain disclosure accounting; without a partition
// it stays at zero.
func (rt *Runtime) Bus() *federation.Bus { return rt.bus }

// PoolStats returns clone-pool activity accumulated across every epoch,
// including the epoch currently exploring.
func (rt *Runtime) PoolStats() cluster.PoolStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	s := rt.poolStats
	if rt.activePool != nil {
		s = s.Add(rt.activePool.Stats())
	}
	return s
}

// PoolOutstanding returns the currently exploring epoch's leased-not-released
// clone count (zero between epochs — retired pools are always quiesced).
func (rt *Runtime) PoolOutstanding() int {
	rt.mu.Lock()
	pool := rt.activePool
	rt.mu.Unlock()
	if pool == nil {
		return 0
	}
	return pool.Outstanding()
}

// busMirror mirrors a federated campaign's disclosures onto the runtime's
// long-lived bus, re-accounting each envelope there.
type busMirror struct{ bus *federation.Bus }

// Deliver implements federation.Transport.
func (m busMirror) Deliver(e federation.Envelope) { m.bus.Record(e) }

// tracef serializes all Trace callback invocations: in Overlap mode the
// checkpoint loop and the explorer goroutine both emit progress lines, and
// the callback contract is that it is never called concurrently (so a
// callback appending to a plain slice or writer stays correct).
func (rt *Runtime) tracef(format string, args ...interface{}) {
	if rt.opts.Trace == nil {
		return
	}
	line := fmt.Sprintf(format, args...)
	rt.traceMu.Lock()
	defer rt.traceMu.Unlock()
	rt.opts.Trace(line)
}

// Run soaks the deployment: per epoch, drive live traffic, take a low-pause
// checkpoint into the epoch ring, and explore the fresh epoch with
// scheduler-drawn scenario campaigns. It returns the report when MaxEpochs
// is reached, or the report plus the context's error when the caller ends
// the soak early. Run may be called once per runtime.
func (rt *Runtime) Run(ctx context.Context) (*Report, error) {
	rt.mu.Lock()
	if rt.started {
		rt.mu.Unlock()
		return nil, ErrRuntimeReused
	}
	rt.started = true
	rt.mu.Unlock()
	rt.start = time.Now()

	trafficRNG := rand.New(rand.NewSource(rt.opts.Seed))

	// In Overlap mode exploration runs on its own goroutine, consuming only
	// the freshest epoch; deliver() supersedes a stale pending epoch.
	var (
		mailbox chan epochWork
		wg      sync.WaitGroup
	)
	if rt.opts.Overlap {
		mailbox = make(chan epochWork, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := range mailbox {
				rt.exploreEpoch(ctx, w.ep, w.meta)
			}
		}()
		// Every exit of Run — normal completion, cancellation, or a
		// checkpoint error — must stop the explorer, or the goroutine (and
		// the epoch stores it references) leaks for the life of the process.
		defer func() {
			close(mailbox)
			wg.Wait()
		}()
	}

	stride := 1
	for epoch := 1; rt.opts.MaxEpochs == 0 || epoch <= rt.opts.MaxEpochs; epoch++ {
		if ctx.Err() != nil {
			break
		}

		// Live traffic: the deployment moves stride steps forward.
		tStart := time.Now()
		for s := 0; s < stride; s++ {
			rt.opts.Traffic(rt.live, trafficRNG, epoch)
			rt.live.Run(rt.live.Net.Now() + rt.opts.TrafficStep)
		}
		trafficTime := time.Since(tStart)

		// The pause: the consistent cut, nothing else. Content hashing rides
		// with the other off-critical-path work inside Ring.Push.
		pauseStart := time.Now()
		snap := rt.live.Snapshot()
		pause := time.Since(pauseStart)

		// Governor: stretch the cadence when the pause ran over budget,
		// relax it when pauses are comfortably under.
		overBudget := pause > rt.opts.PauseBudget
		stretched, relaxed := false, false
		if overBudget && stride < maxStride {
			stride *= 2
			stretched = true
		} else if !overBudget && pause*4 < rt.opts.PauseBudget && stride > 1 {
			stride /= 2
			relaxed = true
		}

		// Off the critical path (the snapshot is immutable; traffic could
		// already be flowing again): encode, content-hash, measure, delta,
		// ring.
		procStart := time.Now()
		ep, err := rt.ring.Push(snap)
		procTime := time.Since(procStart)
		if err != nil {
			return rt.report, err
		}

		rt.mu.Lock()
		rt.stats.Epochs++
		rt.stats.TrafficTime += trafficTime
		rt.stats.CheckpointPauseTotal += pause
		if pause > rt.stats.CheckpointPauseMax {
			rt.stats.CheckpointPauseMax = pause
		}
		rt.stats.CheckpointProcessTotal += procTime
		if overBudget {
			rt.stats.PauseBudgetExceeded++
		}
		if stretched {
			rt.stats.StrideStretches++
		}
		if relaxed {
			rt.stats.StrideRelaxes++
		}
		rt.stats.CheckpointStride = stride
		rt.stats.SnapshotBytesTotal += ep.Bytes
		rt.stats.DeltaBytesTotal += ep.DeltaBytes
		rt.stats.CheckpointNodesReused += ep.NodesReused
		rt.mu.Unlock()

		rt.tracef("epoch %d: cut %v (%d/%d routers re-cut, %d bytes, delta %d, %d/%d nodes changed)",
			ep.Seq, pause.Round(time.Microsecond), len(snap.Nodes)-ep.NodesReused, len(snap.Nodes),
			ep.Bytes, ep.DeltaBytes, ep.NodesChanged, len(snap.Nodes))

		meta := epochMeta{pause: pause, process: procTime, traffic: trafficTime, overBudget: overBudget, stride: stride}
		if rt.opts.Overlap {
			rt.deliver(mailbox, epochWork{ep: ep, meta: meta})
		} else {
			rt.exploreEpoch(ctx, ep, meta)
		}
	}

	return rt.report, ctx.Err()
}

// deliver hands an epoch to the explorer goroutine, superseding a stale
// pending epoch rather than queueing behind it — the backpressure that keeps
// exploration working on the freshest state when it lags checkpointing.
func (rt *Runtime) deliver(mailbox chan epochWork, w epochWork) {
	for {
		select {
		case mailbox <- w:
			return
		default:
		}
		select {
		case stale := <-mailbox:
			rt.mu.Lock()
			rt.stats.EpochsSuperseded++
			rt.mu.Unlock()
			rt.tracef("epoch %d superseded by epoch %d before exploration", stale.ep.Seq, w.ep.Seq)
		default:
		}
	}
}

// exploreEpoch runs the epoch's campaigns and, when the caller subscribed,
// emits its EpochSummary — exploration deltas diffed around the explore call
// (exploration stats have a single writer, this goroutine, so the diff is
// exact even while the checkpoint loop updates traffic counters
// concurrently in Overlap mode).
func (rt *Runtime) exploreEpoch(ctx context.Context, ep *checkpoint.Epoch, meta epochMeta) {
	if rt.opts.OnEpoch == nil {
		rt.explore(ctx, ep)
		return
	}
	before := rt.Stats()
	rt.explore(ctx, ep)
	after := rt.Stats()
	rt.opts.OnEpoch(EpochSummary{
		Seq:              ep.Seq,
		UnixNano:         ep.Taken.UnixNano(),
		Pause:            meta.pause,
		Process:          meta.process,
		Traffic:          meta.traffic,
		OverBudget:       meta.overBudget,
		Stride:           meta.stride,
		Bytes:            ep.Bytes,
		DeltaBytes:       ep.DeltaBytes,
		NodesChanged:     ep.NodesChanged,
		NodesReused:      ep.NodesReused,
		Explore:          after.ExploreTime - before.ExploreTime,
		Campaigns:        after.Campaigns - before.Campaigns,
		CampaignsDeduped: after.CampaignsDeduped - before.CampaignsDeduped,
		Inputs:           after.InputsExplored - before.InputsExplored,
		InputsSaved:      after.InputsSaved - before.InputsSaved,
		Paths:            after.PathsExplored - before.PathsExplored,
		PathsSaved:       after.PathsSaved - before.PathsSaved,
		Findings:         after.Findings - before.Findings,
	})
}

// seedFor derives a campaign seed from the epoch's state fingerprint and the
// scenario — not from the epoch number, so identical state plus identical
// scenario means an identical campaign, which is what makes the dedupe cache
// sound.
func seedFor(fingerprint uint64, scenario string) int64 {
	h := fnv.New64a()
	h.Write([]byte(scenario))
	return int64((fingerprint ^ h.Sum64()) & 0x7fffffffffffffff)
}

// explore runs the epoch's scenario campaigns.
func (rt *Runtime) explore(ctx context.Context, ep *checkpoint.Epoch) {
	// All of an epoch's scenario campaigns and minimizer probes explore the
	// same immutable store, so they share one clone pool: the cold clone
	// builds are paid once per worker per epoch, not once per worker per
	// scenario. Clones are built on first lease — a fully deduped epoch never
	// builds any.
	ex := rt.replaysOf(ep)
	rt.mu.Lock()
	rt.activePool = ex.pool
	rt.mu.Unlock()
	// Retire the epoch's pool into the soak-wide accumulator on every exit
	// path, so PoolStats never loses an epoch (or double-counts one).
	defer func() {
		rt.mu.Lock()
		rt.poolStats = rt.poolStats.Add(ex.pool.Stats())
		rt.activePool = nil
		rt.mu.Unlock()
	}()
	for _, sc := range rt.sched.Draw(rt.opts.ScenariosPerEpoch) {
		if ctx.Err() != nil {
			return
		}
		key := cacheKey(ep.Fingerprint, rt.configDigest, sc.Name())
		if hit, ok := rt.cache.Lookup(key); ok {
			rt.mu.Lock()
			rt.stats.CampaignsDeduped++
			rt.stats.InputsSaved += hit.Inputs
			rt.stats.PathsSaved += hit.Paths
			rt.mu.Unlock()
			rt.sched.Reward(sc.Name(), 0, 0)
			rt.tracef("epoch %d: scenario %s deduped (state unchanged; %d inputs, %d paths saved)",
				ep.Seq, sc.Name(), hit.Inputs, hit.Paths)
			continue
		}

		prelude := recordPrelude(sc)
		exStart := time.Now()
		res, err := rt.runCampaign(ctx, ep, sc, prelude, ex.pool)
		exTime := time.Since(exStart)
		// A cancelled campaign still returns what it detected; that partial
		// result is published below, not dropped. Anything else failed.
		if err != nil && (ctx.Err() == nil || res == nil) {
			rt.mu.Lock()
			rt.stats.CampaignErrors++
			rt.stats.ExploreTime += exTime
			rt.mu.Unlock()
			rt.tracef("epoch %d: scenario %s failed: %v", ep.Seq, sc.Name(), err)
			continue
		}

		paths := 0
		newViolations := 0
		// Findings co-detected on the same clone execution share one trace;
		// grouping them keeps minimization amortized (one greedy pass per
		// detecting input, not per violation). Findings are minimized fully
		// BEFORE they are published to the report: the report is read
		// concurrently (OnFinding consumers, callers polling Report() while
		// the soak runs), so a published finding must never be mutated again.
		// Exploration is single-goroutine (even in Overlap mode), so the
		// Find-then-Add below cannot race with another publisher; claimed
		// dedupes within this campaign's own result set.
		var groups [][]*Finding
		claimed := make(map[string]bool)
		for _, unit := range res.Units {
			if unit == nil {
				continue
			}
			paths += unit.ExplorerStats.UniquePaths
			byInput := make(map[int][]*Finding)
			var inputOrder []int
			for i := range unit.Detections {
				d := &unit.Detections[i]
				key := d.Violation.Key()
				if claimed[key] || rt.report.Find(key) != nil {
					continue
				}
				claimed[key] = true
				f := &Finding{
					Epoch:      ep.Seq,
					Scenario:   sc.Name(),
					Explorer:   unit.Explorer,
					FromPeer:   unit.FromPeer,
					Domain:     unit.Domain,
					InputIndex: d.InputIndex,
					Class:      d.Class,
					Violation:  d.Violation,
					Elapsed:    time.Since(rt.start),
					Trace:      traceOf(prelude, unit.FromPeer, unit.Explorer, d),
				}
				f.TraceOriginal = len(f.Trace)
				newViolations++
				if len(byInput[d.InputIndex]) == 0 {
					inputOrder = append(inputOrder, d.InputIndex)
				}
				byInput[d.InputIndex] = append(byInput[d.InputIndex], f)
			}
			for _, idx := range inputOrder {
				groups = append(groups, byInput[idx])
			}
		}
		// Minimization replays are shadow-side work too: their resets, cold
		// rebuilds and quiescent runs are charged to ExploreTime, or the
		// shadow overhead metric would understate the runtime's actual cost
		// in finding-heavy soaks.
		minStart := time.Now()
		for _, group := range groups {
			rt.minimizeGroup(ctx, ex, group)
			for _, f := range group {
				rt.report.Add(f)
				rt.mu.Lock()
				rt.stats.Findings++
				if f.Reverified {
					rt.stats.FindingsReverified++
				}
				rt.stats.TraceStepsBefore += f.TraceOriginal
				rt.stats.TraceStepsAfter += len(f.Trace)
				if rt.stats.FirstDetectionEpoch == 0 {
					rt.stats.FirstDetectionEpoch = ep.Seq
				}
				rt.mu.Unlock()
				rt.tracef("finding: %s", f)
				if rt.opts.OnFinding != nil {
					rt.opts.OnFinding(f)
				}
			}
		}
		minTime := time.Since(minStart)

		// A campaign cut short by cancellation is never cached or rewarded.
		cancelled := ctx.Err() != nil
		if !cancelled {
			rt.cache.Store(key, CacheEntry{Inputs: res.InputsExplored, Paths: paths})
		}
		rt.mu.Lock()
		// Reward "new paths" only beyond the scenario's high-water mark:
		// every executed campaign explores at least one path, so the raw
		// count would boost unconditionally and the decay branch could never
		// fire for an executed campaign.
		newPaths := paths - rt.pathHigh[sc.Name()]
		if newPaths > 0 {
			rt.pathHigh[sc.Name()] = paths
		} else {
			newPaths = 0
		}
		rt.stats.Campaigns++
		rt.stats.InputsExplored += res.InputsExplored
		rt.stats.PathsExplored += paths
		rt.stats.ExploreTime += exTime + minTime
		rt.mu.Unlock()
		if cancelled {
			return
		}
		rt.sched.Reward(sc.Name(), newViolations, newPaths)
	}
}

// runCampaign drives one scenario campaign against the epoch's store, on
// the epoch's shared clone pool.
func (rt *Runtime) runCampaign(ctx context.Context, ep *checkpoint.Epoch, sc faults.Scenario, prelude []TraceStep, pool *cluster.ClonePool) (*dice.CampaignResult, error) {
	opts := []dice.CampaignOption{
		dice.WithSnapshotStore(ep.Store),
		dice.WithClonePool(pool),
		dice.WithStrategy(rt.opts.Strategy),
		dice.WithBudget(dice.Budget{TotalInputs: rt.opts.InputsPerScenario}),
		dice.WithFuzzSeeds(rt.opts.FuzzSeeds),
		dice.WithSeed(seedFor(ep.Fingerprint, sc.Name())),
		dice.WithWorkers(rt.opts.Workers),
		dice.WithCodeFaults(rt.opts.CodeFaults...),
		dice.WithClusterOptions(rt.opts.ClusterOptions),
		dice.WithProperties(rt.props...),
		dice.WithShadowMaxEvents(rt.opts.ShadowMaxEvents),
	}
	if len(rt.opts.Explorers) > 0 {
		opts = append(opts, dice.WithExplorers(rt.opts.Explorers...))
	}
	if rt.opts.Partition != nil {
		// Federated campaign: disclosures cross domain boundaries as
		// summaries, mirrored onto the runtime's long-lived bus so the soak's
		// cumulative per-domain accounting is observable.
		opts = append(opts,
			dice.WithFederation(rt.opts.Partition),
			dice.WithFederationTransport(busMirror{bus: rt.bus}))
	}
	if rt.opts.OnCampaignEvent != nil {
		epoch, scenario := ep.Seq, sc.Name()
		opts = append(opts, dice.WithOnEvent(func(ev dice.Event) {
			rt.opts.OnCampaignEvent(epoch, scenario, ev)
		}))
	}
	if len(prelude) > 0 {
		opts = append(opts, dice.WithClonePrelude(func(shadow *cluster.Cluster) {
			replaySteps(shadow, prelude, rt.opts.ShadowMaxEvents)
		}))
	}
	// The campaign gets a nil live cluster on purpose: an epoch campaign
	// must never touch the deployment, which may be driving traffic on
	// another goroutine in Overlap mode.
	return dice.NewCampaign(nil, rt.topo, opts...).Run(ctx)
}

// traceRecorder captures a scenario's injections as trace steps.
type traceRecorder struct {
	steps []TraceStep
}

// InjectUpdate implements faults.ChurnTarget.
func (tr *traceRecorder) InjectUpdate(fromPeer, to string, update *bgp.Update) {
	tr.steps = append(tr.steps, TraceStep{From: fromPeer, To: to, Wire: bgp.Encode(update)})
}

// recordPrelude runs the scenario's Prime against a recorder and returns the
// injected sequence. Priming is deterministic, so recording once per
// campaign and replaying into every clone is exact.
func recordPrelude(sc faults.Scenario) []TraceStep {
	var tr traceRecorder
	sc.Prime(&tr)
	return tr.steps
}

// replaySteps applies a recorded trace to a clone, letting the system settle
// after every step. Per-step settling is the trace's defined semantics, and
// using it on BOTH the campaign prelude and the cold re-verification replays
// keeps their interleavings identical — injecting everything at once and
// settling once would process the detecting input before the prelude's
// ripples propagate, a different execution than the one that detected.
func replaySteps(c *cluster.Cluster, steps []TraceStep, maxEvents int) {
	for _, s := range steps {
		c.InjectRaw(s.From, s.To, s.Wire)
		c.Net.RunQuiescent(maxEvents)
	}
}

// traceOf builds a detection's full replayable trace: the scenario prelude
// followed by the explored input that surfaced the violation, framed exactly
// as the campaign's clone runner injected it.
func traceOf(prelude []TraceStep, fromPeer, explorer string, d *dice.Detection) []TraceStep {
	steps := cloneSteps(prelude)
	if d.Input != nil {
		steps = append(steps, TraceStep{From: fromPeer, To: explorer, Wire: bgp.FrameUpdate(d.Input.Region("update"))})
	}
	return steps
}

// epochReplays is the minimizer's replay context for one epoch: search probes
// lease from the epoch's clone pool (the one its campaigns ran on), and every
// verdict that reaches the report comes from a cold rebuild, memoised by the
// trace's bytes so identical final traces are confirmed once per epoch.
type epochReplays struct {
	ep   *checkpoint.Epoch
	pool *cluster.ClonePool
	cold map[string]map[string]bool
}

func (rt *Runtime) replaysOf(ep *checkpoint.Epoch) *epochReplays {
	return &epochReplays{
		ep:   ep,
		pool: cluster.NewClonePool(rt.topo, ep.Store, rt.opts.ClusterOptions),
		cold: make(map[string]map[string]bool),
	}
}

// keysOn replays a trace on a shadow clone in snapshot state and returns the
// violation keys it then exhibits: the one definition of a replay, shared by
// pooled probes and cold confirmations.
func (rt *Runtime) keysOn(shadow *cluster.Cluster, steps []TraceStep) map[string]bool {
	faults.InstallCodeFaults(shadow.Routers, rt.opts.CodeFaults...)
	replaySteps(shadow, steps, rt.opts.ShadowMaxEvents)
	shadow.Net.RunQuiescent(rt.opts.ShadowMaxEvents)
	out := make(map[string]bool)
	for _, v := range checker.CheckAll(shadow, rt.props).Violations() {
		out[v.Key()] = true
	}
	return out
}

// replayed accounts one executed replay. A failed one yields no keys (so it
// never shortens a trace or sets Reverified) but is counted and traced.
func (rt *Runtime) replayed(ex *epochReplays, cold bool, err error) {
	rt.mu.Lock()
	rt.stats.MinimizeReplays++
	if cold {
		rt.stats.MinimizeColdReplays++
	}
	if err != nil {
		rt.stats.ReplayErrors++
	}
	rt.mu.Unlock()
	if err != nil {
		rt.tracef("epoch %d: minimizer replay failed: %v", ex.ep.Seq, err)
	}
}

// probe replays a trace on a pooled clone of the epoch: the greedy search's
// cheap verdict, equal to a cold one by the pool's reset ≡ cold golden.
func (rt *Runtime) probe(ex *epochReplays, steps []TraceStep) map[string]bool {
	shadow, err := ex.pool.Lease()
	rt.replayed(ex, false, err)
	if err != nil {
		return nil
	}
	defer ex.pool.Release(shadow)
	keys := rt.keysOn(shadow, steps)
	if rt.testProbe != nil {
		keys = rt.testProbe(steps, keys)
	}
	return keys
}

// confirm replays a trace against a cold clone of the epoch — a full
// FromSnapshot rebuild, no pooling, no store shortcuts beyond the immutable
// snapshot itself — once per distinct trace per epoch.
func (rt *Runtime) confirm(ex *epochReplays, steps []TraceStep) map[string]bool {
	var b strings.Builder
	for _, s := range steps {
		fmt.Fprintf(&b, "%q%q%q", s.From, s.To, s.Wire)
	}
	memo := b.String()
	if keys, ok := ex.cold[memo]; ok {
		return keys
	}
	var keys map[string]bool
	shadow, err := cluster.FromSnapshot(rt.topo, ex.ep.Store.Snapshot(), rt.opts.ClusterOptions)
	rt.replayed(ex, true, err)
	if err == nil {
		keys = rt.keysOn(shadow, steps)
	}
	ex.cold[memo] = keys
	return keys
}

// reproduces reports whether replaying the trace on a cold clone reproduces
// the given violation.
func (rt *Runtime) reproduces(ep *checkpoint.Epoch, steps []TraceStep, violationKey string) bool {
	return rt.confirm(rt.replaysOf(ep), steps)[violationKey]
}

// minimize shrinks a single finding's trace; see minimizeGroup.
func (rt *Runtime) minimize(ep *checkpoint.Epoch, f *Finding) {
	rt.minimizeGroup(context.Background(), rt.replaysOf(ep), []*Finding{f})
}

// minimizeGroup greedily shrinks the shared trace of findings co-detected on
// one clone execution: drop each step whose removal still reproduces every
// reverifiable violation of the group, within the probe budget and until ctx
// ends. Minimizing per group rather than per finding amortizes the replays —
// one detecting input often surfaces dozens of violation keys, all with the
// identical trace.
//
// The search runs on pooled clones; only cold verdicts are reported.
// Reverified is true only for a trace a cold replay reproduced, and false
// only when a cold replay of the full trace does not show the violation (the
// detection depended on a counterfactual symbolic choice; the finding keeps
// its original trace). Should a cold confirmation ever contradict the pooled
// search, the group keeps its original trace, cold-verified, and
// MinimizeDisagreements is bumped: never a silently shorter trace.
func (rt *Runtime) minimizeGroup(ctx context.Context, ex *epochReplays, group []*Finding) {
	if rt.opts.MinimizeReplays < 0 || len(group) == 0 {
		return
	}
	original := group[0].Trace
	covers := func(got map[string]bool, fs []*Finding) bool {
		for _, f := range fs {
			if !got[f.Violation.Key()] {
				return false
			}
		}
		return true
	}

	probes, agreed := 1, true
	pooled := rt.probe(ex, original)
	full := pooled
	if !covers(pooled, group) {
		full = rt.confirm(ex, original) // Reverified=false must be a cold fact too
	}
	var verifiable []*Finding
	for _, f := range group {
		agreed = agreed && pooled[f.Violation.Key()] == full[f.Violation.Key()]
		if full[f.Violation.Key()] {
			verifiable = append(verifiable, f)
		} else {
			f.Reverified = false
		}
	}
	if len(verifiable) == 0 {
		return
	}
	steps := cloneSteps(original)
	for i := 0; agreed && i < len(steps) && probes < rt.opts.MinimizeReplays && ctx.Err() == nil; probes++ {
		candidate := append(cloneSteps(steps[:i]), cloneSteps(steps[i+1:])...)
		if covers(rt.probe(ex, candidate), verifiable) {
			steps = candidate
		} else {
			i++
		}
	}
	confirmed := rt.confirm(ex, steps)
	if !agreed || !covers(confirmed, verifiable) {
		steps = cloneSteps(original)
		confirmed = rt.confirm(ex, steps)
		rt.mu.Lock()
		rt.stats.MinimizeDisagreements++
		rt.mu.Unlock()
		rt.tracef("epoch %d: cold replay contradicted the pooled search; %d findings keep their original trace", ex.ep.Seq, len(verifiable))
	}
	// The joint pass minimizes to the union requirement: a steady-state
	// violation grouped with an input-dependent one keeps whatever steps its
	// groupmates need. One cold replay of the empty trace per epoch refines
	// that — any finding the cold clone already exhibits gets the empty
	// trace, its true minimum, no matter what it was co-detected with.
	var steady map[string]bool
	if len(steps) > 0 {
		steady = rt.confirm(ex, nil)
	}
	for _, f := range verifiable {
		if steady[f.Violation.Key()] {
			f.Trace = nil
		} else {
			f.Trace = cloneSteps(steps)
		}
		f.Reverified = steady[f.Violation.Key()] || confirmed[f.Violation.Key()]
	}
}
