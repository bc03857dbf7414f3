// Package dice is the public API of the DiCE reproduction: online testing of
// federated and heterogeneous distributed systems (Canini et al., SIGCOMM'11
// demo), rebuilt as a self-contained Go library around an emulated BGP
// deployment.
//
// The package re-exports the pieces a user composes:
//
//   - Topologies (package internal/topology) describe routers, autonomous
//     systems, originated prefixes and link relationships; Demo27 is the
//     27-router topology from the paper's Figure 1.
//   - Deployments (package internal/cluster) turn a topology into running,
//     emulated BIRD-like BGP routers (package internal/bird) on a
//     deterministic virtual-time network (package internal/netem).
//   - Faults (package internal/faults) plant the paper's three fault
//     classes: operator mistakes, policy conflicts, programming errors.
//   - The Campaign (package internal/dice) runs the DiCE workflow online: a
//     Strategy plans (explorer, peer) exploration units, a worker pool
//     executes concolic + grammar-fuzzed exploration of cloned snapshots in
//     parallel, detections stream out as events, and property checking goes
//     through a narrow information-sharing interface (package
//     internal/checker).
//
// The experiment harness (experiments.go) regenerates every evaluation
// artifact described in the paper; see EXPERIMENTS.md for the mapping.
package dice

import (
	"time"

	"github.com/dice-project/dice/internal/agent"
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/control"
	"github.com/dice-project/dice/internal/dice"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/federation"
	"github.com/dice-project/dice/internal/live"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/topology"
)

// Re-exported topology constructors.
var (
	// Demo27 builds the paper's 27-router demo topology.
	Demo27 = topology.Demo27
	// Demo27Hetero builds the mixed-implementation demo variant: bird
	// transit tiers, frr stubs.
	Demo27Hetero = topology.Demo27Hetero
	// GaoRexford builds a random Internet-like topology.
	GaoRexford = topology.GaoRexford
	// Line, Ring, Clique and Star build small regular topologies.
	Line   = topology.Line
	Ring   = topology.Ring
	Clique = topology.Clique
	Star   = topology.Star
)

// Heterogeneous backends — deployments that mix router implementations, the
// paper's heterogeneity scenario. Topology nodes carry an implementation tag
// (Topology.SetImpl; empty selects the default bird backend), the cluster
// builds each node with its registered backend, and the
// CrossImplDivergence property flags nodes whose best-path selection
// depends on the implementation they run.
type (
	// RouterBackend describes one registered router implementation.
	RouterBackend = node.Backend
	// RouterNode is the behavioral interface every backend implements.
	RouterNode = node.Router
)

var (
	// RouterImplementations lists the registered backend names.
	RouterImplementations = node.Implementations
)

// CrossImplDivergence is the differential conformance property for
// heterogeneous deployments.
type CrossImplDivergence = checker.CrossImplDivergence

// Topology describes the routers, ASes and links of a deployment.
type Topology = topology.Topology

// Deployment is a running emulated cluster of BGP routers.
type Deployment = cluster.Cluster

// DeployOptions configure how a topology is instantiated.
type DeployOptions = cluster.Options

// Deploy builds the routers for a topology and returns the deployment
// (unconverged; call Converge).
func Deploy(topo *Topology, opts DeployOptions) (*Deployment, error) {
	return cluster.Build(topo, opts)
}

// Campaign API — the primary way to run DiCE. A campaign plans exploration
// units via a Strategy, executes their clone runs in parallel on a worker
// pool, honors context cancellation, and streams detections while running.
type (
	// Campaign orchestrates online exploration of a deployment.
	Campaign = dice.Campaign
	// CampaignOption configures a Campaign at construction.
	CampaignOption = dice.CampaignOption
	// CampaignResult aggregates a finished (or cancelled) campaign.
	CampaignResult = dice.CampaignResult
	// Budget bounds a campaign's total inputs and wall-clock duration.
	Budget = dice.Budget
	// Strategy plans the (explorer, peer) units a campaign runs.
	Strategy = dice.Strategy
	// Unit is one schedulable (explorer, peer) piece of exploration work.
	Unit = dice.Unit
	// Event is one streamed campaign occurrence.
	Event = dice.Event
	// EventKind discriminates streamed campaign events.
	EventKind = dice.EventKind
)

// Campaign construction options.
var (
	// WithExplorers sets the explorer node set the strategy plans over.
	WithExplorers = dice.WithExplorers
	// WithStrategy sets the planning strategy (degree-based by default).
	WithStrategy = dice.WithStrategy
	// WithUnits pins the exact (explorer, peer) units, bypassing planning.
	WithUnits = dice.WithUnits
	// WithWorkers bounds how many clone executions run in parallel.
	WithWorkers = dice.WithWorkers
	// WithBudget bounds total inputs and wall-clock duration.
	WithBudget = dice.WithBudget
	// WithSeed sets the campaign seed (per-unit seeds derive from it).
	WithSeed = dice.WithSeed
	// WithFuzzSeeds sets the grammar-fuzzed seed corpus size per unit.
	WithFuzzSeeds = dice.WithFuzzSeeds
	// WithConcolic toggles concolic input derivation (on by default).
	WithConcolic = dice.WithConcolic
	// WithPooledClones toggles the pooled shadow-cluster runtime (on by
	// default); disabling it cold-rebuilds a clone per explored input.
	WithPooledClones = dice.WithPooledClones
	// WithProperties sets the checked properties.
	WithProperties = dice.WithProperties
	// WithCodeFaults installs code faults on every shadow clone.
	WithCodeFaults = dice.WithCodeFaults
	// WithClusterOptions sets the options for restored shadow clusters.
	WithClusterOptions = dice.WithClusterOptions
	// WithShadowMaxEvents bounds each clone run.
	WithShadowMaxEvents = dice.WithShadowMaxEvents
	// WithEventBuffer sets the Events channel buffer.
	WithEventBuffer = dice.WithEventBuffer
	// WithOnEvent registers a synchronous event callback.
	WithOnEvent = dice.WithOnEvent
	// WithFederation splits the campaign along administrative-domain
	// boundaries: per-domain planning, domain-scoped checking, and
	// checker.Summary digests as the only cross-domain traffic.
	WithFederation = dice.WithFederation
)

// Federation — testing a deployment as a federation of administrative
// domains, the paper's defining scenario. Partition a topology, hand the
// partition to WithFederation, and the campaign's CampaignResult reports
// Disclosed bytes plus a per-domain breakdown.
type (
	// Domain is one administrative domain: a named set of routers.
	Domain = federation.Domain
	// Partition assigns every router to exactly one domain.
	Partition = federation.Partition
	// DisclosureStats aggregates the summaries (and bytes) that crossed
	// domain boundaries during a federated campaign.
	DisclosureStats = dice.DisclosureStats
	// DomainResult is one domain's slice of a federated campaign result.
	DomainResult = dice.DomainResult
	// Summary is the only message type exchanged between domains: digests
	// of local check outcomes, never configurations or route state.
	Summary = checker.Summary
	// ViolationDigest is the privacy-filtered projection of a Violation.
	ViolationDigest = checker.ViolationDigest
	// ForwardingEdge is one (node, prefix, next-hop) entry of the minimized
	// forwarding projection exchanged for cross-domain loop checking.
	ForwardingEdge = checker.ForwardingEdge
)

// Partition constructors.
var (
	// PartitionByAS makes every autonomous system its own domain (the
	// paper's federation model).
	PartitionByAS = federation.PartitionByAS
	// PartitionByTier groups routers into one domain per topology tier.
	PartitionByTier = federation.PartitionByTier
	// NewPartition builds a partition from explicit domains.
	NewPartition = federation.NewPartition
)

// Exploration strategies.
type (
	// DegreeStrategy explores from the highest-degree router(s).
	DegreeStrategy = dice.DegreeStrategy
	// RoundRobinStrategy cycles explorers and their peers over a fixed
	// number of units.
	RoundRobinStrategy = dice.RoundRobinStrategy
	// AllNodesStrategy explores every router of the topology.
	AllNodesStrategy = dice.AllNodesStrategy
)

// Event kinds streamed by Campaign.Events.
const (
	EventCampaignStart = dice.EventCampaignStart
	EventSnapshot      = dice.EventSnapshot
	EventUnitStart     = dice.EventUnitStart
	EventDetection     = dice.EventDetection
	EventSummary       = dice.EventSummary
	EventUnitEnd       = dice.EventUnitEnd
	EventCampaignEnd   = dice.EventCampaignEnd
)

// NewCampaign returns a campaign over the deployed cluster. Subscribe with
// Events, then call Run(ctx) once; detections stream before Run returns.
func NewCampaign(live *Deployment, topo *Topology, opts ...CampaignOption) *Campaign {
	return dice.NewCampaign(live, topo, opts...)
}

// Live mode — the paper's defining "online" scenario as a runtime: attach to
// a deployment carrying live traffic, checkpoint it periodically into a
// rolling epoch ring, and soak each fresh epoch with scheduler-drawn shadow
// campaigns under a resource governor. Detections land in a LiveReport with
// per-epoch provenance and a minimized, cold-clone-re-verified trace.
type (
	// LiveRuntime is the online shadow-testing runtime.
	LiveRuntime = live.Runtime
	// LiveOptions configure a live runtime (traffic, governor, exploration).
	LiveOptions = live.Options
	// LiveStats aggregates a soak's counters (pauses, deltas, dedupe, overhead).
	LiveStats = live.Stats
	// LiveEpochSummary is one epoch's row of soak history (LiveOptions.OnEpoch).
	LiveEpochSummary = live.EpochSummary
	// LiveReport is the soak's violation store.
	LiveReport = live.Report
	// LiveFinding is one detection with epoch/scenario provenance and its
	// minimized replayable trace.
	LiveFinding = live.Finding
	// LiveTraceStep is one injected message of a finding's trace.
	LiveTraceStep = live.TraceStep
	// LiveScheduler is the adaptive weighted scenario queue.
	LiveScheduler = live.Scheduler
	// LivePathCache is the persistable cross-epoch path-dedupe cache.
	LivePathCache = live.PathCache
	// TrafficDriver injects an epoch's live traffic into the deployment.
	TrafficDriver = live.TrafficDriver
	// ChurnScenario is a named churn generator the live scheduler draws
	// (link flap, session reset, prefix churn, staged policy updates, ...).
	ChurnScenario = faults.Scenario
	// EpochRing is the bounded, delta-measured checkpoint history.
	EpochRing = checkpoint.Ring
	// Epoch is one entry of the ring.
	Epoch = checkpoint.Epoch
)

var (
	// NewLiveRuntime attaches a live runtime to a deployment.
	NewLiveRuntime = live.NewRuntime
	// DefaultTraffic builds the default background-churn traffic driver.
	DefaultTraffic = live.DefaultTraffic
	// NewLivePathCache builds an empty dedupe cache (persist with Save/Load).
	NewLivePathCache = live.NewPathCache
	// LiveScenarios builds the default churn-scenario set for a topology.
	LiveScenarios = faults.Scenarios
	// FaultCatalog returns a prototype of every registered fault and
	// scenario, the stable name/class registry the scheduler keys on.
	FaultCatalog = faults.Catalog
	// WithSnapshotStore runs a campaign against a pre-taken epoch store
	// instead of snapshotting the live cluster (the campaign-from-epoch
	// entry point the live runtime uses).
	WithSnapshotStore = dice.WithSnapshotStore
	// WithClonePrelude primes every shadow clone before its explored input.
	WithClonePrelude = dice.WithClonePrelude
)

// Result is the outcome of one exploration unit.
type Result = dice.Result

// Detection is one detected fault.
type Detection = dice.Detection

// Fault classes (the paper's three, plus the divergence class heterogeneous
// deployments add).
const (
	OperatorMistake  = checker.ClassOperatorMistake
	PolicyConflict   = checker.ClassPolicyConflict
	ProgrammingError = checker.ClassProgrammingError
	ImplDivergence   = checker.ClassImplDivergence
)

// FaultClass identifies one of the paper's fault classes.
type FaultClass = checker.FaultClass

// Properties and checking.
type (
	// Property is a checkable system property.
	Property = checker.Property
	// Violation is a concrete property violation.
	Violation = checker.Violation
)

// DefaultProperties returns the standard property set for a topology.
func DefaultProperties(topo *Topology) []Property { return checker.DefaultProperties(topo) }

// CheckDeployment evaluates the properties directly against the deployed
// cluster (DiCE normally checks explored clones instead).
func CheckDeployment(d *Deployment, props []Property) []Violation {
	return checker.CheckAll(d, props).Violations()
}

// Fault injection re-exports.
type (
	// ConfigFault is a configuration-level fault (operator mistake or policy
	// conflict).
	ConfigFault = faults.ConfigFault
	// CodeFault is a code-level fault (programming error).
	CodeFault = faults.CodeFault
)

// Operator mistakes, policy conflicts and programming errors.
var (
	// ApplyConfigFaults adapts config faults into a DeployOptions override.
	ApplyConfigFaults = faults.ApplyConfigFaults
	// InstallCodeFaults installs handler bugs on deployed routers.
	InstallCodeFaults = faults.InstallCodeFaults
	// CommunityCrash, LongPathCrash, MEDZeroCrash and DroppedWithdrawals
	// build canned programming errors.
	CommunityCrash     = faults.CommunityCrash
	LongPathCrash      = faults.LongPathCrash
	MEDZeroCrash       = faults.MEDZeroCrash
	DroppedWithdrawals = faults.DroppedWithdrawals
)

// MisOrigination is the prefix-hijack operator mistake.
type MisOrigination = faults.MisOrigination

// MissingImportFilter is the latent missing-filter operator mistake.
type MissingImportFilter = faults.MissingImportFilter

// DisputeWheel is the policy-conflict fault.
type DisputeWheel = faults.DisputeWheel

// Snapshot is a consistent cut of a deployment: per-node checkpoints plus
// the in-flight channel state.
type Snapshot = checkpoint.Snapshot

// SnapshotStore holds a snapshot in decoded, restore-ready form: immutable
// per-node router images plus decoded baseline state, built once and shared
// by every clone. Campaigns construct one internally; it is exported for
// custom clone runtimes.
type SnapshotStore = checkpoint.Store

// NewSnapshotStore decodes a snapshot into a restore-ready store.
func NewSnapshotStore(s *Snapshot) (*SnapshotStore, error) { return checkpoint.NewStore(s) }

// ClonePool is the pooled shadow-cluster runtime: workers lease clones that
// are rewound to the snapshot in place instead of rebuilt.
type ClonePool = cluster.ClonePool

// NewClonePool returns a clone pool over a snapshot store.
func NewClonePool(topo *Topology, store *SnapshotStore, opts DeployOptions) *ClonePool {
	return cluster.NewClonePool(topo, store, opts)
}

// ClonePoolStats summarizes clone-lifecycle activity: cold builds vs
// in-place resets and their cumulative cost.
type ClonePoolStats = cluster.PoolStats

// EncodeSnapshot serializes a snapshot (re-exported from
// internal/checkpoint); the experiments report its length as the snapshot
// footprint.
func EncodeSnapshot(s *Snapshot) ([]byte, error) { return checkpoint.Encode(s) }

// Convenience wrappers.

// ConvergeAndSnapshotSize converges a deployment and returns how long the
// snapshot of its state takes and how many bytes it occupies.
func ConvergeAndSnapshotSize(d *Deployment) (time.Duration, int, error) {
	d.Converge()
	start := time.Now()
	snap := d.Snapshot()
	elapsed := time.Since(start)
	data, err := EncodeSnapshot(snap)
	if err != nil {
		return 0, 0, err
	}
	return elapsed, len(data), nil
}

// Distributed execution — running one campaign's clone fan-out across
// dice-agent processes coordinated by a dice-control plane. The control
// plane shards the planned units, leases shards to registered agents with
// heartbeat-renewed expiry (lost agents' shards are reassigned), ships each
// shard as a snapshot delta against a baseline the agent fetched once, and
// aggregates only checker.Summary results back — the federation privacy
// boundary becomes the wire protocol.
type (
	// Controller is the campaign-side control plane; it implements
	// RemoteExecutor, so hand it to WithRemoteExecution.
	Controller = control.Controller
	// ControllerConfig configures a Controller (shard size, lease TTL,
	// minimum agent count, attempt cap).
	ControllerConfig = control.Config
	// Agent executes leased shards against a control plane, reusing the
	// campaign/clone-pool machinery locally.
	Agent = agent.Agent
	// AgentConfig configures an Agent (name, control URL, workers, poll
	// interval).
	AgentConfig = agent.Config
	// RemoteExecutor executes a campaign's planned units remotely; the
	// campaign keeps planning, snapshotting, dedup and aggregation local.
	RemoteExecutor = dice.RemoteExecutor
	// RemoteExecStats accounts the distributed run: shards, agents,
	// reassignments, and baseline/shard/result wire bytes.
	RemoteExecStats = dice.RemoteStats
)

var (
	// NewController builds a campaign-side control plane.
	NewController = control.NewController
	// NewControlHandler exposes a Controller over HTTP; agents dial it
	// outbound (serve it with net/http, or wrap it with NewInProcessClient
	// for same-process agents).
	NewControlHandler = control.NewHandler
	// NewInProcessClient adapts a control handler into an http.Client
	// whose transport dispatches in process through the identical frame
	// encoding as TCP.
	NewInProcessClient = control.InProcessClient
	// NewAgent builds a shard-executing agent.
	NewAgent = agent.New
	// WithRemoteExecution routes a campaign's unit execution through a
	// RemoteExecutor instead of the in-process worker pool.
	WithRemoteExecution = dice.WithRemoteExecution
)
