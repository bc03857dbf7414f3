package control

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/dice"
	"github.com/dice-project/dice/internal/topology"
)

// Config parameterizes a Controller.
type Config struct {
	// Campaign names the campaign in Welcome messages and logs.
	Campaign string
	// MinAgents gates shard leasing: no shard is granted until this many
	// agents have registered (zero behaves as one). The campaign does not
	// fail below the floor — leasing just waits.
	MinAgents int
	// UnitsPerShard bounds shard size (dice.PlanShards semantics; zero or
	// negative selects 1, the cheapest unit to reassign).
	UnitsPerShard int
	// LeaseTTL is how long a shard lease lives without a heartbeat before
	// its shards are reassigned (default 10s). HeartbeatEvery is the cadence
	// told to agents (default LeaseTTL/3).
	LeaseTTL       time.Duration
	HeartbeatEvery time.Duration
	// MaxShardAttempts bounds how often one shard may be (re)leased before
	// its units are failed (default 5).
	MaxShardAttempts int
	// BaselineStore, when set, is the snapshot baseline agents fetch; shard
	// leases then ship the campaign cut as a delta against it. Nil makes the
	// campaign cut itself the baseline (empty per-shard deltas).
	BaselineStore *checkpoint.Store
	// Clock injects time for tests; nil selects time.Now.
	Clock func() time.Time
	// Logf, when set, receives control-plane progress lines.
	Logf func(format string, args ...any)
}

const (
	shardPending = iota
	shardLeased
	shardDone
)

type shardState struct {
	shard   dice.Shard
	state   int
	agent   string
	attempt int
	expiry  time.Time
}

type agentState struct {
	id       string
	name     string
	backends []string
	workers  int
	// shards the agent currently holds, renewed as one by its heartbeat.
	shards map[int]bool
	// lastSeen is the controller-clock time of the agent's last request of
	// any kind — what AgentHeartbeatAges measures staleness against.
	lastSeen time.Time
}

// campaignRun is the controller's view of one ExecuteUnits invocation.
type campaignRun struct {
	ctx       context.Context
	topo      *topology.Topology
	spec      dice.RemoteSpec
	sink      dice.RemoteSink
	baseline  Baseline
	baseStore *checkpoint.Store
	delta     checkpoint.SnapshotDelta
	shards    []*shardState
	remaining int
	finished  chan struct{}
	// cancelled (set under the controller lock) stops new results from being
	// accepted; inflight counts sink callbacks still running, so
	// ExecuteUnits never returns while a callback is mid-flight.
	cancelled bool
	inflight  sync.WaitGroup
}

// Controller is the distributed campaign scheduler. It serves agents through
// NewHandler's HTTP endpoints (agents always dial outbound) and plugs into a
// dice.Campaign as its RemoteExecutor: Run hands it the planned units, the
// controller shards and leases them out, and completed shard results stream
// back into the campaign's own merge machinery.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	agents   map[string]*agentState
	agentSeq int
	run      *campaignRun
	// done marks that a campaign ran to completion (or was cancelled) and no
	// new one has started — agents polling for leases are told to exit.
	done  bool
	stats dice.RemoteStats
	// agentsEverLeased names agents that held at least one lease — reported
	// by AgentShardCounts for smoke assertions.
	shardsByAgent map[string]int
	// drained names agents whose lease poll has already been answered with
	// Done — they are exiting through the protocol, so the control process
	// can close its listener without cutting them off mid-poll.
	drained map[string]bool
}

// NewController returns a controller ready to serve agents; start the
// campaign by passing it to dice.WithRemoteExecution.
func NewController(cfg Config) *Controller {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = cfg.LeaseTTL / 3
	}
	if cfg.MaxShardAttempts <= 0 {
		cfg.MaxShardAttempts = 5
	}
	if cfg.MinAgents <= 0 {
		cfg.MinAgents = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Controller{
		cfg:           cfg,
		agents:        make(map[string]*agentState),
		shardsByAgent: make(map[string]int),
		drained:       make(map[string]bool),
	}
}

func (c *Controller) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Register admits an agent and returns its Welcome.
func (c *Controller) Register(h *Hello) *Welcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.agentSeq++
	id := fmt.Sprintf("agent-%d", c.agentSeq)
	c.agents[id] = &agentState{
		id:       id,
		name:     h.Agent,
		backends: append([]string(nil), h.Backends...),
		workers:  h.Workers,
		shards:   make(map[int]bool),
		lastSeen: c.cfg.Clock(),
	}
	c.stats.Agents++
	c.logf("control: registered %s (%q, %d workers)", id, h.Agent, h.Workers)
	return &Welcome{
		AgentID:        id,
		Campaign:       c.cfg.Campaign,
		HeartbeatEvery: c.cfg.HeartbeatEvery,
		LeaseTTL:       c.cfg.LeaseTTL,
	}
}

// ErrNoCampaign answers baseline requests that arrive before ExecuteUnits
// has started a campaign; agents retry.
var ErrNoCampaign = errors.New("control: no campaign running")

// BaselinePayload returns the campaign baseline for an agent's one-time
// fetch.
func (c *Controller) BaselinePayload(req *BaselineRequest) (*Baseline, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.run == nil {
		return nil, ErrNoCampaign
	}
	ag := c.agents[req.AgentID]
	if ag == nil {
		return nil, fmt.Errorf("control: unknown agent %q", req.AgentID)
	}
	ag.lastSeen = c.cfg.Clock()
	return &c.run.baseline, nil
}

// sent accounts a frame of n bytes about to leave for an agent. Only the
// kinds RemoteStats breaks out are counted: baselines and shard leases.
func (c *Controller) sent(msg any, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch msg.(type) {
	case *Baseline:
		c.stats.BaselineBytes += n
	case *Lease:
		c.stats.ShardBytes += n
	}
}

// LeaseNext grants the next pending shard to the agent, or NoWork when
// nothing is assignable (campaign not started, agent floor not met, all
// shards leased or done). The returned message is *Lease or *NoWork.
func (c *Controller) LeaseNext(req *LeaseRequest) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	run := c.run
	if run == nil {
		if c.done {
			c.drained[req.AgentID] = true
		}
		return &NoWork{Done: c.done}, nil
	}
	if run.remaining == 0 || run.ctx.Err() != nil {
		c.drained[req.AgentID] = true
		return &NoWork{Done: true}, nil
	}
	ag := c.agents[req.AgentID]
	if ag == nil {
		return nil, fmt.Errorf("control: unknown agent %q", req.AgentID)
	}
	ag.lastSeen = c.cfg.Clock()
	if len(c.agents) < c.cfg.MinAgents {
		return &NoWork{}, nil
	}
	for _, ss := range run.shards {
		if ss.state != shardPending {
			continue
		}
		ss.state = shardLeased
		ss.agent = req.AgentID
		ss.attempt++
		ss.expiry = c.cfg.Clock().Add(c.cfg.LeaseTTL)
		ag.shards[ss.shard.ID] = true
		c.shardsByAgent[req.AgentID]++
		lease := &Lease{
			Shard:       ss.shard.ID,
			Attempt:     ss.attempt,
			UnitIndexes: append([]int(nil), ss.shard.UnitIndexes...),
			Units:       append([]dice.Unit(nil), ss.shard.Units...),
			Delta:       run.delta,
		}
		c.logf("control: leased shard %d (%d units, attempt %d) to %s",
			ss.shard.ID, len(ss.shard.Units), ss.attempt, req.AgentID)
		return lease, nil
	}
	return &NoWork{}, nil
}

// HeartbeatRenew extends every lease the agent holds.
func (c *Controller) HeartbeatRenew(hb *Heartbeat) (*HeartbeatAck, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ag := c.agents[hb.AgentID]
	if ag == nil {
		return nil, fmt.Errorf("control: unknown agent %q", hb.AgentID)
	}
	ag.lastSeen = c.cfg.Clock()
	ack := &HeartbeatAck{}
	if c.run == nil {
		// A finished campaign cancels any straggler still executing a shard.
		ack.Cancel = c.done
		return ack, nil
	}
	if c.run.ctx.Err() != nil {
		ack.Cancel = true
		return ack, nil
	}
	expiry := c.cfg.Clock().Add(c.cfg.LeaseTTL)
	for id := range ag.shards {
		ss := c.run.shards[id]
		if ss.state == shardLeased && ss.agent == hb.AgentID {
			ss.expiry = expiry
		}
	}
	return ack, nil
}

// SubmitResult accepts a completed shard, rejecting results from superseded
// lease attempts so a slow former owner cannot double-report after
// reassignment. Accepted results stream into the campaign sink, and their
// frameBytes — the size the result's frame had on the wire — into
// RemoteStats.ResultBytes.
func (c *Controller) SubmitResult(sr *ShardResult, frameBytes int) (*ResultAck, error) {
	c.mu.Lock()
	run := c.run
	if run == nil || run.cancelled || sr.Shard < 0 || sr.Shard >= len(run.shards) {
		c.mu.Unlock()
		return &ResultAck{}, nil
	}
	ss := run.shards[sr.Shard]
	// A result is current if it answers the live attempt — whether the lease
	// is still held or just expired back to pending (the worker finished,
	// only its heartbeat was late). Anything else is stale.
	if ss.state == shardDone || ss.attempt != sr.Attempt ||
		(ss.state == shardLeased && ss.agent != sr.AgentID) {
		c.mu.Unlock()
		c.logf("control: rejected stale result for shard %d attempt %d from %s", sr.Shard, sr.Attempt, sr.AgentID)
		return &ResultAck{}, nil
	}
	ss.state = shardDone
	if ag := c.agents[ss.agent]; ag != nil {
		delete(ag.shards, ss.shard.ID)
	}
	if ag := c.agents[sr.AgentID]; ag != nil {
		ag.lastSeen = c.cfg.Clock()
	}
	c.stats.ResultBytes += frameBytes
	sink := run.sink
	run.inflight.Add(1)
	c.mu.Unlock()

	// Callbacks run outside the lock: the sink feeds the campaign's event
	// stream, which may block on a slow consumer.
	for _, ur := range sr.Units {
		var err error
		if ur.Err != "" {
			err = errors.New(ur.Err)
		}
		sink.UnitDone(ur.Index, ur.Result.Result(), err)
	}
	if sink.Envelope != nil {
		for _, env := range sr.Envelopes {
			sink.Envelope(env)
		}
	}
	c.logf("control: shard %d done (%d units) from %s", sr.Shard, len(sr.Units), sr.AgentID)

	c.mu.Lock()
	run.remaining--
	if run.remaining == 0 {
		close(run.finished)
	}
	c.mu.Unlock()
	run.inflight.Done()
	return &ResultAck{Accepted: true}, nil
}

// sweep reassigns the shards of agents whose leases expired, failing shards
// that exhausted their attempts. Called periodically by ExecuteUnits; tests
// drive it directly with an injected clock.
func (c *Controller) sweep() {
	now := c.cfg.Clock()
	type failed struct {
		shard dice.Shard
		err   error
	}
	var failures []failed
	c.mu.Lock()
	run := c.run
	if run == nil || run.cancelled {
		c.mu.Unlock()
		return
	}
	sink := run.sink
	for _, ss := range run.shards {
		if ss.state != shardLeased || now.Before(ss.expiry) {
			continue
		}
		lost := ss.agent
		if ag := c.agents[lost]; ag != nil {
			delete(ag.shards, ss.shard.ID)
		}
		if ss.attempt >= c.cfg.MaxShardAttempts {
			ss.state = shardDone
			c.stats.Abandoned++
			failures = append(failures, failed{
				shard: ss.shard,
				err:   fmt.Errorf("control: shard %d abandoned after %d lease attempts (last agent %s)", ss.shard.ID, ss.attempt, lost),
			})
			continue
		}
		ss.state = shardPending
		ss.agent = ""
		c.stats.Reassigned++
		c.logf("control: lease on shard %d by %s expired; reassigning", ss.shard.ID, lost)
	}
	if len(failures) > 0 {
		run.inflight.Add(1)
	}
	c.mu.Unlock()
	if len(failures) == 0 {
		return
	}
	for _, f := range failures {
		for _, idx := range f.shard.UnitIndexes {
			sink.UnitDone(idx, nil, f.err)
		}
	}
	c.mu.Lock()
	run.remaining -= len(failures)
	if run.remaining == 0 {
		close(run.finished)
	}
	c.mu.Unlock()
	run.inflight.Done()
}

// ExecuteUnits implements dice.RemoteExecutor: shard the plan, serve leases
// until every shard is done (reassigning as agents die), and return once all
// results have streamed into the sink.
func (c *Controller) ExecuteUnits(ctx context.Context, topo *topology.Topology, snap *checkpoint.Snapshot, spec dice.RemoteSpec, units []dice.Unit, sink dice.RemoteSink) error {
	baseStore := c.cfg.BaselineStore
	if baseStore == nil {
		var err error
		baseStore, err = checkpoint.NewStore(snap)
		if err != nil {
			return fmt.Errorf("control: baseline store: %w", err)
		}
	}
	baseSnap := baseStore.Snapshot()
	encoded, err := checkpoint.Encode(baseSnap)
	if err != nil {
		return fmt.Errorf("control: encode baseline: %w", err)
	}
	delta, err := baseStore.DiffSnapshot(snap)
	if err != nil {
		return fmt.Errorf("control: delta against baseline: %w", err)
	}
	shards := dice.PlanShards(units, c.cfg.UnitsPerShard)
	run := &campaignRun{
		ctx:  ctx,
		topo: topo,
		spec: spec,
		sink: sink,
		baseline: Baseline{
			Campaign:       c.cfg.Campaign,
			Topo:           *topo,
			Snapshot:       encoded,
			SnapshotSHA256: checkpoint.HashBytes(encoded),
			Spec:           spec,
		},
		baseStore: baseStore,
		delta:     *delta,
		shards:    make([]*shardState, len(shards)),
		remaining: len(shards),
		finished:  make(chan struct{}),
	}
	for i, sh := range shards {
		run.shards[i] = &shardState{shard: sh}
	}

	c.mu.Lock()
	if c.run != nil {
		c.mu.Unlock()
		return errors.New("control: a campaign is already executing")
	}
	c.run = run
	c.done = false
	c.drained = make(map[string]bool)
	c.stats.Shards = len(shards)
	c.mu.Unlock()
	c.logf("control: campaign %q: %d units in %d shards", c.cfg.Campaign, len(units), len(shards))

	sweepEvery := c.cfg.LeaseTTL / 4
	if sweepEvery < 5*time.Millisecond {
		sweepEvery = 5 * time.Millisecond
	}
	ticker := time.NewTicker(sweepEvery)
	defer ticker.Stop()
	defer func() {
		c.mu.Lock()
		c.run = nil
		c.done = true
		c.mu.Unlock()
	}()
	for {
		select {
		case <-ctx.Done():
			// Stop accepting results, then wait out callbacks already past
			// the gate so the campaign never races a late sink call.
			c.mu.Lock()
			run.cancelled = true
			c.mu.Unlock()
			run.inflight.Wait()
			return ctx.Err()
		case <-run.finished:
			return nil
		case <-ticker.C:
			c.sweep()
		}
	}
}

// RemoteStats implements dice.RemoteExecutor.
func (c *Controller) RemoteStats() dice.RemoteStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// AgentNames maps agent IDs to the display names they registered with.
func (c *Controller) AgentNames() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.agents))
	for id, ag := range c.agents {
		out[id] = ag.name
	}
	return out
}

// AgentHeartbeatAges reports, per agent ID, how long ago (by the
// controller's clock) the agent was last heard from — through any request,
// not just heartbeats. The metrics layer exposes these as staleness gauges.
func (c *Controller) AgentHeartbeatAges() map[string]time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock()
	out := make(map[string]time.Duration, len(c.agents))
	for id, ag := range c.agents {
		out[id] = now.Sub(ag.lastSeen)
	}
	return out
}

// AgentShardCounts reports how many shard leases each agent ID was granted —
// the distribution smoke tests assert every agent actually worked.
func (c *Controller) AgentShardCounts() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.shardsByAgent))
	for k, v := range c.shardsByAgent {
		out[k] = v
	}
	return out
}

// AwaitDrain blocks until every registered agent has observed the
// campaign-done signal through a lease poll, or the timeout elapses. The
// control process calls this before closing its listener: shutting the
// socket earlier turns an agent's next poll into a connection reset and a
// spurious nonzero exit. Returns false if some agent never drained — a
// killed or partitioned agent, which the caller may report but not wait
// on forever.
func (c *Controller) AwaitDrain(timeout time.Duration) bool {
	// Real time, not cfg.Clock: the wait paces on time.Sleep, and a test
	// clock that never advances would otherwise spin forever.
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		pending := 0
		for id := range c.agents {
			if !c.drained[id] {
				pending++
			}
		}
		c.mu.Unlock()
		if pending == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}
