package control

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/dice"
	"github.com/dice-project/dice/internal/topology"
)

// testClock is a hand-driven clock for lease-expiry tests.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock { return &testClock{now: time.Unix(1000, 0)} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// recordingSink captures UnitDone calls.
type recordingSink struct {
	mu    sync.Mutex
	calls map[int]int
	errs  map[int]error
}

func newRecordingSink() *recordingSink {
	return &recordingSink{calls: make(map[int]int), errs: make(map[int]error)}
}

func (s *recordingSink) sink() dice.RemoteSink {
	return dice.RemoteSink{UnitDone: func(i int, r *dice.Result, err error) {
		s.mu.Lock()
		s.calls[i]++
		s.errs[i] = err
		s.mu.Unlock()
	}}
}

func testUnits(n int) []dice.Unit {
	units := make([]dice.Unit, n)
	for i := range units {
		units[i] = dice.Unit{Explorer: "R1", FromPeer: "R2", MaxInputs: 1, FuzzSeeds: 1, Seed: int64(i + 1)}
	}
	return units
}

func testSnapshot(t *testing.T) (*topology.Topology, *checkpoint.Snapshot) {
	t.Helper()
	topo := topology.Line(2)
	c := cluster.MustBuild(topo, cluster.Options{Seed: 1})
	c.Converge()
	return topo, c.Snapshot()
}

// TestControllerLeaseExpiryAndReassignment drives the full lease lifecycle
// with a hand clock: grant, expire, reassign, reject the stale attempt,
// accept the fresh one.
func TestControllerLeaseExpiryAndReassignment(t *testing.T) {
	topo, snap := testSnapshot(t)
	clock := newTestClock()
	c := NewController(Config{
		Campaign:      "test",
		MinAgents:     2,
		UnitsPerShard: 2,
		LeaseTTL:      10 * time.Second,
		Clock:         clock.Now,
	})

	// No campaign yet: baseline unavailable, lease says "not yet".
	wa := c.Register(&Hello{Agent: "a", Workers: 1})
	if _, err := c.BaselinePayload(&BaselineRequest{AgentID: wa.AgentID}); !errors.Is(err, ErrNoCampaign) {
		t.Fatalf("baseline before campaign: %v, want ErrNoCampaign", err)
	}
	if msg, err := c.LeaseNext(&LeaseRequest{AgentID: wa.AgentID}); err != nil {
		t.Fatal(err)
	} else if nw, ok := msg.(*NoWork); !ok || nw.Done {
		t.Fatalf("lease before campaign = %+v, want NoWork{Done:false}", msg)
	}

	rec := newRecordingSink()
	execDone := make(chan error, 1)
	go func() {
		execDone <- c.ExecuteUnits(context.Background(), topo, snap, dice.RemoteSpec{Seed: 1}, testUnits(4), rec.sink())
	}()
	waitForRun(t, c)

	// MinAgents=2 gates leasing until a second agent registers.
	if msg, _ := c.LeaseNext(&LeaseRequest{AgentID: wa.AgentID}); !isIdleNoWork(msg) {
		t.Fatalf("lease below MinAgents = %+v, want NoWork", msg)
	}
	wb := c.Register(&Hello{Agent: "b", Workers: 1})

	leaseA := mustLease(t, c, wa.AgentID)
	leaseB := mustLease(t, c, wb.AgentID)
	if leaseA.Shard == leaseB.Shard {
		t.Fatalf("both agents got shard %d", leaseA.Shard)
	}
	if len(leaseA.UnitIndexes) != 2 || leaseA.Attempt != 1 {
		t.Fatalf("lease A = %+v, want 2 units attempt 1", leaseA)
	}
	// Baseline is now servable.
	if _, err := c.BaselinePayload(&BaselineRequest{AgentID: wa.AgentID}); err != nil {
		t.Fatalf("baseline: %v", err)
	}

	// B completes its shard.
	ack, err := c.SubmitResult(&ShardResult{
		AgentID: wb.AgentID, Shard: leaseB.Shard, Attempt: leaseB.Attempt,
		Units: []UnitResult{
			{Index: leaseB.UnitIndexes[0], Result: &RemoteResult{InputsExplored: 1}},
			{Index: leaseB.UnitIndexes[1], Result: &RemoteResult{InputsExplored: 1}},
		},
	}, 0)
	if err != nil || !ack.Accepted {
		t.Fatalf("B's result not accepted: %+v, %v", ack, err)
	}

	// A goes silent: B heartbeats, A's lease expires, shard reassigned.
	clock.Advance(6 * time.Second)
	if _, err := c.HeartbeatRenew(&Heartbeat{AgentID: wb.AgentID}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(6 * time.Second)
	c.sweep()
	if got := c.RemoteStats().Reassigned; got != 1 {
		t.Fatalf("Reassigned = %d, want 1", got)
	}

	leaseB2 := mustLease(t, c, wb.AgentID)
	if leaseB2.Shard != leaseA.Shard || leaseB2.Attempt != 2 {
		t.Fatalf("reassigned lease = %+v, want shard %d attempt 2", leaseB2, leaseA.Shard)
	}

	// A's stale result (attempt 1) must be rejected; B's fresh one accepted.
	stale, err := c.SubmitResult(&ShardResult{
		AgentID: wa.AgentID, Shard: leaseA.Shard, Attempt: leaseA.Attempt,
		Units: []UnitResult{{Index: leaseA.UnitIndexes[0]}, {Index: leaseA.UnitIndexes[1]}},
	}, 0)
	if err != nil || stale.Accepted {
		t.Fatalf("stale result accepted: %+v, %v", stale, err)
	}
	fresh, err := c.SubmitResult(&ShardResult{
		AgentID: wb.AgentID, Shard: leaseB2.Shard, Attempt: leaseB2.Attempt,
		Units: []UnitResult{
			{Index: leaseB2.UnitIndexes[0], Result: &RemoteResult{InputsExplored: 1}},
			{Index: leaseB2.UnitIndexes[1], Result: &RemoteResult{InputsExplored: 1}},
		},
	}, 0)
	if err != nil || !fresh.Accepted {
		t.Fatalf("fresh result rejected: %+v, %v", fresh, err)
	}

	if err := <-execDone; err != nil {
		t.Fatalf("ExecuteUnits: %v", err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i := 0; i < 4; i++ {
		if rec.calls[i] != 1 {
			t.Errorf("unit %d completed %d times, want exactly once", i, rec.calls[i])
		}
		if rec.errs[i] != nil {
			t.Errorf("unit %d error: %v", i, rec.errs[i])
		}
	}
	stats := c.RemoteStats()
	if stats.Shards != 2 || stats.Agents != 2 || stats.Reassigned != 1 {
		t.Errorf("stats = %+v, want 2 shards, 2 agents, 1 reassignment", stats)
	}
	// Nothing crossed a wire here — the test calls the controller directly —
	// so nothing may be accounted; TestWireAccountingMatchesTransport covers
	// the byte counts where frames actually travel.
	if stats.BaselineBytes != 0 || stats.ShardBytes != 0 || stats.ResultBytes != 0 {
		t.Errorf("wire bytes accounted with no wire: %+v", stats)
	}
}

// TestControllerAbandonsShardAfterMaxAttempts: a shard that keeps losing its
// agent fails its units instead of looping forever.
func TestControllerAbandonsShardAfterMaxAttempts(t *testing.T) {
	topo, snap := testSnapshot(t)
	clock := newTestClock()
	c := NewController(Config{
		Campaign:         "test",
		UnitsPerShard:    4,
		LeaseTTL:         10 * time.Second,
		MaxShardAttempts: 1,
		Clock:            clock.Now,
	})
	w := c.Register(&Hello{Agent: "a", Workers: 1})
	rec := newRecordingSink()
	execDone := make(chan error, 1)
	go func() {
		execDone <- c.ExecuteUnits(context.Background(), topo, snap, dice.RemoteSpec{Seed: 1}, testUnits(2), rec.sink())
	}()
	waitForRun(t, c)

	lease := mustLease(t, c, w.AgentID)
	clock.Advance(11 * time.Second)
	c.sweep()
	if err := <-execDone; err != nil {
		t.Fatalf("ExecuteUnits: %v", err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, idx := range lease.UnitIndexes {
		if rec.errs[idx] == nil || !strings.Contains(rec.errs[idx].Error(), "abandoned") {
			t.Errorf("unit %d error = %v, want abandonment", idx, rec.errs[idx])
		}
	}
}

// TestControllerCancellation: cancelling the campaign context stops
// ExecuteUnits and flips lease responses to Done.
func TestControllerCancellation(t *testing.T) {
	topo, snap := testSnapshot(t)
	c := NewController(Config{Campaign: "test", LeaseTTL: time.Minute})
	w := c.Register(&Hello{Agent: "a", Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	rec := newRecordingSink()
	execDone := make(chan error, 1)
	go func() {
		execDone <- c.ExecuteUnits(ctx, topo, snap, dice.RemoteSpec{Seed: 1}, testUnits(2), rec.sink())
	}()
	waitForRun(t, c)
	if msg, _ := c.LeaseNext(&LeaseRequest{AgentID: w.AgentID}); msg == nil {
		t.Fatal("no lease response")
	}
	cancel()
	if err := <-execDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecuteUnits after cancel = %v, want context.Canceled", err)
	}
}

func isIdleNoWork(msg any) bool {
	nw, ok := msg.(*NoWork)
	return ok && !nw.Done
}

func mustLease(t *testing.T, c *Controller, agentID string) *Lease {
	t.Helper()
	msg, err := c.LeaseNext(&LeaseRequest{AgentID: agentID})
	if err != nil {
		t.Fatal(err)
	}
	lease, ok := msg.(*Lease)
	if !ok {
		t.Fatalf("lease = %+v, want *Lease", msg)
	}
	return lease
}

// waitForRun blocks until ExecuteUnits has installed its campaign run.
func waitForRun(t *testing.T, c *Controller) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		c.mu.Lock()
		ok := c.run != nil
		c.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("campaign run never started")
}

// TestAwaitDrain: the controller tracks which agents have observed the
// campaign-done signal through a lease poll, so the control process can hold
// its listener open until every agent is exiting through the protocol
// instead of cutting them off with a connection reset.
func TestAwaitDrain(t *testing.T) {
	topo, snap := testSnapshot(t)
	c := NewController(Config{Campaign: "test", LeaseTTL: time.Minute, MinAgents: 2})
	w1 := c.Register(&Hello{Agent: "a", Workers: 1})
	w2 := c.Register(&Hello{Agent: "b", Workers: 1})

	// No agent has polled past campaign end yet: the wait must time out.
	if c.AwaitDrain(10 * time.Millisecond) {
		t.Fatal("AwaitDrain succeeded with no agent drained")
	}

	ctx, cancel := context.WithCancel(context.Background())
	rec := newRecordingSink()
	execDone := make(chan error, 1)
	go func() {
		execDone <- c.ExecuteUnits(ctx, topo, snap, dice.RemoteSpec{Seed: 1}, testUnits(2), rec.sink())
	}()
	waitForRun(t, c)
	cancel()
	if err := <-execDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecuteUnits after cancel = %v, want context.Canceled", err)
	}

	// A Done lease response drains exactly the polling agent.
	if msg, err := c.LeaseNext(&LeaseRequest{AgentID: w1.AgentID}); err != nil {
		t.Fatal(err)
	} else if nw, ok := msg.(*NoWork); !ok || !nw.Done {
		t.Fatalf("lease after campaign end = %+v, want NoWork{Done: true}", msg)
	}
	if c.AwaitDrain(10 * time.Millisecond) {
		t.Fatal("AwaitDrain succeeded with one of two agents drained")
	}

	drainDone := make(chan bool, 1)
	go func() { drainDone <- c.AwaitDrain(5 * time.Second) }()
	if _, err := c.LeaseNext(&LeaseRequest{AgentID: w2.AgentID}); err != nil {
		t.Fatal(err)
	}
	if !<-drainDone {
		t.Fatal("AwaitDrain timed out after both agents drained")
	}
}
