package agent_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/agent"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/control"
	"github.com/dice-project/dice/internal/dice"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/topology"
)

func hijackedFixture(t *testing.T, n int) (*topology.Topology, *cluster.Cluster, cluster.Options) {
	t.Helper()
	topo := topology.Line(n)
	victim := topo.Nodes[0].Prefixes[0]
	last := topo.Nodes[n-1].Name
	opts := cluster.Options{Seed: 1, ConfigOverride: faults.ApplyConfigFaults(faults.MisOrigination{Router: last, Prefix: victim})}
	c := cluster.MustBuild(topo, opts)
	c.Converge()
	return topo, c, opts
}

func campaignOptions(copts cluster.Options) []dice.CampaignOption {
	return []dice.CampaignOption{
		dice.WithStrategy(dice.AllNodesStrategy{}),
		dice.WithBudget(dice.Budget{TotalInputs: 12}),
		dice.WithFuzzSeeds(4),
		dice.WithSeed(3),
		dice.WithClusterOptions(copts),
		dice.WithWorkers(2),
	}
}

func detectionKeys(ds []dice.Detection) string {
	keys := make([]string, 0, len(ds))
	for _, d := range ds {
		keys = append(keys, fmt.Sprintf("%s@%d", d.Violation.Key(), d.InputIndex))
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

// TestAgentCancelledMidShardBalancesClonePool is the shard-boundary fault
// audit: an agent killed by context cancellation while executing a leased
// shard must hand every clone back (Leases == Releases) and leak no
// goroutines — the discard/fall-through accounting holds at the lease
// boundary, not just inside one campaign.
func TestAgentCancelledMidShardBalancesClonePool(t *testing.T) {
	topo, live, copts := hijackedFixture(t, 4)
	ctrl := control.NewController(control.Config{
		Campaign:      "fault",
		UnitsPerShard: 2,
		LeaseTTL:      5 * time.Second,
	})
	client := control.InProcessClient(control.NewHandler(ctrl))

	before := runtime.NumGoroutine()

	agentCtx, cancelAgent := context.WithCancel(context.Background())
	defer cancelAgent()
	ag := agent.New(agent.Config{
		Name:         "doomed",
		ControlURL:   "http://control.inproc",
		Client:       client,
		PollInterval: 2 * time.Millisecond,
	})
	agentDone := make(chan error, 1)
	go func() { agentDone <- ag.Run(agentCtx) }()

	campCtx, cancelCampaign := context.WithCancel(context.Background())
	defer cancelCampaign()
	campDone := make(chan error, 1)
	go func() {
		opts := append(campaignOptions(copts), dice.WithRemoteExecution(ctrl))
		_, err := dice.NewCampaign(live, topo, opts...).Run(campCtx)
		campDone <- err
	}()

	// Kill the agent once its clone pool shows activity — mid-shard, the
	// window an agent crash actually hits.
	deadline := time.After(10 * time.Second)
	for ag.PoolStats().Leases == 0 {
		select {
		case err := <-agentDone:
			t.Fatalf("agent exited before leasing a clone: %v", err)
		case <-deadline:
			t.Fatal("agent never leased a clone")
		case <-time.After(time.Millisecond):
		}
	}
	cancelAgent()

	if err := <-agentDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("agent exit = %v, want context.Canceled", err)
	}
	stats := ag.PoolStats()
	if stats.Leases == 0 {
		t.Fatal("fault window missed the clone pool entirely")
	}
	if stats.Leases != stats.Releases {
		t.Errorf("clone accounting unbalanced after mid-shard cancel: %d leases, %d releases", stats.Leases, stats.Releases)
	}

	// The campaign is now agent-less; cancel it and let the controller drain.
	cancelCampaign()
	if err := <-campDone; err == nil {
		t.Error("campaign without agents should fail once cancelled")
	}

	// No goroutine may survive the dead agent (heartbeater, pool workers).
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if i > 200 {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAgentFaultMidLeaseReassigned: an agent that dies holding a lease (the
// injected shard fault makes it abandon the shard without reporting) must not
// lose work — the lease expires, the shard is reassigned, and a healthy agent
// finishes the campaign with results identical to the in-process run.
func TestAgentFaultMidLeaseReassigned(t *testing.T) {
	topo, live, copts := hijackedFixture(t, 4)
	local, err := dice.NewCampaign(live, topo, campaignOptions(copts)...).Run(context.Background())
	if err != nil {
		t.Fatalf("in-process Run: %v", err)
	}

	topo, live, copts = hijackedFixture(t, 4)
	ctrl := control.NewController(control.Config{
		Campaign:      "fault",
		UnitsPerShard: 1,
		LeaseTTL:      250 * time.Millisecond,
	})
	client := control.InProcessClient(control.NewHandler(ctrl))

	campDone := make(chan *dice.CampaignResult, 1)
	go func() {
		opts := append(campaignOptions(copts), dice.WithRemoteExecution(ctrl))
		res, err := dice.NewCampaign(live, topo, opts...).Run(context.Background())
		if err != nil {
			t.Errorf("distributed Run: %v", err)
		}
		campDone <- res
	}()

	// The faulty agent grabs the first shard and crashes at the boundary.
	faulty := agent.New(agent.Config{
		Name:         "faulty",
		ControlURL:   "http://control.inproc",
		Client:       client,
		PollInterval: 2 * time.Millisecond,
		TestShardFault: func(shard int) error {
			return fmt.Errorf("injected crash on shard %d", shard)
		},
	})
	if err := faulty.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "injected crash") {
		t.Fatalf("faulty agent exit = %v, want the injected crash", err)
	}
	if faulty.ShardsRun() != 0 {
		t.Errorf("faulty agent reported %d completed shards", faulty.ShardsRun())
	}

	var wg sync.WaitGroup
	healthy := agent.New(agent.Config{
		Name:         "healthy",
		ControlURL:   "http://control.inproc",
		Client:       client,
		PollInterval: 2 * time.Millisecond,
	})
	wg.Add(1)
	var healthyErr error
	go func() { defer wg.Done(); healthyErr = healthy.Run(context.Background()) }()

	res := <-campDone
	wg.Wait()
	if healthyErr != nil {
		t.Fatalf("healthy agent: %v", healthyErr)
	}
	if res == nil {
		t.Fatal("no campaign result")
	}
	if got, want := detectionKeys(res.Detections), detectionKeys(local.Detections); got != want {
		t.Errorf("detections after reassignment differ:\n  distributed %s\n  in-process  %s", got, want)
	}
	if ctrl.RemoteStats().Reassigned == 0 {
		t.Error("no lease was reassigned despite the crashed agent")
	}
	hstats := healthy.PoolStats()
	if hstats.Leases != hstats.Releases {
		t.Errorf("healthy agent clone accounting unbalanced: %+v", hstats)
	}
}

// TestAgentSurfacesControlErrors drives Run against control planes that
// answer badly: the agent must name the HTTP status and the server's text
// (never a bare decode error), refuse a well-formed frame of the wrong kind,
// and keep polling a 503 until its context ends.
func TestAgentSurfacesControlErrors(t *testing.T) {
	frame := func(msg any) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if _, err := control.EncodeFrame(w, msg); err != nil {
				t.Errorf("EncodeFrame: %v", err)
			}
		}
	}
	cases := []struct {
		name     string
		register http.HandlerFunc
		baseline http.HandlerFunc
		want     string
	}{
		{"register-500", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "control: encode *control.Welcome: too big", http.StatusInternalServerError)
		}, nil, "/v1/register: 500 Internal Server Error: control: encode *control.Welcome: too big"},
		{"register-wrong-kind", frame(&control.NoWork{}), nil, "unexpected register response *control.NoWork"},
		{"baseline-wrong-kind", frame(&control.Welcome{AgentID: "agent-1"}), frame(&control.NoWork{}), "unexpected baseline response *control.NoWork"},
		{"baseline-503-until-cancelled", frame(&control.Welcome{AgentID: "agent-1"}), func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "no campaign", http.StatusServiceUnavailable)
		}, context.DeadlineExceeded.Error()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mux := http.NewServeMux()
			mux.HandleFunc("POST /v1/register", tc.register)
			if tc.baseline != nil {
				mux.HandleFunc("POST /v1/baseline", tc.baseline)
			}
			ag := agent.New(agent.Config{
				Name: "a", ControlURL: "http://control.inproc", Workers: 3,
				Client: control.InProcessClient(mux), PollInterval: time.Millisecond,
			})
			if ag.Workers() != 3 {
				t.Errorf("Workers() = %d, want 3", ag.Workers())
			}
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			err := ag.Run(ctx)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
