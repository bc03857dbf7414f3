package control_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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
	"github.com/dice-project/dice/internal/federation"
	"github.com/dice-project/dice/internal/topology"
)

// hijackedFixture deploys a line cluster whose last router mis-originates the
// first router's prefix — the standard campaign scenario with guaranteed
// detections (mirrors the dice package's own equivalence fixtures).
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

func detectionFingerprint(ds []dice.Detection) string {
	keys := make([]string, 0, len(ds))
	for _, d := range ds {
		keys = append(keys, fmt.Sprintf("%s@%d", d.Violation.Key(), d.InputIndex))
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

// baseOptions returns the deterministic campaign configuration every
// equivalence run shares; fed swaps the plain strategy for per-AS federation.
func baseOptions(topo *topology.Topology, copts cluster.Options, fed bool) []dice.CampaignOption {
	opts := []dice.CampaignOption{
		dice.WithBudget(dice.Budget{TotalInputs: 12}),
		dice.WithFuzzSeeds(4),
		dice.WithSeed(3),
		dice.WithClusterOptions(copts),
		dice.WithWorkers(2),
	}
	if fed {
		opts = append(opts, dice.WithFederation(federation.PartitionByAS(topo)))
	} else {
		opts = append(opts, dice.WithStrategy(dice.AllNodesStrategy{}))
	}
	return opts
}

// runInProcess is the reference: the ordinary single-process campaign.
func runInProcess(t *testing.T, fed bool) *dice.CampaignResult {
	t.Helper()
	topo, live, copts := hijackedFixture(t, 4)
	res, err := dice.NewCampaign(live, topo, baseOptions(topo, copts, fed)...).Run(context.Background())
	if err != nil {
		t.Fatalf("in-process Run: %v", err)
	}
	return res
}

// runDistributed runs the same campaign through a Controller with n agents,
// over the in-process transport or a real loopback TCP server.
func runDistributed(t *testing.T, n int, useTCP, fed bool) (*dice.CampaignResult, *control.Controller) {
	t.Helper()
	return runDistributedVia(t, n, useTCP, fed, nil)
}

// runDistributedVia is runDistributed with the agents' transport wrapped by
// wrap (nil leaves it alone), for tests that watch the bytes go by.
func runDistributedVia(t *testing.T, n int, useTCP, fed bool, wrap func(http.RoundTripper) http.RoundTripper) (*dice.CampaignResult, *control.Controller) {
	t.Helper()
	topo, live, copts := hijackedFixture(t, 4)
	ctrl := control.NewController(control.Config{
		Campaign:      "itest",
		MinAgents:     n,
		UnitsPerShard: 1,
		LeaseTTL:      5 * time.Second,
	})
	handler := control.NewHandler(ctrl)

	var url string
	var client *http.Client
	if useTCP {
		srv := httptest.NewServer(handler)
		t.Cleanup(srv.Close)
		url, client = srv.URL, srv.Client()
	} else {
		url, client = "http://control.inproc", control.InProcessClient(handler)
	}
	if wrap != nil {
		client = &http.Client{Transport: wrap(client.Transport)}
	}

	agentCtx, cancelAgents := context.WithCancel(context.Background())
	t.Cleanup(cancelAgents)
	var wg sync.WaitGroup
	agentErrs := make([]error, n)
	for i := 0; i < n; i++ {
		ag := agent.New(agent.Config{
			Name:         fmt.Sprintf("agent-%d", i),
			ControlURL:   url,
			Client:       client,
			PollInterval: 2 * time.Millisecond,
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			agentErrs[i] = ag.Run(agentCtx)
		}(i)
	}

	opts := append(baseOptions(topo, copts, fed), dice.WithRemoteExecution(ctrl))
	res, err := dice.NewCampaign(live, topo, opts...).Run(context.Background())
	if err != nil {
		t.Fatalf("distributed Run (%d agents, tcp=%v, fed=%v): %v", n, useTCP, fed, err)
	}
	wg.Wait()
	for i, e := range agentErrs {
		if e != nil {
			t.Errorf("agent %d exited with error: %v", i, e)
		}
	}
	return res, ctrl
}

// assertEqualCampaigns is the headline check: distributed detection sets,
// exploration accounting, and (when federated) disclosure accounting must be
// identical to the in-process run.
func assertEqualCampaigns(t *testing.T, local, remote *dice.CampaignResult) {
	t.Helper()
	if len(local.Detections) == 0 {
		t.Fatal("in-process campaign found nothing; equivalence is vacuous")
	}
	if got, want := detectionFingerprint(remote.Detections), detectionFingerprint(local.Detections); got != want {
		t.Errorf("distributed detections differ from in-process:\n  distributed %s\n  in-process  %s", got, want)
	}
	if remote.InputsExplored != local.InputsExplored {
		t.Errorf("inputs explored differ: distributed=%d in-process=%d", remote.InputsExplored, local.InputsExplored)
	}
	if local.Federated {
		if !remote.Federated {
			t.Fatal("distributed campaign lost the Federated flag")
		}
		if remote.Disclosed != local.Disclosed {
			t.Errorf("disclosure accounting differs: distributed=%+v in-process=%+v", remote.Disclosed, local.Disclosed)
		}
		if remote.DisclosedBytes != local.DisclosedBytes {
			t.Errorf("disclosed bytes differ: distributed=%d in-process=%d", remote.DisclosedBytes, local.DisclosedBytes)
		}
		for i := range local.Domains {
			if remote.Domains[i] != local.Domains[i] {
				t.Errorf("domain %s breakdown differs:\n  distributed %+v\n  in-process  %+v",
					local.Domains[i].Domain, remote.Domains[i], local.Domains[i])
			}
		}
	}
}

// TestDistributedOneAgentMatchesInProcess: 1 agent over the in-process
// transport reproduces the in-process campaign exactly.
func TestDistributedOneAgentMatchesInProcess(t *testing.T) {
	local := runInProcess(t, false)
	remote, _ := runDistributed(t, 1, false, false)
	assertEqualCampaigns(t, local, remote)
	if remote.Remote == nil || remote.Remote.Agents != 1 {
		t.Errorf("Remote stats = %+v, want 1 agent", remote.Remote)
	}
}

// TestDistributedThreeAgentsMatchesInProcess: sharding across 3 agents
// changes who executes, never what is found — and the wire carries summaries
// and results, not node state.
func TestDistributedThreeAgentsMatchesInProcess(t *testing.T) {
	local := runInProcess(t, false)
	remote, ctrl := runDistributed(t, 3, false, false)
	assertEqualCampaigns(t, local, remote)

	stats := remote.Remote
	if stats == nil || stats.Agents != 3 {
		t.Fatalf("Remote stats = %+v, want 3 agents", stats)
	}
	if stats.Shards == 0 || stats.BaselineBytes == 0 || stats.ShardBytes == 0 || stats.ResultBytes == 0 {
		t.Errorf("wire accounting incomplete: %+v", stats)
	}
	// The privacy boundary on the wire: per-unit results are summaries and
	// verdicts, below the full-state counterfactual (every explored input
	// shipping a full snapshot back). The margin is 2x, not more: the binary
	// codec keeps snapshots compact, so the counterfactual itself is a low
	// bar.
	if full := remote.FullStateBytes * remote.InputsExplored; full > 0 && stats.ResultBytes*2 >= full {
		t.Errorf("result wire bytes %d not well below full-state counterfactual %d", stats.ResultBytes, full)
	}
	total := 0
	for _, n := range ctrl.AgentShardCounts() {
		total += n
	}
	if total < stats.Shards {
		t.Errorf("lease ledger covers %d grants for %d shards", total, stats.Shards)
	}
}

// countingTransport tallies, from outside the controller, the frame bytes of
// the three kinds RemoteStats breaks out: baseline replies, lease grants and
// accepted shard results. Agents call it concurrently.
type countingTransport struct {
	next http.RoundTripper

	mu                      sync.Mutex
	baseline, shard, result int
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	reqBody, _ := io.ReadAll(req.Body)
	req.Body = io.NopCloser(bytes.NewReader(reqBody))
	resp, err := c.next.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	respBody, _ := io.ReadAll(resp.Body)
	resp.Body = io.NopCloser(bytes.NewReader(respBody))
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	msg, err := control.DecodeFrame(bytes.NewReader(respBody))
	if err != nil {
		return resp, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch m := msg.(type) {
	case *control.Baseline:
		c.baseline += len(respBody)
	case *control.Lease:
		c.shard += len(respBody)
	case *control.ResultAck:
		if m.Accepted {
			c.result += len(reqBody)
		}
	}
	return resp, nil
}

// TestWireAccountingMatchesTransport: RemoteStats' byte counts are the bytes
// that crossed — header plus payload of every baseline, lease and accepted
// result frame — identically over the in-process transport and loopback TCP.
// The controller counts them where the handler encodes and decodes, so an
// outside observer of the transport must arrive at the same totals.
func TestWireAccountingMatchesTransport(t *testing.T) {
	for _, useTCP := range []bool{false, true} {
		var seen *countingTransport
		res, _ := runDistributedVia(t, 2, useTCP, true, func(next http.RoundTripper) http.RoundTripper {
			seen = &countingTransport{next: next}
			return seen
		})
		stats := res.Remote
		if stats == nil || stats.BaselineBytes == 0 || stats.ShardBytes == 0 || stats.ResultBytes == 0 {
			t.Fatalf("tcp=%v: wire accounting incomplete: %+v", useTCP, stats)
		}
		if stats.BaselineBytes != seen.baseline || stats.ShardBytes != seen.shard || stats.ResultBytes != seen.result {
			t.Errorf("tcp=%v: controller accounted baseline/shard/result %d/%d/%d bytes, transport carried %d/%d/%d",
				useTCP, stats.BaselineBytes, stats.ShardBytes, stats.ResultBytes, seen.baseline, seen.shard, seen.result)
		}
	}
}

// TestReplyEncodeFailureIsA500: a reply that cannot be framed — here a
// Welcome whose campaign name is over the kind's bound — must reach the agent
// as a 500 naming the cause, not as an empty 200 it reads as "frame header:
// EOF".
func TestReplyEncodeFailureIsA500(t *testing.T) {
	ctrl := control.NewController(control.Config{Campaign: strings.Repeat("c", 8<<10)})
	handler := control.NewHandler(ctrl)

	var hello bytes.Buffer
	if _, err := control.EncodeFrame(&hello, &control.Hello{Agent: "a", Workers: 1}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/register", &hello))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "exceeds bound") {
		t.Fatalf("register reply = %d %q, want 500 naming the bound", rec.Code, rec.Body.String())
	}

	ag := agent.New(agent.Config{Name: "a", ControlURL: "http://control.inproc", Client: control.InProcessClient(handler)})
	err := ag.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "500") || strings.Contains(err.Error(), "EOF") {
		t.Fatalf("agent error = %v, want one naming the 500 status", err)
	}
}

// TestDistributedLoopbackTCPMatchesInProcess: same equivalence over real TCP
// sockets — the byte carrier must not matter.
func TestDistributedLoopbackTCPMatchesInProcess(t *testing.T) {
	local := runInProcess(t, false)
	remote, _ := runDistributed(t, 3, true, false)
	assertEqualCampaigns(t, local, remote)
}

// TestDistributedFederatedMatchesInProcess: the federated campaign's
// privacy-preserving coordination survives distribution — envelopes captured
// on agent buses and replayed control-side yield identical disclosure
// accounting, over both transports.
func TestDistributedFederatedMatchesInProcess(t *testing.T) {
	local := runInProcess(t, true)
	t.Run("inprocess-transport", func(t *testing.T) {
		remote, _ := runDistributed(t, 3, false, true)
		assertEqualCampaigns(t, local, remote)
	})
	t.Run("loopback-tcp", func(t *testing.T) {
		remote, _ := runDistributed(t, 3, true, true)
		assertEqualCampaigns(t, local, remote)
	})
}
