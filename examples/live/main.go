// Live mode: the paper's "online" claim end to end. DiCE attaches to the
// 27-router demo deployment while it carries background churn, takes
// periodic low-pause checkpoints into a rolling epoch ring, and soaks every
// fresh epoch with scenario campaigns drawn from an adaptive weighted
// scheduler — link flaps, session resets, prefix churn, staged policy
// rollouts, plus plain exploration. Two latent faults are planted (a
// mis-origination at R12 and a missing import filter on R1's customer
// session); the soak must find them online, shrink each detection to a
// minimal replayable trace, and re-prove that trace against a cold clone of
// the epoch it was found in. The second half of the soak goes idle, so the
// cross-epoch dedupe cache must skip the unchanged epochs outright — and their
// cuts must cost nothing: a router that did not move hands out the checkpoint
// it already took, and the ring takes it over without encoding or hashing it.
//
// The example is a CI smoke: it exits non-zero unless the violation is
// found, minimized, and replayed, unless dedupe saved work, and unless every
// deduped epoch reused every router's checkpoint.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	dice "github.com/dice-project/dice"
)

func main() {
	topo := dice.Demo27()
	victim := topo.Nodes[26].Prefixes[0]
	opts := dice.DeployOptions{
		Seed: 1,
		ConfigOverride: dice.ApplyConfigFaults(
			dice.MisOrigination{Router: "R12", Prefix: victim},
			dice.MissingImportFilter{Router: "R1", Peer: "R4"},
		),
		MaxEvents: 300000,
	}
	deployment, err := dice.Deploy(topo, opts)
	if err != nil {
		log.Fatal(err)
	}
	deployment.Converge()

	// Churn for the first two epochs, then let the deployment sit idle: the
	// idle epochs capture byte-for-byte identical behavior, which the dedupe
	// cache must recognize.
	const epochs = 4
	churn := dice.DefaultTraffic(3)
	traffic := func(c *dice.Deployment, rng *rand.Rand, epoch int) {
		if epoch <= epochs/2 {
			churn(c, rng, epoch)
		}
	}

	findings := 0
	var rows []dice.LiveEpochSummary
	rt, err := dice.NewLiveRuntime(deployment, topo, dice.LiveOptions{
		Seed:              1,
		ClusterOptions:    opts,
		MaxEpochs:         epochs,
		Traffic:           traffic,
		InputsPerScenario: 8,
		FuzzSeeds:         2,
		ScenariosPerEpoch: 0, // draw every registered scenario each epoch
		Explorers:         []string{"R1"},
		OnEpoch:           func(s dice.LiveEpochSummary) { rows = append(rows, s) },
		OnFinding: func(f *dice.LiveFinding) {
			findings++
			if findings <= 5 {
				fmt.Printf("  [%v] %s\n", f.Elapsed.Round(time.Millisecond), f)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("soaking %d routers for %d epochs with %d scenarios/epoch\n",
		len(topo.Nodes), epochs, rt.Scheduler().Len())
	report, err := rt.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	stats := rt.Stats()

	fmt.Println()
	fmt.Printf("epochs: %d (pause mean %v, max %v; %d bytes/epoch full, %d delta)\n",
		stats.Epochs, stats.PauseMean().Round(time.Microsecond), stats.CheckpointPauseMax.Round(time.Microsecond),
		stats.SnapshotBytesTotal/stats.Epochs, stats.DeltaBytesTotal/stats.Epochs)
	fmt.Printf("cuts: %d of %d router checkpoints taken over unchanged from the epoch before\n",
		stats.CheckpointNodesReused, stats.Epochs*len(topo.Nodes))
	fmt.Printf("exploration: %d campaigns, %d inputs; dedupe skipped %d campaigns (%d inputs saved)\n",
		stats.Campaigns, stats.InputsExplored, stats.CampaignsDeduped, stats.InputsSaved)
	fmt.Printf("findings: %d (first in epoch %d); traces minimized %d -> %d steps\n",
		report.Len(), stats.FirstDetectionEpoch, stats.TraceStepsBefore, stats.TraceStepsAfter)
	fmt.Printf("minimizer: %d replays (%d pooled probes + %d cold confirmations), %d disagreements\n",
		stats.MinimizeReplays, stats.MinimizeReplays-stats.MinimizeColdReplays, stats.MinimizeColdReplays, stats.MinimizeDisagreements)

	// The assertions CI relies on.
	if !report.Detected(dice.OperatorMistake) {
		log.Fatal("FAIL: the planted mis-origination was not detected online")
	}
	if stats.FirstDetectionEpoch > 2 {
		log.Fatalf("FAIL: first detection in epoch %d; want within the first two", stats.FirstDetectionEpoch)
	}
	minimizedSteady := false
	for _, f := range report.Findings() {
		if f.Class == dice.OperatorMistake && f.Reverified && len(f.Trace) < f.TraceOriginal {
			minimizedSteady = true
			break
		}
	}
	if !minimizedSteady {
		log.Fatal("FAIL: no operator-mistake finding was minimized and re-verified against a cold clone")
	}
	if stats.MinimizeDisagreements != 0 {
		log.Fatalf("FAIL: %d cold confirmations contradicted the pooled trace search", stats.MinimizeDisagreements)
	}
	if stats.CampaignsDeduped == 0 || stats.InputsSaved == 0 {
		log.Fatal("FAIL: idle epochs were re-explored; cross-epoch dedupe saved nothing")
	}
	for _, row := range rows {
		switch quiet := row.Campaigns == 0 && row.CampaignsDeduped > 0; {
		case quiet && row.NodesReused != len(topo.Nodes):
			log.Fatalf("FAIL: deduped epoch %d re-cut %d of %d routers that had not moved", row.Seq, len(topo.Nodes)-row.NodesReused, len(topo.Nodes))
		case !quiet && row.NodesReused >= len(topo.Nodes):
			log.Fatalf("FAIL: churn epoch %d reused every checkpoint; the count means nothing", row.Seq)
		}
	}
	// Non-perturbation (exploration never mutates the deployment) cannot be
	// asserted here — the example's own churn legitimately changes the
	// deployment — so it is pinned by TestRuntimeSoakDetectsMisOrigination,
	// which soaks with idle traffic and compares TotalBestChanges.
	fmt.Println()
	fmt.Println("OK: detected online, minimized, replayed from a cold clone; unchanged epochs deduped and cut for free")
}
