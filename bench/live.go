package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/dice"
	"github.com/dice-project/dice/internal/live"
)

// liveOptions are the soak's options: churn for the first sz.Churn epochs,
// then an idle deployment whose epochs must dedupe. The governor is pinned
// (an unreachable pause budget) so the cadence never stretches and every
// machine explores the same epochs.
func (e *env) liveOptions(sz sizes) live.Options {
	churn := live.DefaultTraffic(3)
	return live.Options{
		Seed:           e.seed,
		ClusterOptions: e.copts,
		Traffic: func(c *cluster.Cluster, rng *rand.Rand, epoch int) {
			if epoch <= sz.Churn {
				churn(c, rng, epoch)
			}
		},
		MaxEpochs:         sz.Churn + sz.Quiet,
		InputsPerScenario: liveInputsPerScenario,
		FuzzSeeds:         fuzzSeeds,
		Explorers:         []string{liveExplorer},
		Properties:        e.props,
		Workers:           1,
		PauseBudget:       time.Hour,
	}
}

// epochRow is one epoch of the soak: the runtime's own summary plus the wall
// time between this epoch's summary and the previous one, which also covers
// the scheduler draw and cache lookups the summary has no field for.
type epochRow struct {
	live.EpochSummary
	Wall time.Duration
	// RefAfter is the reference kernel's time sampled right after this
	// epoch (0 when none was taken); Factor converts this epoch's times to
	// reference time.
	RefAfter float64
	Factor   float64
	// Disclosed is the bytes this epoch's campaigns put through the narrow
	// checking interface; Replays the minimiser's cold replays.
	Disclosed int
	Replays   int
}

// executions is the epoch's shadow executions: campaign inputs plus the
// minimiser's replays. Either is one clone driven to quiescence and checked,
// and their sum is what an epoch's cost follows; the findings-dependent split
// between them is not.
func (r epochRow) executions() int { return r.Inputs + r.Replays }

// soak is what one live run produced.
type soak struct {
	Rows        []epochRow
	Stats       live.Stats
	Pool        cluster.PoolStats
	Seconds     float64
	Fingerprint string // SHA-256 over the sorted finding keys
	Findings    int
	Reverified  int
	FirstEpoch  int
	RingBlobs   int
	RingSaved   int
}

// quietRefEvery is how many quiet epochs share one reference sample: they
// take milliseconds each, a sample takes fifty.
const quietRefEvery = 10

// runSoak runs one soak on the env's deployment, which it moves forward: a
// soaked env is not reused. The reference kernel is sampled between epochs
// (after every churn epoch, after every tenth quiet one), outside every timed
// interval. hook, when non-nil, sees every campaign event (the traced run
// builds spans from it).
func (e *env) runSoak(sz sizes, ref *refKernel, hook func(epoch int, scenario string, ev dice.Event)) (*soak, error) {
	opts := e.liveOptions(sz)
	out := &soak{}
	var last time.Time
	var rt *live.Runtime
	disclosed, replays := 0, 0
	opts.OnEpoch = func(s live.EpochSummary) {
		row := epochRow{EpochSummary: s, Wall: time.Since(last), Disclosed: disclosed}
		disclosed = 0
		total := rt.Stats().MinimizeReplays
		row.Replays, replays = total-replays, total
		if s.Seq <= sz.Churn+1 || s.Seq%quietRefEvery == 0 || s.Seq == sz.Churn+sz.Quiet {
			row.RefAfter = ref.sample()
		}
		out.Rows = append(out.Rows, row)
		last = time.Now()
	}
	opts.OnCampaignEvent = func(epoch int, scenario string, ev dice.Event) {
		if ev.Kind == dice.EventUnitEnd && ev.Result != nil {
			disclosed += ev.Result.DisclosedBytes
		}
		if hook != nil {
			hook(epoch, scenario, ev)
		}
	}
	var err error
	if rt, err = live.NewRuntime(e.deployed, e.topo, opts); err != nil {
		return nil, err
	}
	prevRef := ref.sample()
	start := time.Now()
	last = start
	report, err := rt.Run(context.Background())
	if err != nil {
		return nil, err
	}
	out.Seconds = time.Since(start).Seconds()
	// Each epoch is corrected by the samples that bracket it.
	for i := 0; i < len(out.Rows); {
		j := i
		for j < len(out.Rows)-1 && out.Rows[j].RefAfter == 0 {
			j++
		}
		nextRef := out.Rows[j].RefAfter
		if nextRef == 0 {
			nextRef = prevRef
		}
		for ; i <= j; i++ {
			out.Rows[i].Factor = refFactor(prevRef, nextRef)
		}
		prevRef = nextRef
	}
	out.Stats = rt.Stats()
	out.Pool = rt.PoolStats()
	out.RingBlobs = rt.Ring().UniqueBlobs()
	out.RingSaved = rt.Ring().SharedBytesSaved()
	var keys []string
	for _, f := range report.Findings() {
		keys = append(keys, fmt.Sprintf("%s@%d/%s", f.Violation.Key(), f.Epoch, f.Scenario))
		if f.Reverified {
			out.Reverified++
		}
	}
	sort.Strings(keys)
	sum := sha256.Sum256([]byte(strings.Join(keys, ";")))
	out.Fingerprint = hex.EncodeToString(sum[:])
	out.Findings = len(keys)
	out.FirstEpoch = out.Stats.FirstDetectionEpoch
	return out, nil
}

// churnRows are the soak's churn epochs after the first (which pays the cold
// caches), quietRows the fully deduped ones.
func (s *soak) churnRows(sz sizes) []epochRow {
	var rows []epochRow
	for _, r := range s.Rows {
		if r.Seq >= 2 && r.Seq <= sz.Churn {
			rows = append(rows, r)
		}
	}
	return rows
}

func (s *soak) quietRows() []epochRow {
	var rows []epochRow
	for _, r := range s.Rows {
		if r.Campaigns == 0 && r.CampaignsDeduped > 0 {
			rows = append(rows, r)
		}
	}
	return rows
}
