package live

import (
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/federation"
	"github.com/dice-project/dice/internal/obs"
)

// RegisterMetrics registers the runtime's soak series on the registry. All
// collectors read existing stats snapshots at exposition time — no locks or
// atomics are added to the soak's hot paths. The rt callback returns the
// runtime to read (nil while no soak is attached, which exposes zeros), so a
// daemon registers once and re-points the callback across soaks without
// tripping the registry's duplicate-name panic.
func RegisterMetrics(reg *obs.Registry, rt func() *Runtime) {
	stats := func() Stats {
		if r := rt(); r != nil {
			return r.Stats()
		}
		return Stats{}
	}

	// Checkpoint loop.
	reg.CounterFunc("dice_live_epochs_total", "Checkpoints taken into the epoch ring.",
		func() float64 { return float64(stats().Epochs) })
	reg.CounterFunc("dice_live_checkpoint_pause_seconds_total", "Cumulative consistent-cut pause time.",
		func() float64 { return stats().CheckpointPauseTotal.Seconds() })
	reg.GaugeFunc("dice_live_checkpoint_pause_max_seconds", "Largest single checkpoint pause.",
		func() float64 { return stats().CheckpointPauseMax.Seconds() })
	reg.CounterFunc("dice_live_checkpoint_process_seconds_total", "Cumulative off-critical-path checkpoint processing time.",
		func() float64 { return stats().CheckpointProcessTotal.Seconds() })
	reg.CounterFunc("dice_live_pause_budget_overruns_total", "Checkpoint pauses that ran over PauseBudget.",
		func() float64 { return float64(stats().PauseBudgetExceeded) })
	reg.CounterFunc("dice_live_stride_stretches_total", "Governor cadence doublings in response to pause overruns.",
		func() float64 { return float64(stats().StrideStretches) })
	reg.CounterFunc("dice_live_stride_relaxes_total", "Governor cadence halvings on comfortably under-budget pauses.",
		func() float64 { return float64(stats().StrideRelaxes) })
	reg.GaugeFunc("dice_live_checkpoint_stride", "Current checkpoint cadence in traffic steps.",
		func() float64 { return float64(stats().CheckpointStride) })
	reg.CounterFunc("dice_live_snapshot_bytes_total", "Cumulative encoded snapshot bytes checkpointed.",
		func() float64 { return float64(stats().SnapshotBytesTotal) })
	reg.CounterFunc("dice_live_delta_bytes_total", "Cumulative delta-shipping cost of the checkpoint stream.",
		func() float64 { return float64(stats().DeltaBytesTotal) })
	reg.CounterFunc("dice_live_checkpoint_nodes_reused_total", "Router checkpoints a cut took over unchanged from a retained epoch (not rebuilt, encoded or hashed).",
		func() float64 { return float64(stats().CheckpointNodesReused) })
	reg.CounterFunc("dice_live_epochs_superseded_total", "Epochs replaced by a fresher one before exploration (Overlap backpressure).",
		func() float64 { return float64(stats().EpochsSuperseded) })

	// Epoch lag: the sequence number and checkpoint wall-clock timestamp of
	// the newest ring epoch. Lag is derived at query time (time() − this
	// gauge) — exposing a now−Taken age directly would change every scrape
	// and break the byte-deterministic exposition contract.
	reg.GaugeFunc("dice_live_last_epoch_seq", "Sequence number of the newest ring epoch.",
		func() float64 {
			if r := rt(); r != nil {
				if ep := r.Ring().Latest(); ep != nil {
					return float64(ep.Seq)
				}
			}
			return 0
		})
	reg.GaugeFunc("dice_live_last_epoch_unix_seconds", "Wall-clock time the newest epoch was checkpointed (epoch lag = now - this).",
		func() float64 {
			if r := rt(); r != nil {
				if ep := r.Ring().Latest(); ep != nil {
					return float64(ep.Taken.UnixNano()) / 1e9
				}
			}
			return 0
		})

	// Exploration.
	reg.CounterFunc("dice_live_campaigns_total", "Scenario campaigns executed.",
		func() float64 { return float64(stats().Campaigns) })
	reg.CounterFunc("dice_live_campaign_errors_total", "Scenario campaigns that failed outright (time still charged to exploration).",
		func() float64 { return float64(stats().CampaignErrors) })
	reg.CounterFunc("dice_live_campaigns_deduped_total", "Scenario campaigns skipped by the cross-epoch dedupe cache.",
		func() float64 { return float64(stats().CampaignsDeduped) })
	reg.CounterFunc("dice_live_inputs_explored_total", "Inputs explored across all campaigns.",
		func() float64 { return float64(stats().InputsExplored) })
	reg.CounterFunc("dice_live_inputs_saved_total", "Inputs the dedupe cache avoided re-exploring.",
		func() float64 { return float64(stats().InputsSaved) })
	reg.CounterFunc("dice_live_paths_explored_total", "Unique execution paths explored.",
		func() float64 { return float64(stats().PathsExplored) })
	reg.CounterFunc("dice_live_traffic_seconds_total", "Wall clock spent driving live traffic.",
		func() float64 { return stats().TrafficTime.Seconds() })
	reg.CounterFunc("dice_live_explore_seconds_total", "Wall clock spent on shadow exploration and minimization.",
		func() float64 { return stats().ExploreTime.Seconds() })
	reg.GaugeFunc("dice_live_pathcache_hit_ratio", "Fraction of would-be inputs the dedupe cache skipped.",
		func() float64 { return stats().DedupeSavedFraction() })
	reg.GaugeFunc("dice_live_pathcache_entries", "Entries in the cross-epoch dedupe cache.",
		func() float64 {
			if r := rt(); r != nil {
				return float64(r.Cache().Len())
			}
			return 0
		})

	// Findings.
	reg.CounterFunc("dice_live_findings_total", "Violations found, minimized and published.",
		func() float64 { return float64(stats().Findings) })
	reg.CounterFunc("dice_live_findings_reverified_total", "Findings whose minimized trace re-verified on a cold clone.",
		func() float64 { return float64(stats().FindingsReverified) })
	reg.CounterFunc("dice_live_minimize_replays_total", "Replays executed by the trace minimizer (pooled search probes plus cold confirmations).",
		func() float64 { return float64(stats().MinimizeReplays) })
	reg.CounterFunc("dice_live_minimize_cold_replays_total", "Minimizer replays run on a cold FromSnapshot rebuild (the verdicts that set Reverified).",
		func() float64 { return float64(stats().MinimizeColdReplays) })
	reg.CounterFunc("dice_live_minimize_disagreements_total", "Finding groups whose cold confirmation contradicted the pooled search (original trace kept).",
		func() float64 { return float64(stats().MinimizeDisagreements) })
	reg.CounterFunc("dice_live_replay_errors_total", "Minimizer replays whose clone could not be leased or built.",
		func() float64 { return float64(stats().ReplayErrors) })
	reg.GaugeFunc("dice_live_first_detection_epoch", "Epoch of the first finding (0: none yet).",
		func() float64 { return float64(stats().FirstDetectionEpoch) })

	// Scheduler weights, one labeled series per scenario.
	reg.GaugeVecFunc("dice_live_scheduler_weight", "Adaptive scenario scheduler weight.", "scenario",
		func() map[string]float64 {
			if r := rt(); r != nil {
				return r.Scheduler().Weights()
			}
			return nil
		})

	// The runtime-owned subsystems ride along under their own prefixes.
	checkpoint.RegisterRingMetrics(reg, func() *checkpoint.Ring {
		if r := rt(); r != nil {
			return r.Ring()
		}
		return nil
	})
	cluster.RegisterPoolMetrics(reg, "dice_pool",
		func() cluster.PoolStats {
			if r := rt(); r != nil {
				return r.PoolStats()
			}
			return cluster.PoolStats{}
		},
		func() int {
			if r := rt(); r != nil {
				return r.PoolOutstanding()
			}
			return 0
		})
	federation.RegisterBusMetrics(reg, func() *federation.Bus {
		if r := rt(); r != nil {
			return r.Bus()
		}
		return nil
	})
}
