package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// result is what one run of one workload reports.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Sizes    sizes  `json:"sizes"`

	// Metrics are the end-to-end metrics (reference time for timings), Extra
	// the workload-specific end-to-end ones, Layer the traced run's per-layer
	// metrics, Raw the uncorrected timings behind the corrected ones.
	Metrics map[string]float64 `json:"metrics"`
	Extra   map[string]float64 `json:"extra,omitempty"`
	Layer   map[string]float64 `json:"layer,omitempty"`
	Raw     map[string]float64 `json:"raw,omitempty"`
	// Timings carries median, supported tail percentile and sample count of
	// every timed quantity.
	Timings map[string]timing `json:"timings,omitempty"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Warnings  []string `json:"warnings,omitempty"`

	// Host steadiness: the batch-time quantiles relative to each slot's
	// median, and the reference kernel's own median and spread.
	Disturbance disturbance `json:"disturbance"`
	RefMsP50    float64     `json:"ref_ms_p50"`
	RefSpread   float64     `json:"ref_spread"`
	RefSamples  int         `json:"ref_samples"`

	// Batches are the timed batches (the soak's churn epochs) one by one.
	Batches []batchRecord `json:"batches,omitempty"`

	// Observed is what the golden file pins for the default seed.
	Observed golden `json:"observed"`
}

func newResult(w *workload, seed int64, sz sizes, traced bool) *result {
	return &result{
		Workload: w.name, Seed: seed, Sizes: sz, Traced: traced, Correct: true,
		Metrics: map[string]float64{}, Extra: map[string]float64{}, Raw: map[string]float64{},
		Timings: map[string]timing{}, Observed: golden{Workload: w.name, Seed: seed},
	}
}

// fail records a correctness problem: the run's outputs are wrong.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// failOp counts n failed operations (and marks the run incorrect).
func (r *result) failOp(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	r.fail(format, args...)
}

func (r *result) warn(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// setupGroup is how many set-ups share one pair of reference samples.
const setupGroup = 3

// setups is the outcome of the repeated from-scratch set-ups.
type setups struct {
	env     *env
	samples []setupSample // reference time
	raw     []float64     // uncorrected totals, seconds
}

// measureSetups builds the workload's system from scratch n times and keeps
// the last one for the timed run.
func measureSetups(w *workload, seed int64, n int, ref *refKernel) (*setups, error) {
	out := &setups{}
	before := ref.sample()
	for done := 0; done < n; {
		var group []setupSample
		for g := 0; g < setupGroup && done < n; g, done = g+1, done+1 {
			e, s, err := setupOnce(w, seed)
			if err != nil {
				return nil, fmt.Errorf("set-up %d: %w", done, err)
			}
			out.env = e
			group = append(group, s)
		}
		after := ref.sample()
		f := refFactor(before, after)
		for _, s := range group {
			out.raw = append(out.raw, s.Total)
			out.samples = append(out.samples, s.scaled(f))
		}
		before = after
	}
	return out, nil
}

func (s *setups) column(pick func(setupSample) float64) []float64 {
	v := make([]float64, len(s.samples))
	for i, x := range s.samples {
		v[i] = pick(x)
	}
	return v
}

// report fills the set-up metrics every workload shares.
func (s *setups) report(r *result) {
	totals := s.column(func(x setupSample) float64 { return x.Total })
	r.Metrics["setup_s"] = median(totals)
	r.Raw["setup_s"] = median(s.raw)
	r.Timings["setup_s"] = summarize(totals)
}

// measureCuts times more consistent cuts of the converged deployment than the
// set-ups alone provide, in groups bracketed by reference samples, and returns
// them in reference milliseconds: the pause is a 10–30 ms operation and its
// median over twenty-one samples still moved by a tenth from run to run.
func measureCuts(e *env, ref *refKernel) []float64 {
	const groups, perGroup = 3, 10
	var out []float64
	before := ref.sample()
	for g := 0; g < groups; g++ {
		var raw []float64
		for i := 0; i < perGroup; i++ {
			start := time.Now()
			e.deployed.Snapshot()
			raw = append(raw, time.Since(start).Seconds()*1e3)
		}
		after := ref.sample()
		f := refFactor(before, after)
		for _, ms := range raw {
			out = append(out, ms*f)
		}
		before = after
	}
	return out
}

// batchRecord is one timed batch as kept in the result file, for anyone who
// wants to try another estimator on the same run.
type batchRecord struct {
	Slot    int     `json:"slot"`
	Repeat  int     `json:"repeat"`
	Inputs  int     `json:"inputs"`
	Seconds float64 `json:"seconds"` // raw
	Factor  float64 `json:"factor"`  // × Seconds = reference time
}

// timedBatch is one batch of the timed region with its correction.
type timedBatch struct {
	batch
	Factor float64 // to reference time
	Mem    memCounters
}

// runTimed runs S×K batches round-robin over the seed slots (s0 s1 … s0 …),
// each preceded by a collection outside the timed region and bracketed by
// reference samples. times[s][k] comes back in reference seconds.
func runTimed(sz sizes, ref *refKernel, run func(slot int) (batch, error)) (slots [][]timedBatch, err error) {
	slots = make([][]timedBatch, sz.Seeds)
	for k := 0; k < sz.Repeats; k++ {
		for s := 0; s < sz.Seeds; s++ {
			runtime.GC()
			before := ref.sample()
			m0 := readMem()
			b, err := run(s)
			if err != nil {
				return nil, fmt.Errorf("slot %d repeat %d: %w", s, k, err)
			}
			mem := readMem().sub(m0)
			after := ref.sample()
			slots[s] = append(slots[s], timedBatch{batch: b, Factor: refFactor(before, after), Mem: mem})
		}
	}
	return slots, nil
}

// reportTimed reduces the timed batches to the shared end-to-end metrics and
// runs the checks every campaign workload shares.
func reportTimed(r *result, slots [][]timedBatch) {
	work := make([]float64, len(slots))
	times := make([][]float64, len(slots))
	rawTimes := make([][]float64, len(slots))
	var mem memCounters
	inputs, disclosed := 0, 0
	for s, reps := range slots {
		work[s] = float64(reps[0].Inputs)
		for k, b := range reps {
			times[s] = append(times[s], b.Seconds*b.Factor)
			rawTimes[s] = append(rawTimes[s], b.Seconds)
			r.Batches = append(r.Batches, batchRecord{Slot: s, Repeat: k, Inputs: b.Inputs, Seconds: b.Seconds, Factor: b.Factor})
			mem = mem.add(b.Mem)
			inputs += b.Inputs
			disclosed += b.Disclosed
			r.Attempted += b.Inputs
			r.failOp(b.UnitErrors, "slot %d repeat %d: %d unit or campaign errors", s, k, b.UnitErrors)
			if b.Pool.Leases != b.Pool.Releases {
				r.failOp(1, "slot %d repeat %d: %d leases but %d releases", s, k, b.Pool.Leases, b.Pool.Releases)
			}
			if b.Remote != nil {
				r.failOp(b.Remote.Abandoned, "slot %d repeat %d: %d shards abandoned", s, k, b.Remote.Abandoned)
				if b.Remote.Reassigned != 0 {
					r.fail("slot %d repeat %d: %d shards reassigned", s, k, b.Remote.Reassigned)
				}
			}
			if b.Fingerprint != reps[0].Fingerprint || b.Inputs != reps[0].Inputs {
				r.failOp(1, "slot %d repeat %d differs from repeat 0 (%d inputs, fingerprint %.12s; want %d, %.12s)",
					s, k, b.Inputs, b.Fingerprint, reps[0].Inputs, reps[0].Fingerprint)
			}
		}
		r.Observed.Slots = append(r.Observed.Slots, goldenSlot{
			Inputs: reps[0].Inputs, Fingerprint: reps[0].Fingerprint, Detections: reps[0].Detections,
		})
	}
	r.Metrics["inputs_per_s"] = seedMedianRate(work, times)
	r.Raw["inputs_per_s"] = seedMedianRate(work, rawTimes)
	var all []float64
	for s := range times {
		for _, t := range times[s] {
			all = append(all, t/work[s]*1e3)
		}
	}
	r.Timings["ms_per_input"] = summarize(all)
	r.reportMemory(mem, inputs, disclosed)
	r.Disturbance = disturbanceOf(rawTimes)
}

// reportMemory fills the per-input allocation, disclosure and collector
// numbers from counters taken around the real program's runs.
func (r *result) reportMemory(mem memCounters, inputs, disclosed int) {
	if inputs == 0 {
		return
	}
	r.Metrics["alloc_kb_per_input"] = float64(mem.allocBytes) / 1024 / float64(inputs)
	r.Metrics["disclosed_bytes_per_input"] = float64(disclosed) / float64(inputs)
	r.Raw["mallocs_per_input"] = float64(mem.mallocs) / float64(inputs)
	r.Raw["gc_cycles_per_kinput"] = float64(mem.gcCycles) / float64(inputs) * 1e3
	r.Raw["gc_pause_ms_total"] = float64(mem.gcPauseNs) / 1e6
}

// finish fills what only the end of the process knows.
func (r *result) finish(ref *refKernel) {
	r.Metrics["peak_rss_mb"] = peakRSSMB()
	r.RefMsP50 = median(ref.samples)
	r.RefSpread = relSpread(ref.samples)
	r.RefSamples = len(ref.samples)
	if r.Traced {
		r.Layer["host.ref_ms_p50"], r.Layer["host.ref_spread"] = r.RefMsP50, r.RefSpread
		r.Layer["runtime.mallocs_per_input"] = r.Raw["mallocs_per_input"]
		r.Layer["runtime.gc_cycles_per_kinput"] = r.Raw["gc_cycles_per_kinput"]
		r.Layer["runtime.gc_pause_ms_total"] = r.Raw["gc_pause_ms_total"]
	}
	if r.Attempted > 0 {
		r.Extra["dice.failed_ops_share"] = float64(r.Failed) / float64(r.Attempted)
	}
	// A ratio over an empty layer is 0/0; JSON has no such number.
	for _, m := range []map[string]float64{r.Metrics, r.Extra, r.Layer, r.Raw} {
		for name, v := range m {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				m[name] = 0
			}
		}
	}
}

// measureCampaign is the untraced run of a campaign or dist workload.
func measureCampaign(w *workload, seed int64, sz sizes, ref *refKernel) (*result, error) {
	r := newResult(w, seed, sz, false)
	su, err := measureSetups(w, seed, sz.Setups, ref)
	if err != nil {
		return nil, err
	}
	su.report(r)
	e := su.env
	cuts := append(su.column(func(x setupSample) float64 { return x.Cut * 1e3 }), measureCuts(e, ref)...)
	r.Metrics["pause_ms_p50"] = median(cuts)
	r.Timings["pause_ms"] = summarize(cuts)

	run := func(slot int) (batch, error) { return e.runLocal(seed+int64(slot), 1) }
	if w.kind == kindDist {
		run = func(slot int) (batch, error) { return e.runDist(seed+int64(slot), distOptions{}) }
	}
	// Warm-up, discarded: one centralized batch, or on dist the in-process
	// federated campaign of every slot, which is also the reference the
	// distributed fingerprints must equal.
	var reference []batch
	if w.kind == kindDist {
		for s := 0; s < sz.Seeds; s++ {
			b, err := e.runLocal(seed+int64(s), 1)
			if err != nil {
				return nil, fmt.Errorf("in-process reference, slot %d: %w", s, err)
			}
			reference = append(reference, b)
		}
	} else if sz.Repeats > 1 { // a single-repeat smoke run times nothing worth warming
		if _, err := run(0); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	slots, err := runTimed(sz, ref, run)
	if err != nil {
		return nil, err
	}
	reportTimed(r, slots)
	for s, b := range reference {
		got := slots[s][0]
		if got.Fingerprint != b.Fingerprint || got.Inputs != b.Inputs {
			r.failOp(1, "slot %d: distributed run (%d inputs, %.12s) differs from the in-process campaign (%d inputs, %.12s)",
				s, got.Inputs, got.Fingerprint, b.Inputs, b.Fingerprint)
		}
	}
	if w.kind == kindDist {
		wire, inputs := 0, 0
		for _, reps := range slots {
			for _, b := range reps {
				wire += b.Remote.BaselineBytes + b.Remote.ShardBytes + b.Remote.ResultBytes
				inputs += b.Inputs
			}
		}
		r.Extra["control.wire_bytes_per_input"] = float64(wire) / float64(inputs)
	}
	return r, nil
}

// measureLive is the untraced run of the soak.
func measureLive(w *workload, seed int64, sz sizes, ref *refKernel) (*result, *soak, error) {
	r := newResult(w, seed, sz, false)
	su, err := measureSetups(w, seed, sz.Setups, ref)
	if err != nil {
		return nil, nil, err
	}
	su.report(r)
	runtime.GC()
	m0 := readMem()
	sk, err := su.env.runSoak(sz, ref, nil)
	if err != nil {
		return nil, nil, err
	}
	mem := readMem().sub(m0)
	reportSoak(r, sk, sz, mem)
	return r, sk, nil
}

// reportSoak reduces a soak to the end-to-end metrics and runs its checks.
//
// The soak's unit of work is the shadow execution (epochRow.executions): an
// epoch's cost follows campaign inputs plus minimiser replays, while the split
// between the two follows how many findings that seed's churn happened to
// surface. Per campaign input alone, ten seeds spread by 20% in throughput and
// 14% in allocation; per execution by 9% and 1.5%.
func reportSoak(r *result, sk *soak, sz sizes, mem memCounters) {
	var rates, rawRates, pauses, rawPauses, quiet, rawQuiet []float64
	deltaBytes, disclosed, executions := 0, 0, 0
	churn := sk.churnRows(sz)
	for _, row := range churn {
		rates = append(rates, float64(row.executions())/(row.Wall.Seconds()*row.Factor))
		rawRates = append(rawRates, float64(row.executions())/row.Wall.Seconds())
		r.Batches = append(r.Batches, batchRecord{Repeat: row.Seq, Inputs: row.executions(), Seconds: row.Wall.Seconds(), Factor: row.Factor})
		deltaBytes += row.DeltaBytes
	}
	for _, row := range sk.Rows {
		pauses = append(pauses, row.Pause.Seconds()*1e3*row.Factor)
		rawPauses = append(rawPauses, row.Pause.Seconds()*1e3)
		disclosed += row.Disclosed
		executions += row.executions()
	}
	for _, row := range sk.quietRows() {
		quiet = append(quiet, row.Wall.Seconds()*1e3*row.Factor)
		rawQuiet = append(rawQuiet, row.Wall.Seconds()*1e3)
	}
	inputs := sk.Stats.InputsExplored
	r.Metrics["inputs_per_s"] = median(rates)
	r.Raw["inputs_per_s"] = median(rawRates)
	r.Timings["epoch_executions_per_s"] = summarize(rates)
	r.Metrics["pause_ms_p50"] = median(pauses)
	r.Raw["pause_ms_p50"] = median(rawPauses)
	r.Timings["pause_ms"] = summarize(pauses)
	r.Extra["live.quiet_epoch_ms_p50"] = median(quiet)
	r.Raw["live.quiet_epoch_ms_p50"] = median(rawQuiet)
	r.Timings["quiet_epoch_ms"] = summarize(quiet)
	if len(churn) > 0 {
		r.Extra["live.delta_bytes_per_epoch"] = float64(deltaBytes) / float64(len(churn))
	}
	r.Extra["live.first_finding_epoch"] = float64(sk.FirstEpoch)
	r.reportMemory(mem, executions, 0)
	if inputs > 0 {
		// Only campaign inputs are checked through the accounted interface.
		r.Metrics["disclosed_bytes_per_input"] = float64(disclosed) / float64(inputs)
	}
	// No two epochs of a soak do the same work (and a quiet epoch's time is
	// bimodal with the collector), so the host's steadiness is read off the
	// reference samples taken between them.
	var refs []float64
	for _, row := range sk.Rows {
		if row.RefAfter > 0 {
			refs = append(refs, row.RefAfter)
		}
	}
	r.Disturbance = disturbanceOf([][]float64{refs})

	r.Attempted = inputs + sk.Findings
	r.failOp(sk.Findings-sk.Reverified, "%d of %d findings did not re-verify on a cold clone", sk.Findings-sk.Reverified, sk.Findings)
	if sk.Pool.Leases != sk.Pool.Releases {
		r.failOp(1, "%d leases but %d releases", sk.Pool.Leases, sk.Pool.Releases)
	}
	if len(sk.Rows) != sz.Churn+sz.Quiet {
		r.fail("soak reported %d epochs, want %d", len(sk.Rows), sz.Churn+sz.Quiet)
	}
	if sk.Findings == 0 {
		r.fail("soak found nothing: both planted faults went undetected")
	}
	// Every epoch after the first idle one captures the same state and must
	// dedupe (the first idle epoch still sees the last churn settle).
	for _, row := range sk.Rows {
		if row.Seq > sz.Churn+1 && (row.Campaigns != 0 || row.CampaignsDeduped == 0) {
			r.fail("quiet epoch %d ran %d campaigns (deduped %d)", row.Seq, row.Campaigns, row.CampaignsDeduped)
			break
		}
	}
	r.Observed.Slots = []goldenSlot{{Inputs: inputs, Fingerprint: sk.Fingerprint, Detections: sk.Findings, Reverified: sk.Reverified}}
	r.Observed.FirstFindingEpoch = sk.FirstEpoch
	r.Observed.ChurnEpochs = sz.Churn
}
