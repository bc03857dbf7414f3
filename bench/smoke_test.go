package main

import (
	"path/filepath"
	"testing"
)

// TestShortSmoke runs one small batch of every workload through the real
// program with every correctness check on, the golden included.
func TestShortSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			ref := newRefKernel()
			sz := w.sizesFor(defaultSeconds, true)
			var r *result
			var err error
			if w.kind == kindLive {
				r, _, err = measureLive(w, defaultSeed, sz, ref)
			} else {
				r, err = measureCampaign(w, defaultSeed, sz, ref)
			}
			if err != nil {
				t.Fatal(err)
			}
			verifyGolden(r)
			r.finish(ref)
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("correct %v, failed %d of %d: %v", r.Correct, r.Failed, r.Attempted, r.Problems)
			}
			for _, m := range endToEnd {
				if v, ok := r.Metrics[m.Name]; !ok || v <= 0 {
					t.Errorf("%s = %v, want a positive value", m.Name, v)
				}
			}
			for _, m := range workloadEndToEnd {
				if _, ok := r.Extra[m.Name]; ok != m.appliesTo(w.name) {
					t.Errorf("%s reported: %v, applies: %v", m.Name, ok, m.appliesTo(w.name))
				}
			}
			if len(r.Observed.Slots) == 0 || r.Observed.Slots[0].Detections == 0 {
				t.Errorf("no detections observed: %+v", r.Observed)
			}
		})
	}
}

// TestTracedSmoke checks the replica against the real campaign on one small
// batch and that the traced run fills every declared layer metric's slot.
func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("three batches of campaign-hetero3")
	}
	w := workloadByName("campaign-hetero3")
	ref := newRefKernel()
	dir := t.TempDir()
	r, err := traceCampaign(w, defaultSeed, w.sizesFor(defaultSeconds, true), ref, dir)
	if err != nil {
		t.Fatal(err)
	}
	verifyGolden(r)
	r.finish(ref)
	if !r.Correct {
		t.Fatalf("traced run incorrect: %v", r.Problems)
	}
	for _, name := range []string{"cluster.reset_us", "netem.settle_us", "checker.check_us", "concolic.search_us",
		"bird.reset_us", "frr.reset_us", "obgpd.reset_us", "checkpoint.encode_ms", "dice.replica_ratio", "trace.spans", "host.ref_ms_p50"} {
		if r.Layer[name] <= 0 {
			t.Errorf("%s = %v, want a positive value", name, r.Layer[name])
		}
	}
	if share := r.Layer["dice.unaccounted_share"]; share < 0 || share > 0.3 {
		t.Errorf("dice.unaccounted_share = %v", share)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "trace-*.json")); len(matches) != 1 {
		t.Errorf("trace files written: %v", matches)
	}
}
