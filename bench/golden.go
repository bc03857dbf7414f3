package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// defaultSeed is the seed the checked-in goldens pin; goldenSlots how many
// seed slots -update-golden records for a campaign workload.
const (
	defaultSeed = 1
	goldenSlots = 5
)

//go:embed golden
var goldenFS embed.FS

// goldenSlot is what one seed slot (or the one soak) must produce.
type goldenSlot struct {
	Inputs      int    `json:"inputs"`
	Fingerprint string `json:"fingerprint"` // SHA-256 over the sorted detection or finding keys
	Detections  int    `json:"detections"`
	Reverified  int    `json:"reverified,omitempty"`
}

// golden pins a workload's outputs at the default seed. Slot s is the campaign
// with seed defaultSeed+s; a run with fewer slots checks the ones it has. The
// soak's single slot depends on how long the deployment churned, so it is
// pinned together with that count.
type golden struct {
	Workload          string       `json:"workload"`
	Seed              int64        `json:"seed"`
	ChurnEpochs       int          `json:"churn_epochs,omitempty"`
	Slots             []goldenSlot `json:"slots"`
	FirstFindingEpoch int          `json:"first_finding_epoch,omitempty"`
}

func loadGolden(workload string) (*golden, error) {
	data, err := goldenFS.ReadFile("golden/" + workload + ".json")
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", workload, err)
	}
	return &g, nil
}

// verifyGolden compares the run's outputs with the checked-in golden. Other
// seeds have no golden: they rely on the self-consistency checks (repeat k ≡
// repeat 0, distributed ≡ in-process, replica ≡ campaign) alone.
func verifyGolden(r *result) {
	if r.Seed != defaultSeed {
		return
	}
	g, err := loadGolden(r.Workload)
	if errors.Is(err, fs.ErrNotExist) {
		r.fail("no golden for %s: run with -update-golden", r.Workload)
		return
	}
	if err != nil {
		r.fail("%v", err)
		return
	}
	o := r.Observed
	if g.ChurnEpochs != o.ChurnEpochs {
		r.warn("golden pins a %d-epoch churn, this run churned %d: outputs not compared", g.ChurnEpochs, o.ChurnEpochs)
		return
	}
	if g.FirstFindingEpoch != o.FirstFindingEpoch {
		r.failOp(1, "first finding in epoch %d, golden says %d", o.FirstFindingEpoch, g.FirstFindingEpoch)
	}
	for s, got := range o.Slots {
		if s >= len(g.Slots) {
			r.warn("golden has %d slots, slot %d not compared", len(g.Slots), s)
			break
		}
		if got != g.Slots[s] {
			r.failOp(1, "slot %d: got %+v, golden %+v", s, got, g.Slots[s])
		}
	}
}

// writeGolden stores the run's outputs as the new golden.
func writeGolden(dir string, r *result) error {
	if r.Seed != defaultSeed {
		return fmt.Errorf("goldens pin seed %d, not %d", defaultSeed, r.Seed)
	}
	data, err := json.MarshalIndent(r.Observed, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.Workload+".json"), append(data, '\n'), 0o644)
}
