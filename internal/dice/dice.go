// Package dice implements the DiCE orchestrator — the paper's core
// contribution. A Campaign runs the workflow of Figure 2 against a deployed
// (emulated) cluster, continuously and in parallel:
//
//  1. a Strategy plans exploration units — (explorer, peer) pairs whose
//     behaviour is explored — and the campaign triggers creation of one
//     consistent shadow snapshot made of lightweight per-node checkpoints
//     plus channel state;
//  2. a worker pool orchestrates exploration: each unit subjects its
//     explorer node, in isolated clones of the snapshot, to many possible
//     inputs — grammar-fuzzed BGP UPDATEs refined by concolic execution over
//     the node's message handler, policy interpreter and route-selection
//     condition. Clone executions are embarrassingly parallel: every worker
//     restores its own clone;
//  3. properties of the explored system state are checked through the narrow
//     information-sharing interface, and detections stream out on the
//     campaign's event channel as they are found, classified as operator
//     mistakes, policy conflicts or programming errors.
//
// Exploration runs alongside the deployed cluster but never mutates it: every
// input is evaluated on a fresh clone restored from the snapshot.
package dice

import (
	"errors"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/concolic"
)

// Detection records one property violation found during exploration.
type Detection struct {
	Violation checker.Violation
	Class     checker.FaultClass
	// InputIndex is the number of inputs that had been explored within the
	// unit when the violation was first observed (1-based).
	InputIndex int
	// Input is the input whose exploration surfaced the violation.
	Input *concolic.Input
	// Elapsed is the wall-clock time from the start of the campaign to the
	// detection.
	Elapsed time.Duration
}

// Result summarizes one exploration unit (one explorer/peer pair); a
// Campaign returns one per unit inside its CampaignResult.
type Result struct {
	Explorer string
	FromPeer string
	// Domain is the administrative domain that ran the unit (federated
	// campaigns only; empty otherwise).
	Domain string

	SnapshotDuration time.Duration
	SnapshotBytes    int
	SnapshotNodes    int
	InFlightMessages int

	InputsExplored int
	Detections     []Detection

	// DisclosedBytes is the total number of bytes that crossed domain
	// boundaries through the narrow checking interface, across all explored
	// inputs; FullStateBytes is what a single full-state exchange would have
	// cost, for comparison. In a federated campaign this counts the
	// checker.Summary traffic published on the federation bus instead of
	// per-verdict accounting.
	DisclosedBytes int
	FullStateBytes int

	Duration      time.Duration
	ExplorerStats concolic.Stats
}

// DetectionsByClass groups detections by fault class.
func (r *Result) DetectionsByClass() map[checker.FaultClass][]Detection {
	out := make(map[checker.FaultClass][]Detection)
	for _, d := range r.Detections {
		out[d.Class] = append(out[d.Class], d)
	}
	return out
}

// FirstDetection returns the earliest detection of the given class, or nil.
func (r *Result) FirstDetection(class checker.FaultClass) *Detection {
	for i := range r.Detections {
		if r.Detections[i].Class == class {
			return &r.Detections[i]
		}
	}
	return nil
}

// Detected reports whether any fault of the given class was found.
func (r *Result) Detected(class checker.FaultClass) bool {
	return r.FirstDetection(class) != nil
}

// wireUpdate wraps an UPDATE body with the BGP message header.
func wireUpdate(body []byte) []byte { return bgp.FrameUpdate(body) }

// ErrNoTopology is returned when a campaign is constructed without a topology.
var ErrNoTopology = errors.New("dice: campaign requires a topology")
