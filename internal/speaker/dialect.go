// Package speaker is the one emulated BGP router of the reproduction. The
// paper's heterogeneity is different implementations of one protocol
// disagreeing where the RFC lets them; here that disagreement is a Dialect —
// a decision policy, a configuration text form and a few observable quirks —
// laid over a single Router: one session FSM, one UPDATE pipeline with the
// concolic instrumentation DiCE needs, one set of local invariant checks, one
// checkpoint/image/state model and one canonical codec payload.
//
// A Router speaks the BGP-4 wire format from package bgp over the netem
// transport, keeps the three RIBs from package rib, evaluates interpreted
// import/export policies from package policy, and exposes the hooks DiCE
// drives:
//
//   - ExploreNextUpdate marks the next UPDATE from a chosen peer as the
//     symbolic input of a concolic execution (paper §3: NLRI and path
//     attribute TLVs are symbolic, as is the "locally most preferred"
//     condition);
//   - TakeCheckpoint, Dialect.Restore and ResetTo provide the lightweight
//     node checkpoints that DiCE's consistent snapshots are made of;
//   - CheckInvariants exposes the local state checks whose verdicts are
//     shared across domains through the narrow information-sharing interface.
//
// internal/bird, internal/frr and internal/obgpd each contribute one Dialect
// and register its Backend; nothing in this package names an implementation.
package speaker

import (
	"fmt"

	"github.com/dice-project/dice/internal/bgp/rib"
	"github.com/dice-project/dice/internal/node"
)

// Dialect describes everything that distinguishes one BGP implementation
// from another as far as a test or a byte on the wire can observe. The core
// reads behaviour differences from these fields and never branches on Name.
type Dialect struct {
	// Name is the implementation tag: the registry key, the tag checkpoints
	// carry, and the prefix of error messages and concolic branch sites.
	Name string
	// Decision is the final tie-break order of the RIB decision process, the
	// one place RFC 4271 §9.1.2.2 lets implementations legally disagree.
	Decision rib.DecisionPolicy
	// Render lowers the semantic configuration into the implementation's
	// configuration text, and ParseConfig is its inverse. The text is what a
	// checkpoint carries across process boundaries.
	Render      func(cfg *node.Config) string
	ParseConfig func(text string) (*node.Config, error)
	// DiscreteConfig marks a dialect whose text names only the policies: the
	// canonical payload then carries name-independent configuration (AS,
	// router ID, networks, neighbors, timers) as discrete fields around the
	// text instead of inside it.
	DiscreteConfig bool
	// EngineStats marks a dialect whose canonical payload carries the
	// EngineStats counters between the shared counters and the event log.
	EngineStats bool
	// StateCodes is the number SessionRecord.State carries for each FSM
	// state, indexed by SessionState.
	StateCodes [4]int
}

// Backend returns the registry entry that builds, decodes and restores
// routers of this dialect.
func (d *Dialect) Backend() node.Backend {
	return node.Backend{
		Name:     d.Name,
		Decision: d.Decision,
		Build: func(cfg *node.Config) (node.Router, error) {
			return d.New(cfg)
		},
		ImageOf: func(cp node.Checkpoint) (node.Image, error) {
			own, err := d.own(cp)
			if err != nil {
				return nil, err
			}
			return d.ImageOf(own)
		},
		DecodeState: func(cp node.Checkpoint) (node.State, error) {
			own, err := d.own(cp)
			if err != nil {
				return nil, err
			}
			return d.DecodeState(own)
		},
		Restore: func(nim node.Image, nst node.State) (node.Router, error) {
			im, st, err := d.ownHalves(nim.Name(), nim, nst)
			if err != nil {
				return nil, err
			}
			return im.Restore(st)
		},
		EncodeCanonical: func(cp node.Checkpoint) ([]byte, error) {
			own, err := d.own(cp)
			if err != nil {
				return nil, err
			}
			return d.encodeCanonical(own), nil
		},
		DecodeCanonical: func(payload []byte) (node.Checkpoint, error) {
			return d.decodeCanonical(payload)
		},
	}
}

// own narrows a checkpoint to this dialect's, rejecting other backends'.
func (d *Dialect) own(cp node.Checkpoint) (*Checkpoint, error) {
	own, ok := cp.(*Checkpoint)
	if !ok || own.Impl != d.Name {
		return nil, fmt.Errorf("%s: checkpoint for %s is a %s %T, not a %s checkpoint",
			d.Name, cp.NodeName(), cp.Implementation(), cp, d.Name)
	}
	return own, nil
}

// ownHalves narrows a decoded image and state to this dialect's.
func (d *Dialect) ownHalves(name string, nim node.Image, nst node.State) (*Image, *State, error) {
	im, ok := nim.(*Image)
	if !ok || im.d != d {
		return nil, nil, fmt.Errorf("%s: restore %s: image is %T, not a %s image", d.Name, name, nim, d.Name)
	}
	st, ok := nst.(*State)
	if !ok || st.d != d {
		return nil, nil, fmt.Errorf("%s: restore %s: state is %T, not a %s state", d.Name, name, nst, d.Name)
	}
	return im, st, nil
}
