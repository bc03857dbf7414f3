// Package obgpd is the OpenBGPD dialect of the shared BGP speaker
// (internal/speaker): it registers as node.Router implementation "obgpd" and
// interoperates with the bird and frr dialects on the wire — same BGP-4
// messages, same interpreted policies. What makes it obgpd:
//
//   - its RIB decision process breaks final ties on the oldest route
//     (rib.DecisionOldestFirst, the lowest Loc-RIB arrival stamp), the
//     deterministic stand-in for OpenBGPD's route-age stability preference
//     and a third legal reading of the RFC 4271 §9.1.2.2 tail alongside
//     bird's router-ID order and frr's neighbor-address order;
//   - its configuration dialect is bgpd.conf-style text with brace-nested
//     neighbor and filter blocks (dialect.go), which is also what its
//     checkpoints carry across process boundaries;
//   - its checkpoints carry the session-engine/RDE handoff counters
//     (speaker.EngineStats), mirroring OpenBGPD's process split;
//   - its session records number the FSM states the OpenBGPD way, with a
//     Connect state between Idle and OpenSent, so Established is 4.
//
// With three backends deployed, checker.CrossImplDivergence upgrades from
// a pairwise alarm to a voting oracle: a selection two backends agree on
// and one contradicts is majority-outvoted, a three-way split is pairwise
// legal. This package provides the third vote.
package obgpd

import (
	"github.com/dice-project/dice/internal/bgp/rib"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/speaker"
)

// Implementation is this backend's registry tag.
const Implementation = "obgpd"

// Decision is the backend's RIB tie-breaking policy.
const Decision = rib.DecisionOldestFirst

// Dialect is the obgpd descriptor of the shared speaker core.
var Dialect = &speaker.Dialect{
	Name:        Implementation,
	Decision:    Decision,
	Render:      Render,
	ParseConfig: ParseConfig,
	EngineStats: true,
	StateCodes:  [4]int{0, 2, 3, 4},
}

func init() { node.Register(Dialect.Backend()) }

// Router is a speaker running the obgpd dialect.
type Router = speaker.Router

// New builds an obgpd router from the semantic configuration.
func New(cfg *node.Config) (*Router, error) { return Dialect.New(cfg) }
