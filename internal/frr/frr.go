// Package frr is the FRR dialect of the shared BGP speaker
// (internal/speaker): it registers as node.Router implementation "frr" and
// speaks the same BGP-4 wire format and evaluates the same interpreted
// policies as every other dialect — a federation member must interoperate.
// What makes it frr:
//
//   - its RIB decision process breaks final ties on the neighbor address
//     before the originator router ID (rib.DecisionPeerAddressFirst), the
//     deterministic stand-in for FRR's route-age preference and a legal
//     divergence from bird's router-ID-first order (RFC 4271 §9.1.2.2
//     leaves the tail of the ladder to the implementation);
//   - its configuration dialect is FRR vtysh-style text with route-maps
//     (dialect.go), which is also the serialization its checkpoints carry
//     across process boundaries.
//
// The checker.CrossImplDivergence property exists because of this package:
// under identical inputs, a dual-homed node's best path can depend on which
// dialect it runs.
package frr

import (
	"github.com/dice-project/dice/internal/bgp/rib"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/speaker"
)

// Implementation is this backend's registry tag.
const Implementation = "frr"

// Decision is the backend's RIB tie-breaking policy.
const Decision = rib.DecisionPeerAddressFirst

// Dialect is the frr descriptor of the shared speaker core.
var Dialect = &speaker.Dialect{
	Name:        Implementation,
	Decision:    Decision,
	Render:      Render,
	ParseConfig: ParseConfig,
	StateCodes:  [4]int{0, 1, 2, 3},
}

func init() { node.Register(Dialect.Backend()) }

// Router is a speaker running the frr dialect.
type Router = speaker.Router

// New builds an frr router from the semantic configuration.
func New(cfg *node.Config) (*Router, error) { return Dialect.New(cfg) }
