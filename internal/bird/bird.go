// Package bird is the BIRD dialect of the shared BGP speaker
// (internal/speaker) — the role the BIRD daemon plays in the paper's
// prototype. It registers as implementation "bird" and is the default for
// topology nodes that do not tag an implementation. What makes it bird:
//
//   - its RIB decision process breaks final ties on the peer router ID
//     before the peer name (rib.DecisionRouterIDFirst);
//   - its configuration text is the BIRD-filter policy syntax of package
//     bgp/policy, which names only the policies, so its checkpoints carry
//     the rest of the configuration as discrete fields.
package bird

import (
	"sort"
	"strings"

	"github.com/dice-project/dice/internal/bgp/policy"
	"github.com/dice-project/dice/internal/bgp/rib"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/speaker"
)

// Implementation is this backend's registry tag.
const Implementation = "bird"

// Dialect is the bird descriptor of the shared speaker core.
var Dialect = &speaker.Dialect{
	Name:           Implementation,
	Decision:       rib.DecisionRouterIDFirst,
	Render:         Render,
	ParseConfig:    ParseConfig,
	DiscreteConfig: true,
	StateCodes:     [4]int{0, 1, 2, 3},
}

// init registers the backend so implementation-neutral code (cluster builds,
// snapshot stores) can construct and restore bird routers by tag.
func init() { node.Register(Dialect.Backend()) }

// The router and its records are the shared core's, and the semantic
// configuration types live in package node; the aliases keep this package's
// historical API intact.
type (
	// Router is a speaker running the bird dialect.
	Router = speaker.Router
	// Checkpoint is a speaker checkpoint.
	Checkpoint = speaker.Checkpoint
	// Config is the static configuration of one router.
	Config = node.Config
	// NeighborConfig describes one BGP session of a router.
	NeighborConfig = node.NeighborConfig
)

// New builds a bird router from its configuration.
func New(cfg *Config) (*Router, error) { return Dialect.New(cfg) }

// MustNew is New for static configurations in tests and examples.
func MustNew(cfg *Config) *Router {
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Render serializes the configuration's policies in the BIRD-filter syntax,
// sorted by name.
func Render(cfg *node.Config) string {
	names := make([]string, 0, len(cfg.Policies))
	for name := range cfg.Policies {
		names = append(names, name)
	}
	sort.Strings(names)
	policies := make([]string, 0, len(names))
	for _, name := range names {
		policies = append(policies, cfg.Policies[name].String())
	}
	return strings.Join(policies, "\n")
}

// ParseConfig parses BIRD-filter policy text back into the policies of a
// configuration; the checkpoint's discrete fields supply the rest.
func ParseConfig(text string) (*node.Config, error) {
	policies, err := policy.ParsePolicies(text)
	if err != nil {
		return nil, err
	}
	return &node.Config{Policies: policies}, nil
}
