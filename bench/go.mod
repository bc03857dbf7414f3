// The benchmark is a module of its own so that it builds from its directory
// alone; the replace makes the parent's internal packages importable (the
// module path keeps this module inside the parent's "internal" tree).
module github.com/dice-project/dice/bench

go 1.24

require github.com/dice-project/dice v0.0.0

replace github.com/dice-project/dice => ../
