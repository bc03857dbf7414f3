package solver_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/concolic/expr"
	"github.com/dice-project/dice/internal/concolic/solver"
	"github.com/dice-project/dice/internal/concolic/updatepaths"
)

var deepest = sync.OnceValues(func() (*concolic.Machine, error) {
	machines, err := updatepaths.Record(updatepaths.Deployments()[2], 1, 40)
	if err != nil {
		return nil, err
	}
	var best *concolic.Machine
	for _, m := range machines {
		if best == nil || len(m.Path()) > len(best.Path()) {
			best = m
		}
	}
	return best, nil
})

// BenchmarkSolve is the cost of one flip of a recorded demo27 UPDATE-handler
// path cut to 4, 16 and 64 branches: a session answering the path's flips in
// order (its Reset included) against the from-scratch reference solving each
// flipped prefix on its own.
func BenchmarkSolve(b *testing.B) {
	m, err := deepest()
	if err != nil {
		b.Fatal(err)
	}
	opts := solver.Options{Seed: 2}
	for _, depth := range []int{4, 16, 64} {
		if len(m.Path()) < depth {
			b.Fatalf("deepest recorded path has %d branches", len(m.Path()))
		}
		path := make([]*expr.Expr, depth)
		flips := make([]*expr.Expr, depth)
		for i, br := range m.Path()[:depth] {
			path[i], flips[i] = br.Cond, expr.Not(br.Cond)
		}
		b.Run(fmt.Sprintf("depth-%d/session", depth), func(b *testing.B) {
			sess := solver.NewSession(opts)
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				i := n % depth
				if i == 0 {
					sess.Reset(path, m.Assignment())
				}
				sess.Query(i, flips[i])
			}
		})
		b.Run(fmt.Sprintf("depth-%d/reference", depth), func(b *testing.B) {
			b.ReportAllocs()
			query := make([]*expr.Expr, 0, depth)
			for n := 0; n < b.N; n++ {
				i := n % depth
				query = append(append(query[:0], path[:i]...), flips[i])
				solver.ReferenceSolve(query, m.Assignment(), opts)
			}
		})
	}
}
