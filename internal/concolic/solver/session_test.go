package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/concolic/expr"
)

// TestReplayMatchesSource: rand.New over a replayed stream draws exactly what
// rand.New over a fresh source of the same seed draws, Int63 and Intn
// interleaved, so replaying is invisible to every query.
func TestReplayMatchesSource(t *testing.T) {
	for _, seed := range []int64{1, -1, math.MaxInt64} {
		src := newReplay(seed)
		got, want := rand.New(&src), rand.New(rand.NewSource(seed))
		for i := 0; i < 10000; i++ {
			if i%3 == 0 {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, i, g, w)
				}
				continue
			}
			n := 1 + i%1000
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("seed %d draw %d: Intn(%d) %d, want %d", seed, i, n, g, w)
			}
		}
		// A second replay of the same stream starts over from its first draw.
		again := replay{s: src.s}
		fresh := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			if g, w := again.Int63(), fresh.Int63(); g != w {
				t.Fatalf("seed %d replayed draw %d: %d, want %d", seed, i, g, w)
			}
		}
	}
}

// TestFullCoverageCountsExclusions is the regression test for the coverage
// check that walked the whole domain to count exclusions: x*x == 7 has no
// solution at any width of at least 3 bits, so enumeration fails and the
// check runs over a full 16-, 32- and 64-bit domain (where the domain size
// wraps to 0). Every query must come back well inside a second, and agree
// with the reference.
func TestFullCoverageCountsExclusions(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, w := range []uint8{16, 32, 64} {
			x := expr.Var("x", w)
			for _, cs := range [][]*expr.Expr{
				{expr.Eq(expr.Mul(x, x), expr.Const(7, w))},
				{expr.Ne(x, expr.Const(0, w)), expr.Ne(x, expr.Const(5, w)), expr.Eq(expr.Mul(x, x), expr.Const(7, w))},
			} {
				got, want := Solve(cs, nil, Options{}), refSolve(cs, nil, Options{})
				if got.Status == StatusSat || got.Status != want.Status || got.Steps != want.Steps {
					t.Errorf("%d-bit %v: %v after %d steps, reference %v after %d", w, cs, got.Status, got.Steps, want.Status, want.Steps)
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("x*x == 7 not answered within 1s")
	}
}

// TestFullCoverageProvesUnsat: a small domain every value of which the
// candidate set lists (or excludes) is proven unsat by enumeration alone.
func TestFullCoverageProvesUnsat(t *testing.T) {
	x := expr.Var("x", 8)
	cs := []*expr.Expr{
		expr.Ult(x, expr.Const(40, 8)),
		expr.Ne(x, expr.Const(3, 8)),
		expr.Eq(expr.Mul(x, x), expr.Const(7, 8)),
	}
	res := Solve(cs, nil, Options{})
	if res.Status != StatusUnsat {
		t.Fatalf("got %v after %d steps, want unsat", res.Status, res.Steps)
	}
	if want := refSolve(cs, nil, Options{}); res.Steps != want.Steps {
		t.Fatalf("steps %d, reference %d", res.Steps, want.Steps)
	}
}

// TestSessionRewindsForEarlierQuery: a query for a shorter prefix than the
// last one re-propagates from the start and still matches the reference.
func TestSessionRewindsForEarlierQuery(t *testing.T) {
	x, y := expr.Var("x", 8), expr.Var("y", 8)
	path := []*expr.Expr{
		expr.Ugt(x, expr.Const(10, 8)),
		expr.Eq(y, expr.Const(4, 8)),
		expr.Ult(expr.Add(x, y), expr.Const(20, 8)),
	}
	seed := expr.Assignment{"x": 12, "y": 4}
	s := NewSession(Options{})
	s.Reset(path, seed)
	for _, i := range []int{2, 0, 1, 2} {
		query := append(path[:i:i], expr.Not(path[i]))
		got, want := s.Query(i, expr.Not(path[i])), refSolve(query, seed, Options{})
		if got.Status != want.Status || got.Steps != want.Steps || fmt.Sprint(got.Model) != fmt.Sprint(restrict(want.Model, query)) {
			t.Fatalf("flip %d: %+v, reference %+v", i, got, want)
		}
	}
}

func restrict(a expr.Assignment, cs []*expr.Expr) expr.Assignment {
	vars := map[string]uint8{}
	for _, c := range cs {
		c.Vars(vars)
	}
	out := expr.Assignment{}
	for name := range vars {
		if v, ok := a[name]; ok {
			out[name] = v
		}
	}
	return out
}
