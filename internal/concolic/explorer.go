package concolic

import (
	"container/heap"
	"errors"
	"sort"

	"github.com/dice-project/dice/internal/concolic/expr"
	"github.com/dice-project/dice/internal/concolic/solver"
)

// ExecuteFunc runs the program under test on one input, using the machine for
// symbolic instrumentation. A non-nil error marks the execution as failing
// (a crash, an invariant violation, or a detected property violation); the
// explorer records it and keeps exploring.
type ExecuteFunc func(in *Input, m *Machine) error

// DefaultMaxBranchesPerPath is the recorded-path bound applied when
// ExplorerOptions.MaxBranchesPerPath is unset. It matches the machine-level
// default, so the limit is explicit in the explorer's resolved options
// instead of silently looking like "unlimited".
const DefaultMaxBranchesPerPath = 4096

// ExplorerOptions configure an Explorer.
type ExplorerOptions struct {
	// MaxExecutions bounds the total number of program executions. Zero
	// selects 256.
	MaxExecutions int
	// MaxBranchesPerPath bounds the recorded path length per execution.
	// Zero selects DefaultMaxBranchesPerPath.
	MaxBranchesPerPath int
	// MaxQueue bounds the number of pending candidate inputs. Zero selects
	// 4096.
	MaxQueue int
	// Solver configures constraint solving.
	Solver solver.Options
	// Seed makes exploration deterministic. Negative seeds are as valid as
	// positive ones.
	Seed int64
}

func (o ExplorerOptions) withDefaults() ExplorerOptions {
	if o.MaxExecutions <= 0 {
		o.MaxExecutions = 256
	}
	if o.MaxBranchesPerPath <= 0 {
		o.MaxBranchesPerPath = DefaultMaxBranchesPerPath
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 4096
	}
	if o.Solver.Seed == 0 {
		// Derive the solver seed from the exploration seed, injectively and
		// never landing on the "unset" sentinel 0: non-negative seeds shift
		// by one (so the common Seed 0 default derives 1, as before) and
		// negative seeds map to themselves. The two ranges stay disjoint, so
		// distinct exploration seeds always drive distinct solver decisions,
		// and — since no derivation yields 0 — withDefaults is idempotent:
		// a later defaulting pass can never silently re-seed the solver
		// (the old Seed == -1 → 0 hole that broke determinism for negative
		// seeds).
		if o.Seed >= 0 {
			o.Solver.Seed = o.Seed + 1
		} else {
			o.Solver.Seed = o.Seed
		}
	}
	return o
}

// ExecError records a failing execution.
type ExecError struct {
	Input *Input
	Err   error
	Path  []Branch
}

// Stats aggregates exploration counters.
type Stats struct {
	Executions    int
	UniquePaths   int
	UniqueInputs  int
	BranchesSeen  int
	CoverageSites int
	SolverQueries int
	// SolverSteps sums the candidate assignments the solver evaluated over
	// all queries (solver.Result.Steps): how hard it worked, not how often.
	SolverSteps    int
	SolverSat      int
	SolverUnsat    int
	SolverUnknown  int
	QueueOverflows int
	Truncated      int
}

// Report is the result of an exploration run.
type Report struct {
	Stats  Stats
	Errors []ExecError
}

// Failed reports whether any execution returned an error.
func (r *Report) Failed() bool { return len(r.Errors) > 0 }

// candidate is a pending test input in the exploration frontier.
type candidate struct {
	input *Input
	// depth is the index of the first branch this candidate is allowed to
	// negate; branches before it were inherited from the parent path
	// (generational search, as in SAGE/Oasis).
	depth int
	// score orders the frontier: candidates expected to reach new coverage
	// first.
	score int
	seq   int
}

// frontier is a priority queue of candidates ordered by score (highest
// first), ties broken by insertion order (lowest seq first) so exploration
// stays deterministic. seq is unique per candidate, making the order total:
// the dequeue sequence is identical to a linear scan for the best candidate,
// but each operation is O(log n) instead of O(n).
type frontier []*candidate

func (f frontier) Len() int { return len(f) }
func (f frontier) Less(i, j int) bool {
	if f[i].score != f[j].score {
		return f[i].score > f[j].score
	}
	return f[i].seq < f[j].seq
}
func (f frontier) Swap(i, j int) { f[i], f[j] = f[j], f[i] }
func (f *frontier) Push(x interface{}) {
	*f = append(*f, x.(*candidate))
}
func (f *frontier) Pop() interface{} {
	old := *f
	n := len(old)
	c := old[n-1]
	old[n-1] = nil
	*f = old[:n-1]
	return c
}

// Explorer drives concolic exploration: it maintains a frontier of candidate
// inputs, executes them through the user-provided ExecuteFunc, and derives
// new candidates by negating recorded branch constraints and solving for
// inputs that realize the negation.
type Explorer struct {
	execute ExecuteFunc
	opts    ExplorerOptions
	// session answers every flip of a path; conds is its reused path.
	session *solver.Session
	conds   []*expr.Expr

	queue      frontier
	seenInput  map[uint64]bool
	seenPath   map[uint64]bool
	coverage   map[string]bool
	nextSeq    int
	stats      Stats
	errorsList []ExecError
}

// NewExplorer returns an Explorer over the given program.
func NewExplorer(execute ExecuteFunc, opts ExplorerOptions) *Explorer {
	if execute == nil {
		panic("concolic: nil ExecuteFunc")
	}
	opts = opts.withDefaults()
	return &Explorer{
		execute:   execute,
		opts:      opts,
		session:   solver.NewSession(opts.Solver),
		seenInput: make(map[uint64]bool),
		seenPath:  make(map[uint64]bool),
		coverage:  make(map[string]bool),
	}
}

// AddSeed adds an initial input to the frontier. Seeds typically come from
// observed live traffic or from the grammar-based fuzzer.
func (e *Explorer) AddSeed(in *Input) {
	e.enqueue(&candidate{input: in.Clone(), depth: 0, score: 1 << 20})
}

// enqueue adds a candidate unless its input was already scheduled.
func (e *Explorer) enqueue(c *candidate) {
	h := c.input.Hash()
	if e.seenInput[h] {
		return
	}
	if len(e.queue) >= e.opts.MaxQueue {
		e.stats.QueueOverflows++
		return
	}
	e.seenInput[h] = true
	e.stats.UniqueInputs++
	c.seq = e.nextSeq
	e.nextSeq++
	heap.Push(&e.queue, c)
}

// dequeue removes the best-scoring candidate (ties broken by insertion order
// for determinism) in O(log n).
func (e *Explorer) dequeue() *candidate {
	if len(e.queue) == 0 {
		return nil
	}
	return heap.Pop(&e.queue).(*candidate)
}

// Pending returns the number of candidates waiting to be executed.
func (e *Explorer) Pending() int { return len(e.queue) }

// Stats returns a snapshot of the exploration counters.
func (e *Explorer) Stats() Stats { return e.stats }

// Errors returns the failing executions recorded so far.
func (e *Explorer) Errors() []ExecError { return e.errorsList }

// ErrNoSeeds is returned by Run when the frontier is empty at the start.
var ErrNoSeeds = errors.New("concolic: exploration started with no seed inputs")

// Run executes candidates until the frontier is empty or the execution budget
// is exhausted, and returns a report.
func (e *Explorer) Run() (*Report, error) {
	return e.RunWhile(func() bool { return true })
}

// RunWhile is Run with a continuation predicate checked before every
// execution. The DiCE orchestrator uses it to honor context cancellation
// mid-exploration; the report covers whatever executed before the predicate
// turned false.
func (e *Explorer) RunWhile(keepGoing func() bool) (*Report, error) {
	if len(e.queue) == 0 {
		return nil, ErrNoSeeds
	}
	for e.stats.Executions < e.opts.MaxExecutions && keepGoing() {
		c := e.dequeue()
		if c == nil {
			break
		}
		e.Step(c.input, c.depth)
	}
	return &Report{Stats: e.stats, Errors: e.errorsList}, nil
}

// Step executes a single input (with the given generational depth), records
// its path, and derives new candidates from it: for every branch at or
// beyond depth it asks the explorer's solver session for an input that keeps
// the path before the branch and takes the other side. The session
// propagates the path once, so a flip costs what the flipped branch costs,
// and its answers equal a from-scratch solver.Solve of each flipped prefix.
// It is exported so that the DiCE orchestrator can interleave exploration
// with snapshot cloning and property checking.
func (e *Explorer) Step(in *Input, depth int) (m *Machine, err error) {
	m = NewMachine(in.Clone(), MachineOptions{MaxBranches: e.opts.MaxBranchesPerPath})
	err = e.execute(m.Input(), m)
	e.stats.Executions++
	if m.Truncated() {
		e.stats.Truncated++
	}
	path := m.Path()
	e.stats.BranchesSeen += len(path)
	if err != nil {
		e.errorsList = append(e.errorsList, ExecError{Input: in.Clone(), Err: err, Path: path})
	}
	sig := m.PathSignature()
	newPath := !e.seenPath[sig]
	if newPath {
		e.seenPath[sig] = true
		e.stats.UniquePaths++
	}
	newCover := 0
	for _, b := range path {
		key := b.Site
		if b.Taken {
			key += "+"
		} else {
			key += "-"
		}
		if !e.coverage[key] {
			e.coverage[key] = true
			newCover++
		}
	}
	e.stats.CoverageSites = len(e.coverage)

	// Generational search: negate each branch at or beyond the candidate's
	// depth and solve for an input realizing the flipped path prefix.
	e.conds = e.conds[:0]
	for _, b := range path {
		e.conds = append(e.conds, b.Cond)
	}
	e.session.Reset(e.conds, m.Assignment())
	for i := depth; i < len(path); i++ {
		e.stats.SolverQueries++
		res := e.session.Query(i, expr.Not(path[i].Cond))
		e.stats.SolverSteps += res.Steps
		switch res.Status {
		case solver.StatusSat:
			e.stats.SolverSat++
			child := m.ApplyModel(m.Input(), res.Model)
			score := 0
			flippedKey := path[i].Site
			if path[i].Taken {
				flippedKey += "-"
			} else {
				flippedKey += "+"
			}
			if !e.coverage[flippedKey] {
				score = 1000
			}
			e.enqueue(&candidate{input: child, depth: i + 1, score: score + newCover})
		case solver.StatusUnsat:
			e.stats.SolverUnsat++
		default:
			e.stats.SolverUnknown++
		}
	}
	return m, err
}

// Coverage returns the sorted list of covered (site, direction) keys.
func (e *Explorer) Coverage() []string {
	keys := make([]string, 0, len(e.coverage))
	for k := range e.coverage {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
