package solver

import (
	"math/rand"
	"sort"

	"github.com/dice-project/dice/internal/concolic/expr"
)

// This file keeps the solver as it was before sessions: every query
// collects, sorts, propagates, builds its base and scores local search from
// scratch, and seeds its own pseudo-random source. It exists only as the
// reference the session-equivalence tests compare against. The one change is
// refFullCoverage, which counts exclusions from the excluded set instead of
// walking the domain (the walk never returned on a 64-bit domain).

// refVarInfo aggregates what propagation learned about a variable.
type refVarInfo struct {
	width    uint8
	dom      interval
	excluded map[uint64]bool
	// interesting holds constants that appear in constraints mentioning the
	// variable; they (and their neighbours) are prime candidate values.
	interesting map[uint64]bool
}

// refSolve is the from-scratch solver every Session query must agree with,
// result for result. It searches for an assignment satisfying the
// conjunction of constraints. The seed assignment (typically the concrete
// values observed on the previous execution) guides the search; it may be
// nil.
func refSolve(constraints []*expr.Expr, seed expr.Assignment, opts Options) Result {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	// Constant-fold trivial cases.
	pending := make([]*expr.Expr, 0, len(constraints))
	for _, c := range constraints {
		if c == nil {
			continue
		}
		if c.Kind == expr.KindBool {
			if c.Val == 0 {
				return Result{Status: StatusUnsat}
			}
			continue
		}
		pending = append(pending, c)
	}
	if len(pending) == 0 {
		model := expr.Assignment{}
		if seed != nil {
			model = seed.Clone()
		}
		return Result{Status: StatusSat, Model: model}
	}

	vars := refCollectVars(pending)
	if len(vars) == 0 {
		// Non-constant constraints with no variables cannot occur; treat as
		// unknown defensively.
		return Result{Status: StatusUnknown}
	}

	info := refPropagate(pending, vars)
	for _, vi := range info {
		if vi.dom.empty() {
			return Result{Status: StatusUnsat}
		}
	}

	names := refSortedNames(vars)
	base := refBuildBase(names, info, seed)

	steps := 0
	if refSatisfiesAll(pending, base) {
		return Result{Status: StatusSat, Model: base, Steps: steps}
	}

	// Phase 2: exhaustive enumeration over candidate sets when feasible.
	cands := refCandidateSets(names, info, seed, rng)
	product := 1
	feasible := true
	for _, cs := range cands {
		if len(cs) == 0 {
			feasible = false
			break
		}
		product *= len(cs)
		if product > opts.MaxEnumerate {
			feasible = false
			break
		}
	}
	if feasible {
		model, n := refEnumerate(pending, names, cands, base, opts.MaxEnumerate)
		steps += n
		if model != nil {
			return Result{Status: StatusSat, Model: model, Steps: steps}
		}
		// Enumeration over candidate sets is not complete in general (the
		// sets are samples of large domains), so fall through to search
		// unless every domain was fully covered by its candidate set.
		if refFullCoverage(names, info, cands) {
			return Result{Status: StatusUnsat, Steps: steps}
		}
	}

	// Phase 3: greedy local search from the base assignment.
	model, n := refLocalSearch(pending, names, info, cands, base, opts.MaxSteps-steps, rng)
	steps += n
	if model != nil {
		return Result{Status: StatusSat, Model: model, Steps: steps}
	}
	return Result{Status: StatusUnknown, Steps: steps}
}

func refCollectVars(constraints []*expr.Expr) map[string]uint8 {
	vars := make(map[string]uint8)
	for _, c := range constraints {
		c.Vars(vars)
	}
	return vars
}

func refSortedNames(vars map[string]uint8) []string {
	names := make([]string, 0, len(vars))
	for name := range vars {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// propagate runs interval/equality/exclusion propagation for constraints of
// the shape (op var const) or (op const var), possibly through ZExt.
func refPropagate(constraints []*expr.Expr, vars map[string]uint8) map[string]*refVarInfo {
	info := make(map[string]*refVarInfo, len(vars))
	for name, width := range vars {
		info[name] = &refVarInfo{
			width:       width,
			dom:         fullInterval(width),
			excluded:    make(map[uint64]bool),
			interesting: make(map[uint64]bool),
		}
	}
	for _, c := range constraints {
		refApplyConstraint(c, info)
	}
	// Shrink domains that exclude their endpoints.
	for _, vi := range info {
		for vi.excluded[vi.dom.lo] && !vi.dom.empty() {
			vi.dom.lo++
		}
		for !vi.dom.empty() && vi.excluded[vi.dom.hi] && vi.dom.hi > 0 {
			vi.dom.hi--
		}
	}
	return info
}

// stripZExt unwraps zero extensions: the value of ZExt(x) equals the value of
// x, so comparisons against constants transfer directly.
func refStripZExt(e *expr.Expr) *expr.Expr {
	for e.Kind == expr.KindZExt {
		e = e.Args[0]
	}
	return e
}

// varConst matches the pattern (var, const) or (const, var) modulo ZExt and
// returns the variable name, the constant, and whether the variable was the
// left operand.
func refVarConst(a, b *expr.Expr) (name string, c uint64, varLeft, ok bool) {
	a, b = refStripZExt(a), refStripZExt(b)
	if a.Kind == expr.KindVar && b.IsConst() {
		return a.Name, b.Val, true, true
	}
	if b.Kind == expr.KindVar && a.IsConst() {
		return b.Name, a.Val, false, true
	}
	return "", 0, false, false
}

func refApplyConstraint(c *expr.Expr, info map[string]*refVarInfo) {
	// Record interesting constants for all variables mentioned together with
	// constants anywhere inside the constraint.
	refRecordInteresting(c, info)

	if len(c.Args) != 2 {
		return
	}
	name, k, varLeft, ok := refVarConst(c.Args[0], c.Args[1])
	if !ok {
		return
	}
	vi, ok := info[name]
	if !ok {
		return
	}
	switch c.Kind {
	case expr.KindEq:
		if k > vi.dom.hi || k < vi.dom.lo {
			vi.dom = interval{1, 0} // empty
			return
		}
		vi.dom = interval{k, k}
	case expr.KindNe:
		vi.excluded[k] = true
	case expr.KindUlt:
		if varLeft { // var < k
			if k == 0 {
				vi.dom = interval{1, 0}
				return
			}
			vi.dom.hi = minU64(vi.dom.hi, k-1)
		} else { // k < var
			vi.dom.lo = maxU64(vi.dom.lo, k+1)
		}
	case expr.KindUle:
		if varLeft {
			vi.dom.hi = minU64(vi.dom.hi, k)
		} else {
			vi.dom.lo = maxU64(vi.dom.lo, k)
		}
	case expr.KindUgt:
		if varLeft { // var > k
			vi.dom.lo = maxU64(vi.dom.lo, k+1)
		} else { // k > var
			if k == 0 {
				vi.dom = interval{1, 0}
				return
			}
			vi.dom.hi = minU64(vi.dom.hi, k-1)
		}
	case expr.KindUge:
		if varLeft {
			vi.dom.lo = maxU64(vi.dom.lo, k)
		} else {
			vi.dom.hi = minU64(vi.dom.hi, k)
		}
	}
}

// recordInteresting walks the constraint once, collecting every constant it
// mentions, and attributes those constants to every variable it mentions.
func refRecordInteresting(c *expr.Expr, info map[string]*refVarInfo) {
	var consts []uint64
	var names []string
	var walk func(e *expr.Expr)
	walk = func(e *expr.Expr) {
		switch e.Kind {
		case expr.KindConst:
			consts = append(consts, e.Val)
		case expr.KindVar:
			names = append(names, e.Name)
		}
		for _, arg := range e.Args {
			walk(arg)
		}
	}
	walk(c)
	for _, name := range names {
		vi, ok := info[name]
		if !ok {
			continue
		}
		for _, k := range consts {
			vi.interesting[k] = true
		}
	}
}

func refBuildBase(names []string, info map[string]*refVarInfo, seed expr.Assignment) expr.Assignment {
	base := make(expr.Assignment, len(names))
	for _, name := range names {
		vi := info[name]
		v := vi.dom.lo
		if seed != nil {
			if sv, ok := seed[name]; ok && sv >= vi.dom.lo && sv <= vi.dom.hi && !vi.excluded[sv] {
				v = sv
			}
		}
		base[name] = v
	}
	// Carry over seed values for variables not mentioned by the constraints
	// so that the model stays close to the original input.
	for name, v := range seed {
		if _, ok := base[name]; !ok {
			base[name] = v
		}
	}
	return base
}

func refSatisfiesAll(constraints []*expr.Expr, a expr.Assignment) bool {
	for _, c := range constraints {
		if !c.EvalBool(a) {
			return false
		}
	}
	return true
}

func refCountSatisfied(constraints []*expr.Expr, a expr.Assignment) int {
	n := 0
	for _, c := range constraints {
		if c.EvalBool(a) {
			n++
		}
	}
	return n
}

// candidateSets builds, for each variable, an ordered list of candidate
// values drawn from its domain, the constants mentioned alongside it, the
// seed value, and a few pseudo-random samples.
func refCandidateSets(names []string, info map[string]*refVarInfo, seed expr.Assignment, rng *rand.Rand) [][]uint64 {
	sets := make([][]uint64, len(names))
	for i, name := range names {
		vi := info[name]
		seen := make(map[uint64]bool)
		var cs []uint64
		add := func(v uint64) {
			if v < vi.dom.lo || v > vi.dom.hi || vi.excluded[v] || seen[v] {
				return
			}
			seen[v] = true
			cs = append(cs, v)
		}
		if seed != nil {
			if sv, ok := seed[name]; ok {
				add(sv)
			}
		}
		add(vi.dom.lo)
		add(vi.dom.hi)
		for k := range vi.interesting {
			add(k)
			add(k + 1)
			if k > 0 {
				add(k - 1)
			}
		}
		add(0)
		add(1)
		// If the domain is small, cover it completely.
		if vi.dom.hi-vi.dom.lo < 64 {
			for v := vi.dom.lo; ; v++ {
				add(v)
				if v == vi.dom.hi {
					break
				}
			}
		} else {
			span := vi.dom.hi - vi.dom.lo
			for j := 0; j < 8; j++ {
				add(vi.dom.lo + uint64(rng.Int63())%span)
			}
		}
		sort.Slice(cs, func(a, b int) bool { return cs[a] < cs[b] })
		sets[i] = cs
	}
	return sets
}

func refFullCoverage(names []string, info map[string]*refVarInfo, cands [][]uint64) bool {
	for i, name := range names {
		vi := info[name]
		excluded := uint64(0)
		for v, ex := range vi.excluded {
			if ex && v >= vi.dom.lo && v <= vi.dom.hi {
				excluded++
			}
		}
		// covered + excluded >= hi-lo+1, without forming hi-lo+1 (it wraps
		// to 0 on a full 64-bit domain).
		if n := uint64(len(cands[i])) + excluded; n == 0 || n-1 < vi.dom.hi-vi.dom.lo {
			return false
		}
	}
	return true
}

// enumerate exhaustively tries every combination from the candidate sets,
// bounded by budget assignments.
func refEnumerate(constraints []*expr.Expr, names []string, cands [][]uint64, base expr.Assignment, budget int) (expr.Assignment, int) {
	idx := make([]int, len(names))
	cur := base.Clone()
	steps := 0
	for {
		for i, name := range names {
			cur[name] = cands[i][idx[i]]
		}
		steps++
		if refSatisfiesAll(constraints, cur) {
			return cur, steps
		}
		if steps >= budget {
			return nil, steps
		}
		// Advance the mixed-radix counter.
		pos := 0
		for pos < len(idx) {
			idx[pos]++
			if idx[pos] < len(cands[pos]) {
				break
			}
			idx[pos] = 0
			pos++
		}
		if pos == len(idx) {
			return nil, steps
		}
	}
}

// localSearch performs a greedy hill-climb: repeatedly pick a violated
// constraint and try candidate values for each of its variables, keeping the
// change that satisfies the most constraints. Random restarts escape local
// optima.
func refLocalSearch(constraints []*expr.Expr, names []string, info map[string]*refVarInfo, cands [][]uint64, base expr.Assignment, budget int, rng *rand.Rand) (expr.Assignment, int) {
	if budget <= 0 {
		return nil, 0
	}
	candByName := make(map[string][]uint64, len(names))
	for i, name := range names {
		candByName[name] = cands[i]
	}
	// searchValues returns the values worth trying for a variable: the full
	// domain when it is byte-sized (complete and cheap), otherwise the
	// candidate set plus an exponential neighbourhood of the current value,
	// which lets arithmetic relations over wide variables converge.
	searchValues := func(name string, current uint64) []uint64 {
		vi := info[name]
		if vi.dom.hi-vi.dom.lo <= 256 {
			vals := make([]uint64, 0, vi.dom.hi-vi.dom.lo+1)
			for v := vi.dom.lo; ; v++ {
				if !vi.excluded[v] {
					vals = append(vals, v)
				}
				if v == vi.dom.hi {
					break
				}
			}
			return vals
		}
		vals := append([]uint64(nil), candByName[name]...)
		for delta := uint64(1); delta != 0 && delta <= vi.dom.hi-vi.dom.lo; delta <<= 1 {
			if current+delta >= current && current+delta <= vi.dom.hi {
				vals = append(vals, current+delta)
			}
			if current >= delta && current-delta >= vi.dom.lo {
				vals = append(vals, current-delta)
			}
		}
		return vals
	}
	cur := base.Clone()
	best := refCountSatisfied(constraints, cur)
	steps := 0
	for steps < budget {
		if best == len(constraints) {
			return cur, steps
		}
		// Find a violated constraint.
		var violated *expr.Expr
		for _, c := range constraints {
			if !c.EvalBool(cur) {
				violated = c
				break
			}
		}
		if violated == nil {
			return cur, steps
		}
		improved := false
		for _, name := range violated.VarNames() {
			if _, ok := info[name]; !ok {
				continue
			}
			for _, v := range searchValues(name, cur[name]) {
				if v == cur[name] {
					continue
				}
				steps++
				old := cur[name]
				cur[name] = v
				score := refCountSatisfied(constraints, cur)
				if score > best {
					best = score
					improved = true
					break
				}
				cur[name] = old
				if steps >= budget {
					return nil, steps
				}
			}
			if improved {
				break
			}
		}
		if !improved {
			// Random restart: perturb one variable of the violated constraint.
			vnames := violated.VarNames()
			if len(vnames) == 0 {
				return nil, steps
			}
			name := vnames[rng.Intn(len(vnames))]
			cs := candByName[name]
			if len(cs) == 0 {
				return nil, steps
			}
			cur[name] = cs[rng.Intn(len(cs))]
			best = refCountSatisfied(constraints, cur)
			steps++
		}
	}
	if refSatisfiesAll(constraints, cur) {
		return cur, steps
	}
	return nil, steps
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
