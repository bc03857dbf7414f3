package solver

// ReferenceSolve exposes the from-scratch reference solver to the external
// equivalence tests.
var ReferenceSolve = refSolve
