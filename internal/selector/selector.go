package selector

import (
	"repro/internal/mpirt"
	"repro/internal/sum"
)

// Selector is the user-facing intelligent runtime: profile the data,
// consult the policy, run the cheapest acceptable reduction
// (SelectAndSum, or SelectAndSumParallel on the chunked engine).
type Selector struct {
	Policy Policy
	Req    Requirement
	// Cache optionally memoizes decisions per quantized profile bucket
	// (see DecisionCache); nil means every call evaluates the policy.
	Cache *DecisionCache
}

// New returns a Selector with the analytic policy and the given
// tolerance (relative run-to-run variability; 0 demands bitwise
// reproducibility).
func New(tolerance float64) *Selector {
	return &Selector{Policy: NewHeuristicPolicy(), Req: Requirement{Tolerance: tolerance}}
}

// AdaptiveReduce performs an intelligently selected global sum over a
// simulated communicator:
//
//  1. each rank profiles its local values (one streaming pass);
//  2. the profiles are merged with one AllReduce (profiles are small
//     and their merge is cheap and insensitive to order at the
//     resolution that matters);
//  3. every rank applies the policy to the identical global profile,
//     reaching the same algorithm choice with no extra coordination
//     (the quantized decision cache, when attached, is consulted here
//     — its decisions are pure functions of the profile bucket, so
//     ranks with the same global profile still agree);
//  4. the selected operator runs the real reduction.
//
// Returns the sum (valid on the root, ok=true there) and the algorithm
// every rank agreed on.
func AdaptiveReduce(r *mpirt.Rank, root int, local []float64, s *Selector,
	topo mpirt.Topology, mode mpirt.Mode) (result float64, alg sum.Algorithm, ok bool) {
	localProf := ProfileOf(local)
	st := r.AllReduce(localProf, ProfileOp{}, topo, mpirt.FixedOrder)
	global := ProfileOp{}.Profile(st)
	alg = s.Decide(global).Alg
	op := alg.Op()
	reduced := r.Reduce(root, op.FoldSlice(local), op, topo, mode)
	if reduced == nil {
		return 0, alg, false
	}
	return op.Finalize(reduced), alg, true
}
