package selector

// Selector is the user-facing intelligent runtime: profile the data,
// consult the policy, run the cheapest acceptable reduction
// (SelectAndSum).
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
