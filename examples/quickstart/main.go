// Quickstart: sum the same ill-conditioned data three ways — naively,
// with an explicit algorithm, and through the intelligent runtime —
// and see why the runtime's choice matters.
package main

import (
	"fmt"

	"repro"
)

func main() {
	// A hostile little set: huge values that cancel, tiny values that
	// must survive (the paper's Section II-A absorption example, scaled
	// up).
	values := []float64{1e16, 3.25, -1e16, 1.25, 1e9, -1e9, 0.5}

	exact := repro.ExactSum(values)
	fmt.Printf("exact sum:            %.17g\n", exact)
	fmt.Printf("standard (ST):        %.17g\n", repro.Sum(repro.Standard, values))
	fmt.Printf("Kahan (K):            %.17g\n", repro.Sum(repro.Kahan, values))
	fmt.Printf("composite (CP):       %.17g\n", repro.Sum(repro.Composite, values))
	fmt.Printf("prerounded (PR):      %.17g\n", repro.Sum(repro.Prerounded, values))

	// The data's intrinsic properties drive the cost of reproducibility.
	fmt.Printf("\ncondition number: %.3g, dynamic range: %d bits\n",
		repro.CondNumber(values), repro.DynRange(values))

	// By default the runtime serves the exact sum at any tolerance;
	// under a policy it profiles the data and picks the cheapest
	// algorithm meeting the tolerance — the paper's selection.
	total, report := repro.New(1e-6).Sum(values)
	fmt.Printf("\nruntime default:        %.17g (%s)\n", total, report.Algorithm)
	for _, tol := range []float64{1e-6, 1e-15, 0} {
		rt := repro.New(tol, repro.WithPolicy(repro.NewProbabilisticPolicy(0)))
		total, report := rt.Sum(values)
		fmt.Printf("tolerance %-6g -> %-2s  sum = %.17g\n",
			tol, report.Algorithm, total)
	}
}
