package repro_test

import (
	"fmt"

	"repro"
)

// The runtime serves the exact sum by default; under WithPolicy it
// profiles the data and selects the cheapest algorithm meeting the
// reproducibility tolerance.
func ExampleNew() {
	values := []float64{1e16, 3.25, -1e16, 1.25}
	rt := repro.New(0) // bitwise reproducibility required
	total, report := rt.Sum(values)
	fmt.Println(total, report.Algorithm)
	// Output: 4.5 BN
}

// Fixed algorithms are available directly; compensated and prerounded
// summation recover bits the naive sum loses.
func ExampleSum() {
	values := []float64{1e16, 1, -1e16}
	fmt.Println(repro.Sum(repro.Standard, values))
	fmt.Println(repro.Sum(repro.Composite, values))
	// Output:
	// 0
	// 1
}

// ExactSum is the order-independent oracle: the correctly rounded value
// of the real-arithmetic sum.
func ExampleExactSum() {
	fmt.Println(repro.ExactSum([]float64{1e9, 1e-9, -1e9}))
	// Output: 1e-09
}

// CondNumber measures how sensitive a set's sum is to perturbations —
// the paper's k parameter.
func ExampleCondNumber() {
	fmt.Println(repro.CondNumber([]float64{1, 2, 3}))       // same sign
	fmt.Println(repro.CondNumber([]float64{500.5, -499.5})) // cancelling
	// Output:
	// 1
	// 1000
}

// Dot products inherit their summation algorithm's guarantees; the
// Prerounded variant is bitwise reproducible under any term order.
func ExampleDot() {
	a := []float64{0x1p20, 0x1p20, 1}
	b := []float64{0x1p20, -0x1p20, 0x1p-20}
	// The huge products cancel exactly; the tiny one survives, and the
	// result is bitwise identical for every term order.
	fmt.Println(repro.Dot(repro.Prerounded, a, b))
	// Output: 9.5367431640625e-07
}

// Streaming accumulators support the local-sum phase of a distributed
// reduction.
func ExampleAlgorithm_NewAccumulator() {
	acc := repro.Kahan.NewAccumulator()
	for i := 0; i < 10; i++ {
		acc.Add(0.1)
	}
	fmt.Printf("%.1f\n", acc.Sum())
	// Output: 1.0
}
