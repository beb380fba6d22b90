// Package nbody is a miniature N-body simulation substrate — the
// paper's motivating application class ("N-body simulations involve
// reductions of floating-point values that are ill-conditioned; both k
// and dr can frequently be very large", §V-A). It exists to demonstrate
// the end-to-end consequence the paper warns about: when the per-step
// force reductions run over nondeterministic reduction trees, entire
// *trajectories* diverge between reruns of the same initial conditions;
// with a reproducible reduction operator they are bitwise identical.
//
// The dynamics are softened gravity integrated with leapfrog
// (kick-drift-kick). The force on each body is assembled by *reducing*
// its pairwise interaction terms with a pluggable summation algorithm
// over a per-step reduction tree — exactly where an exascale code would
// use a collective.
package nbody

import (
	"math"

	"repro/internal/fpu"
	"repro/internal/grid"
	"repro/internal/sum"
	"repro/internal/tree"
)

// Body is a point mass in 2D.
type Body struct {
	X, Y   float64
	VX, VY float64
	M      float64
}

// System is a set of bodies plus the reduction policy used for force
// assembly.
type System struct {
	Bodies []Body
	// Softening avoids the singularity at zero distance.
	Softening float64
	// Alg sums each body's force terms.
	Alg sum.Algorithm
	// PlanSource returns the reduction plan for one force assembly of
	// n terms; a nondeterministic runtime returns a different plan per
	// call, a reproducible one may return anything (the PR operator is
	// insensitive to it).
	PlanSource func(n int) tree.Plan

	// scratch buffers reused across steps.
	fxTerms, fyTerms []float64
}

// NewSystem builds a system with the given bodies (copied).
func NewSystem(bodies []Body, alg sum.Algorithm, plans func(n int) tree.Plan) *System {
	s := &System{
		Bodies:     append([]Body(nil), bodies...),
		Softening:  1e-3,
		Alg:        alg,
		PlanSource: plans,
	}
	return s
}

// Cluster generates a random cluster: a few heavy cores surrounded by a
// light swarm — force sets with large k and dr.
func Cluster(n int, seed uint64) []Body {
	r := fpu.NewRNG(seed ^ 0xb0d1e5)
	bodies := make([]Body, 0, n)
	cores := 4
	if cores > n {
		cores = n
	}
	for i := 0; i < cores; i++ {
		ang := 2 * math.Pi * float64(i) / float64(cores)
		bodies = append(bodies, Body{
			X: 0.01 * math.Cos(ang), Y: 0.01 * math.Sin(ang), M: 10,
		})
	}
	for len(bodies) < n {
		bodies = append(bodies, Body{
			X: (r.Float64() - 0.5) * 20,
			Y: (r.Float64() - 0.5) * 20,
			M: 1e-3 * (r.Float64() + 0.1),
		})
	}
	return bodies
}

// forceOn assembles the force on body i by reducing its pairwise terms
// with the system's algorithm over a fresh plan.
func (s *System) forceOn(i int) (fx, fy float64) {
	n := len(s.Bodies) - 1
	if cap(s.fxTerms) < n {
		s.fxTerms = make([]float64, n)
		s.fyTerms = make([]float64, n)
	}
	fxs := s.fxTerms[:0]
	fys := s.fyTerms[:0]
	bi := s.Bodies[i]
	eps2 := s.Softening * s.Softening
	for j, bj := range s.Bodies {
		if j == i {
			continue
		}
		dx, dy := bj.X-bi.X, bj.Y-bi.Y
		r2 := dx*dx + dy*dy + eps2
		inv := 1 / (r2 * math.Sqrt(r2))
		f := bi.M * bj.M * inv
		fxs = append(fxs, f*dx)
		fys = append(fys, f*dy)
	}
	lane := grid.AlgLane(s.Alg)
	fx = lane.Run(s.PlanSource(len(fxs)), fxs)
	fy = lane.Run(s.PlanSource(len(fys)), fys)
	return fx, fy
}

// Step advances the system by dt with one leapfrog step.
func (s *System) Step(dt float64) {
	n := len(s.Bodies)
	fx := make([]float64, n)
	fy := make([]float64, n)
	for i := range s.Bodies {
		fx[i], fy[i] = s.forceOn(i)
	}
	// Kick + drift.
	for i := range s.Bodies {
		b := &s.Bodies[i]
		b.VX += dt * fx[i] / b.M
		b.VY += dt * fy[i] / b.M
		b.X += dt * b.VX
		b.Y += dt * b.VY
	}
}

// Run advances steps leapfrog steps.
func (s *System) Run(steps int, dt float64) {
	for i := 0; i < steps; i++ {
		s.Step(dt)
	}
}

// Fingerprint reduces the full phase-space state to one exact scalar
// for bitwise trajectory comparison (superaccumulator-backed, so the
// fingerprint itself cannot introduce order sensitivity).
func (s *System) Fingerprint() float64 {
	vals := make([]float64, 0, 4*len(s.Bodies))
	for _, b := range s.Bodies {
		vals = append(vals, b.X, b.Y, b.VX, b.VY)
	}
	return sum.Prerounded(vals)
}

// MaxDivergence returns the largest per-coordinate position difference
// between two systems' bodies.
func MaxDivergence(a, b *System) float64 {
	m := 0.0
	for i := range a.Bodies {
		if d := math.Abs(a.Bodies[i].X - b.Bodies[i].X); d > m {
			m = d
		}
		if d := math.Abs(a.Bodies[i].Y - b.Bodies[i].Y); d > m {
			m = d
		}
	}
	return m
}
