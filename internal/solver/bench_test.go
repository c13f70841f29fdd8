package solver

import (
	"testing"

	"repro/internal/numeric"
	"repro/internal/ode"
)

// stiffRelax mimics the spectral profile of the mean-field systems near
// saturation: modes relaxing at rates spread over four orders of magnitude.
func stiffRelax(x, dx []float64) {
	rates := [...]float64{1, 0.3, 0.1, 0.03, 0.01, 0.003, 0.001, 0.0003}
	for i := range x {
		dx[i] = rates[i%len(rates)] * (0.5 - x[i])
	}
}

// BenchmarkAndersonAccelerated measures the Anderson-accelerated solve.
// The mixing memory must cover the system's 8 distinct eigenmodes for the
// multi-secant update to eliminate them all (with fewer, the slowest
// leftover mode dominates and convergence degrades to Picard speed).
func BenchmarkAndersonAccelerated(b *testing.B) {
	x0 := make([]float64, 64)
	for i := 0; i < b.N; i++ {
		res, err := FixedPoint(stiffRelax, x0, Options{Tol: 1e-10, Horizon: 2, Step: 0.25, Memory: 9})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("not converged")
		}
	}
}

// BenchmarkPlainIntegration measures the same solve by direct time
// integration — the baseline the Anderson scheme replaces. With the
// slowest mode at rate 3e−4, integration needs ~7e4 time units to reach
// 1e−10, roughly three orders of magnitude more right-hand-side
// evaluations than the accelerated solve.
func BenchmarkPlainIntegration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		x := make([]float64, 64)
		if !integrateToSteady(stiffRelax, x, 0.25, 1e-10, 2e5) {
			b.Fatal("not converged")
		}
		if numeric.RelErr(x[0], 0.5) > 1e-8 {
			b.Fatal("wrong answer")
		}
	}
}

// integrateToSteady takes fixed RK4 steps of size h until the derivative's
// ∞-norm, checked every 10 steps, drops below tol; false means maxTime
// passed first.
func integrateToSteady(f ode.System, x []float64, h, tol, maxTime float64) bool {
	s := ode.NewRK4Scratch(len(x))
	dx := make([]float64, len(x))
	for steps, t := 0, 0.0; t < maxTime; steps, t = steps+1, t+h {
		if steps%10 == 0 {
			f(x, dx)
			if numeric.NormInf(dx) < tol {
				return true
			}
		}
		ode.RK4(f, x, h, s)
	}
	f(x, dx)
	return numeric.NormInf(dx) < tol
}
