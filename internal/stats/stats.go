// Package stats provides the small numerical toolkit the modeling
// packages need: dense linear least squares, a Levenberg-Marquardt
// nonlinear fitter (the stdlib replacement for scipy's curve_fit used
// by the paper), and error metrics/CDF helpers used in the evaluation.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("stats: singular system")

// SolveLinear solves the square system A x = b in place using Gaussian
// elimination with partial pivoting. A and b are overwritten.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("stats: bad system dimensions %dx%d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != n {
			return nil, fmt.Errorf("stats: row %d has %d columns, want %d", i, len(a[i]), n)
		}
	}
	x := make([]float64, n)
	if err := solveInto(a, b, x); err != nil {
		return nil, err
	}
	return x, nil
}

// solveInto is SolveLinear on a checked square system, writing the
// solution to x.
func solveInto(a [][]float64, b, x []float64) error {
	n := len(a)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-300 {
			return ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			factor := a[r][col] * inv
			if factor == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= factor * a[col][c]
			}
			b[r] -= factor * b[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= a[i][j] * x[j]
		}
		x[i] = sum / a[i][i]
	}
	return nil
}

// LeastSquares solves min ||X beta - y||² via the normal equations.
// X has one row per observation and one column per parameter. Suitable
// for the tiny, well-conditioned systems used in this repository.
func LeastSquares(x [][]float64, y []float64) ([]float64, error) {
	m := len(x)
	if m == 0 || len(y) != m {
		return nil, fmt.Errorf("stats: bad design matrix dimensions %d rows, %d targets", m, len(y))
	}
	p := len(x[0])
	if p == 0 || m < p {
		return nil, fmt.Errorf("stats: %d observations cannot determine %d parameters", m, p)
	}
	xtx := make([][]float64, p)
	for i := range xtx {
		xtx[i] = make([]float64, p)
	}
	xty := make([]float64, p)
	for r := 0; r < m; r++ {
		if len(x[r]) != p {
			return nil, fmt.Errorf("stats: design row %d has %d columns, want %d", r, len(x[r]), p)
		}
		for i := 0; i < p; i++ {
			xty[i] += x[r][i] * y[r]
			for j := 0; j < p; j++ {
				xtx[i][j] += x[r][i] * x[r][j]
			}
		}
	}
	return SolveLinear(xtx, xty)
}

// PolyFit fits y = sum_k beta_k x^k of the given degree.
func PolyFit(xs, ys []float64, degree int) ([]float64, error) {
	if degree < 0 {
		return nil, fmt.Errorf("stats: negative degree %d", degree)
	}
	design := make([][]float64, len(xs))
	for i, x := range xs {
		row := make([]float64, degree+1)
		v := 1.0
		for k := 0; k <= degree; k++ {
			row[k] = v
			v *= x
		}
		design[i] = row
	}
	return LeastSquares(design, ys)
}

// LinFit fits y = a + b*x and returns (a, b).
func LinFit(xs, ys []float64) (a, b float64, err error) {
	beta, err := PolyFit(xs, ys, 1)
	if err != nil {
		return 0, 0, err
	}
	return beta[0], beta[1], nil
}

// ModelFunc evaluates a parametric model at x with parameters p.
type ModelFunc func(x float64, p []float64) float64

// LMOptions tunes CurveFit.
type LMOptions struct {
	// MaxIter bounds the number of Levenberg-Marquardt iterations.
	MaxIter int
	// Tol is the relative improvement threshold for convergence.
	Tol float64
	// Lower and Upper, when non-nil, clamp each parameter to a box,
	// mirroring scipy curve_fit's bounds (the paper clamps Func. 3's
	// exponent b to [0, 10] to avoid overflow).
	Lower, Upper []float64
}

// DefaultLMOptions returns reasonable defaults.
func DefaultLMOptions() LMOptions { return LMOptions{MaxIter: 200, Tol: 1e-12} }

// CurveFit fits model parameters to (xs, ys) by Levenberg-Marquardt
// with numerically differentiated Jacobians, starting from p0.
// It returns the fitted parameters and the final sum of squared
// residuals. Its work buffers are allocated once per call, so the
// allocations do not grow with the iterations.
func CurveFit(model ModelFunc, xs, ys, p0 []float64, opt LMOptions) ([]float64, float64, error) {
	if len(xs) != len(ys) {
		return nil, 0, fmt.Errorf("stats: CurveFit length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < len(p0) {
		return nil, 0, fmt.Errorf("stats: %d points cannot determine %d parameters", len(xs), len(p0))
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 200
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-12
	}
	p := append([]float64(nil), p0...)
	clamp := func(p []float64) {
		for i := range p {
			if opt.Lower != nil && p[i] < opt.Lower[i] {
				p[i] = opt.Lower[i]
			}
			if opt.Upper != nil && p[i] > opt.Upper[i] {
				p[i] = opt.Upper[i]
			}
		}
	}
	clamp(p)
	ssr := func(p []float64) float64 {
		s := 0.0
		for i, x := range xs {
			r := ys[i] - model(x, p)
			s += r * r
		}
		return s
	}
	cur := ssr(p)
	lambda := 1e-3
	np := len(p)
	smallSteps := 0 // consecutive sub-tolerance improvements
	// Work buffers, refilled each iteration: the Jacobian, residuals,
	// a perturbed copy of p, the normal equations, the damped system
	// solveInto reorders in place, and the step and trial point.
	rows := func(n int) [][]float64 {
		flat := make([]float64, n*np)
		out := make([][]float64, n)
		for i := range out {
			out[i] = flat[i*np : (i+1)*np : (i+1)*np]
		}
		return out
	}
	jac, jtj, aug := rows(len(xs)), rows(np), rows(np)
	res := make([]float64, len(xs))
	vecs := make([]float64, 5*np)
	pj, jtr, rhs, delta, trial := vecs[:np:np], vecs[np:2*np:2*np], vecs[2*np:3*np:3*np], vecs[3*np:4*np:4*np], vecs[4*np:]
	for iter := 0; iter < opt.MaxIter; iter++ {
		// Jacobian by forward differences.
		for i, x := range xs {
			res[i] = ys[i] - model(x, p)
			row := jac[i]
			for j := 0; j < np; j++ {
				h := 1e-6 * (math.Abs(p[j]) + 1e-6)
				copy(pj, p)
				pj[j] += h
				clamp(pj)
				dh := pj[j] - p[j]
				if dh == 0 {
					// Pinned at a bound; try the other direction.
					pj[j] = p[j] - h
					clamp(pj)
					dh = pj[j] - p[j]
					if dh == 0 {
						row[j] = 0
						continue
					}
				}
				row[j] = (model(x, pj) - model(x, p)) / dh
			}
		}
		// Normal equations with damping: (JtJ + lambda*diag) d = Jt r.
		for i := range jtj {
			clear(jtj[i])
		}
		clear(jtr)
		for r := range jac {
			for i := 0; i < np; i++ {
				jtr[i] += jac[r][i] * res[r]
				for j := 0; j < np; j++ {
					jtj[i][j] += jac[r][i] * jac[r][j]
				}
			}
		}
		improved := false
		for attempt := 0; attempt < 16; attempt++ {
			// solveInto swaps aug's rows, so they are a permutation
			// of its buffers: row i is refilled whichever it holds.
			for i := range aug {
				copy(aug[i], jtj[i])
				aug[i][i] += lambda * (jtj[i][i] + 1e-12)
			}
			copy(rhs, jtr)
			if err := solveInto(aug, rhs, delta); err != nil {
				lambda *= 10
				continue
			}
			for i := range trial {
				trial[i] = p[i] + delta[i]
			}
			clamp(trial)
			trialSSR := ssr(trial)
			if trialSSR < cur {
				rel := (cur - trialSSR) / math.Max(cur, 1e-300)
				p, trial, cur = trial, p, trialSSR
				lambda = math.Max(lambda/10, 1e-12)
				improved = true
				// A single tiny improvement can be an artifact of a
				// large damping factor; require three in a row
				// before declaring convergence.
				if rel < opt.Tol {
					smallSteps++
					if smallSteps >= 3 {
						return p, cur, nil
					}
				} else {
					smallSteps = 0
				}
				break
			}
			lambda *= 10
		}
		if !improved {
			break
		}
	}
	return p, cur, nil
}

// DefaultTol is the tolerance Approx uses: tight enough that any two
// values that were computed differently on purpose stay distinguishable,
// loose enough to absorb non-associative float noise from refactors.
const DefaultTol = 1e-9

// AlmostEqual reports whether a and b agree to within tol, using an
// absolute floor of tol for sub-unit magnitudes and a relative bound
// above it. It is the approved way to compare floats on compute paths
// (dvfslint's floateq rule forbids raw ==/!= outside this package).
// Exact equality — including matching infinities — short-circuits;
// NaN never equals anything, and an infinity never equals a finite
// value (without the explicit check, Inf-x = Inf and tol*Inf = Inf
// would make them compare equal). It is generic over defined float64
// types so unit-typed quantities (units.MHz, units.Micros, …) compare
// without laundering through float64 — and because both arguments
// share one type parameter, comparing an MHz against a Micros is a
// compile error, matching unitcheck's arithmetic rule.
func AlmostEqual[T ~float64](a, b T, tol float64) bool {
	x, y := float64(a), float64(b)
	if x == y {
		return true
	}
	if math.IsInf(x, 0) || math.IsInf(y, 0) {
		return false
	}
	d := math.Abs(x - y)
	return d <= tol*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
}

// Approx is AlmostEqual at DefaultTol.
func Approx[T ~float64](a, b T) bool { return AlmostEqual(a, b, DefaultTol) }

// AbsRelError returns |pred - actual| / |actual|.
func AbsRelError(pred, actual float64) float64 {
	if actual == 0 {
		if pred == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(pred-actual) / math.Abs(actual)
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) by linear
// interpolation on the sorted copy of xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// FractionBelow returns the fraction of xs that is <= bound: one point
// of an empirical CDF.
func FractionBelow(xs []float64, bound float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x <= bound {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// CDF returns the empirical CDF of xs evaluated at each of the given
// thresholds.
type CDFPoint struct {
	X        float64
	Fraction float64
}

// EmpiricalCDF evaluates the CDF of xs at the supplied thresholds.
func EmpiricalCDF(xs, thresholds []float64) []CDFPoint {
	pts := make([]CDFPoint, len(thresholds))
	for i, th := range thresholds {
		pts[i] = CDFPoint{X: th, Fraction: FractionBelow(xs, th)}
	}
	return pts
}

// Bucket counts how many values fall into (lo, hi] style error bands,
// used by Table 2. Bounds must be ascending; values above the last
// bound land in the final overflow bucket.
func Bucket(xs, bounds []float64) []int {
	counts := make([]int, len(bounds)+1)
	for _, x := range xs {
		placed := false
		for i, b := range bounds {
			if x <= b {
				counts[i]++
				placed = true
				break
			}
		}
		if !placed {
			counts[len(bounds)]++
		}
	}
	return counts
}
