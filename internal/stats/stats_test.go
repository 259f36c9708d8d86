package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveLinearExact(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := SolveLinear(a, b); err == nil {
		t.Error("singular system: want error")
	}
}

func TestSolveLinearBadDims(t *testing.T) {
	if _, err := SolveLinear(nil, nil); err == nil {
		t.Error("empty system: want error")
	}
	if _, err := SolveLinear([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("non-square system: want error")
	}
}

func TestLeastSquaresRecovers(t *testing.T) {
	// y = 3 + 2x with exact data: LSQ must recover exactly.
	xs := []float64{0, 1, 2, 3, 4}
	design := make([][]float64, len(xs))
	ys := make([]float64, len(xs))
	for i, x := range xs {
		design[i] = []float64{1, x}
		ys[i] = 3 + 2*x
	}
	beta, err := LeastSquares(design, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-3) > 1e-10 || math.Abs(beta[1]-2) > 1e-10 {
		t.Errorf("beta = %v, want [3 2]", beta)
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	if _, err := LeastSquares([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("1 observation, 2 params: want error")
	}
}

func TestPolyFitQuadratic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 1 - 2*x + 0.5*x*x
	}
	beta, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -2, 0.5}
	for i := range want {
		if math.Abs(beta[i]-want[i]) > 1e-9 {
			t.Errorf("beta[%d] = %g, want %g", i, beta[i], want[i])
		}
	}
}

func TestLinFitWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 10 + 0.5*xs[i] + rng.NormFloat64()*0.01
	}
	a, b, err := LinFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-10) > 0.05 || math.Abs(b-0.5) > 0.001 {
		t.Errorf("fit = (%g, %g), want (10, 0.5)", a, b)
	}
}

func TestCurveFitExponential(t *testing.T) {
	model := func(x float64, p []float64) float64 {
		return p[0]*math.Exp(p[1]*x) + p[2]
	}
	truth := []float64{2, 0.8, 5}
	xs := []float64{0, 0.5, 1, 1.5, 2, 2.5, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = model(x, truth)
	}
	p, ssr, err := CurveFit(model, xs, ys, []float64{1, 0.5, 1}, DefaultLMOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ssr > 1e-8 {
		t.Fatalf("residual %g too large (p=%v)", ssr, p)
	}
	for i := range truth {
		if math.Abs(p[i]-truth[i]) > 1e-3 {
			t.Errorf("p[%d] = %g, want %g", i, p[i], truth[i])
		}
	}
}

func TestCurveFitRespectsBounds(t *testing.T) {
	model := func(x float64, p []float64) float64 {
		return p[0]*math.Exp(p[1]*x) + p[2]
	}
	// Data generated with exponent 3, but the fit clamps b to [0, 1]
	// (mirroring the paper's clamp of Func. 3's b to [0, 10]).
	truth := []float64{1, 3, 0}
	xs := []float64{0, 0.5, 1, 1.5, 2}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = model(x, truth)
	}
	opt := DefaultLMOptions()
	opt.Lower = []float64{-1e9, 0, -1e9}
	opt.Upper = []float64{1e9, 1, 1e9}
	p, _, err := CurveFit(model, xs, ys, []float64{1, 0.5, 0}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if p[1] < 0 || p[1] > 1 {
		t.Errorf("bounded parameter escaped box: b = %g", p[1])
	}
}

// TestCurveFitAllocsIndependentOfIterations holds CurveFit's work
// buffers to one allocation each per call: a fit allowed 200 iterations
// runs several times the model calls of one allowed a single iteration,
// yet allocates no more.
func TestCurveFitAllocsIndependentOfIterations(t *testing.T) {
	calls := 0
	model := func(x float64, p []float64) float64 {
		calls++
		return p[0]*math.Exp(p[1]*x) + p[2]
	}
	truth := []float64{2, 0.8, 5}
	xs := []float64{0, 0.5, 1, 1.5, 2, 2.5, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = model(x, truth)
	}
	fit := func(maxIter int) (allocs float64, modelCalls int) {
		opt := DefaultLMOptions()
		opt.MaxIter = maxIter
		calls = 0
		allocs = testing.AllocsPerRun(1, func() {
			if _, _, err := CurveFit(model, xs, ys, []float64{1, 0.5, 1}, opt); err != nil {
				t.Fatal(err)
			}
		})
		// AllocsPerRun makes a warm-up call before the measured one.
		return allocs, calls / 2
	}
	oneAllocs, oneCalls := fit(1)
	manyAllocs, manyCalls := fit(200)
	if manyCalls < 3*oneCalls {
		t.Fatalf("premise: 200 iterations made %d model calls, 1 made %d; want the fit to run several iterations", manyCalls, oneCalls)
	}
	if manyAllocs != oneAllocs {
		t.Errorf("CurveFit made %v allocations with MaxIter 200 and %v with MaxIter 1, want the same", manyAllocs, oneAllocs)
	}
}

func TestCurveFitErrors(t *testing.T) {
	model := func(x float64, p []float64) float64 { return p[0] * x }
	if _, _, err := CurveFit(model, []float64{1}, []float64{1, 2}, []float64{0}, LMOptions{}); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, _, err := CurveFit(model, []float64{1}, []float64{1}, []float64{0, 0}, LMOptions{}); err == nil {
		t.Error("underdetermined: want error")
	}
}

func TestAbsRelError(t *testing.T) {
	if got := AbsRelError(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("AbsRelError(110,100) = %g, want 0.1", got)
	}
	if got := AbsRelError(0, 0); got != 0 {
		t.Errorf("AbsRelError(0,0) = %g, want 0", got)
	}
	if got := AbsRelError(1, 0); !math.IsInf(got, 1) {
		t.Errorf("AbsRelError(1,0) = %g, want +Inf", got)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %g, want 2.5", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75},
	}
	for _, tc := range cases {
		if got := Percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Percentile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile(nil) should be NaN")
	}
}

func TestFractionBelowAndCDF(t *testing.T) {
	xs := []float64{0.01, 0.02, 0.05, 0.2}
	if got := FractionBelow(xs, 0.05); got != 0.75 {
		t.Errorf("FractionBelow = %g, want 0.75", got)
	}
	pts := EmpiricalCDF(xs, []float64{0.01, 0.1, 1})
	wants := []float64{0.25, 0.75, 1}
	for i, p := range pts {
		if p.Fraction != wants[i] {
			t.Errorf("CDF[%d] = %g, want %g", i, p.Fraction, wants[i])
		}
	}
}

func TestBucket(t *testing.T) {
	xs := []float64{0.005, 0.03, 0.07, 0.5}
	counts := Bucket(xs, []float64{0.01, 0.05, 0.10})
	want := []int{1, 1, 1, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], want[i])
		}
	}
}

// Property: LinFit on exact linear data recovers slope/intercept for
// arbitrary coefficients.
func TestQuickLinFitExact(t *testing.T) {
	prop := func(a8, b8 int8) bool {
		a, b := float64(a8), float64(b8)
		xs := []float64{-2, -1, 0, 1, 2, 5}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a + b*x
		}
		ga, gb, err := LinFit(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(ga-a) < 1e-8 && math.Abs(gb-b) < 1e-8
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestAlmostEqual(t *testing.T) {
	cases := []struct {
		name string
		a, b float64
		tol  float64
		want bool
	}{
		{"exact", 1.5, 1.5, 1e-9, true},
		{"within-rel", 1e9, 1e9 + 0.5, 1e-9, true},
		{"outside-rel", 1e9, 1e9 + 10, 1e-9, false},
		{"abs-floor-small", 1e-12, 0, 1e-9, true},
		{"small-distinct", 1e-6, 2e-6, 1e-9, false},
		{"inf-same", math.Inf(1), math.Inf(1), 1e-9, true},
		{"inf-vs-finite", math.Inf(1), 1e300, 1e-9, false},
		{"nan", math.NaN(), math.NaN(), 1e-9, false},
		{"neg-symmetric", -3.0, -3.0 - 1e-12, 1e-9, true},
	}
	for _, c := range cases {
		if got := AlmostEqual(c.a, c.b, c.tol); got != c.want {
			t.Errorf("%s: AlmostEqual(%v, %v, %v) = %v, want %v", c.name, c.a, c.b, c.tol, got, c.want)
		}
		if got := AlmostEqual(c.b, c.a, c.tol); got != c.want {
			t.Errorf("%s: AlmostEqual not symmetric for (%v, %v)", c.name, c.a, c.b)
		}
	}
}

func TestApprox(t *testing.T) {
	if !Approx(0.1+0.2, 0.3) {
		t.Error("Approx(0.1+0.2, 0.3) = false; the helper exists for exactly this case")
	}
	if Approx(0.3, 0.3001) {
		t.Error("Approx(0.3, 0.3001) = true, want false")
	}
	if !Approx(0.0, 0.0) {
		t.Error("Approx(0, 0) = false")
	}
}
