package regression

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitExactLine(t *testing.T) {
	// y = 3x + 2
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{5, 8, 11, 14, 17}
	m, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Slope-3) > 1e-9 || math.Abs(m.Intercept-2) > 1e-9 {
		t.Fatalf("fit = %+v, want slope 3 intercept 2", m)
	}
	if math.Abs(m.Predict(10)-32) > 1e-9 {
		t.Fatalf("predict(10) = %v, want 32", m.Predict(10))
	}
}

func TestFitSinglePoint(t *testing.T) {
	m, err := Fit([]float64{4}, []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if m.Predict(100) != 7 {
		t.Fatalf("single point should predict the constant, got %v", m.Predict(100))
	}
}

func TestFitDegenerateXs(t *testing.T) {
	m, err := Fit([]float64{2, 2, 2}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Predict(5)-2) > 1e-9 {
		t.Fatalf("degenerate xs should predict the mean, got %v", m.Predict(5))
	}
}

func TestFitEmpty(t *testing.T) {
	if _, err := Fit(nil, nil); err != ErrNoData {
		t.Fatalf("expected ErrNoData, got %v", err)
	}
	if _, err := Fit([]float64{1}, []float64{1, 2}); err != ErrNoData {
		t.Fatalf("mismatched lengths should error, got %v", err)
	}
}

func TestPredictNonNegative(t *testing.T) {
	m := Linear{Slope: -10, Intercept: 5}
	if m.PredictNonNegative(100) != 0 {
		t.Fatal("negative prediction should clamp to zero")
	}
	if m.PredictNonNegative(0) != 5 {
		t.Fatal("positive prediction should pass through")
	}
}

// TestSeriesIncremental: a series of observations refit as it grows
// follows each new point, as the lineage's induction refits on every
// lookup: an empty series fits nothing, two points on y = 10x predict 30
// at 3, and a third point below the line lowers that prediction.
func TestSeriesIncremental(t *testing.T) {
	var xs, ys []float64
	if _, err := Fit(xs, ys); err != ErrNoData {
		t.Fatalf("empty series: err = %v, want ErrNoData", err)
	}
	observe := func(x, y float64) float64 {
		xs, ys = append(xs, x), append(ys, y)
		m, err := Fit(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		return m.PredictNonNegative(3)
	}
	observe(1, 10)
	if v := observe(2, 20); math.Abs(v-30) > 1e-9 {
		t.Fatalf("predict(3) = %v, want 30", v)
	}
	if v := observe(3, 10); v >= 30 {
		t.Fatalf("refit should lower the prediction, got %v", v)
	}
}

// Property: OLS residual sum is (near) orthogonal — the fitted line is a
// stationary point, so perturbing the slope cannot reduce squared error.
func TestFitIsLeastSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sse := func(slope, intercept float64, xs, ys []float64) float64 {
		s := 0.0
		for i := range xs {
			d := ys[i] - (intercept + slope*xs[i])
			s += d * d
		}
		return s
	}
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 10
			ys[i] = rng.Float64() * 100
		}
		m, err := Fit(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		base := sse(m.Slope, m.Intercept, xs, ys)
		for _, d := range []float64{-0.1, 0.1} {
			if sse(m.Slope+d, m.Intercept, xs, ys) < base-1e-6 {
				t.Fatalf("trial %d: perturbed slope beats OLS fit", trial)
			}
			if sse(m.Slope, m.Intercept+d, xs, ys) < base-1e-6 {
				t.Fatalf("trial %d: perturbed intercept beats OLS fit", trial)
			}
		}
	}
}

// Property: fitting exact lines recovers them for arbitrary coefficients.
func TestFitRecoversLines(t *testing.T) {
	f := func(a, b int8) bool {
		slope, intercept := float64(a), float64(b)
		xs := []float64{0, 1, 2, 3}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = intercept + slope*x
		}
		m, err := Fit(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(m.Slope-slope) < 1e-6 && math.Abs(m.Intercept-intercept) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
