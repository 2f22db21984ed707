package regression

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"slices"
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

func TestSeriesIncremental(t *testing.T) {
	var s Series
	if _, ok := s.Predict(1); ok {
		t.Fatal("empty series should not predict")
	}
	s.Observe(1, 10)
	s.Observe(2, 20)
	v, ok := s.Predict(3)
	if !ok || math.Abs(v-30) > 1e-9 {
		t.Fatalf("predict(3) = %v,%v, want 30,true", v, ok)
	}
	// New observation bends the line; cached fit must refresh.
	s.Observe(3, 10)
	v2, _ := s.Predict(3)
	if v2 >= 30 {
		t.Fatalf("refit should lower the prediction, got %v", v2)
	}
	last, ok := s.Last()
	if !ok || last != 10 {
		t.Fatalf("last = %v,%v, want 10,true", last, ok)
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

// TestSeriesGobRoundTrip: a series survives a gob round trip in the fixed
// layout, inside a map of series as a controller snapshot carries them,
// and refits to the same model; no observations decode as nil.
func TestSeriesGobRoundTrip(t *testing.T) {
	var s Series
	for i := 0; i < 7; i++ {
		s.Observe(float64(i), 3*float64(i)+0.25)
	}
	in := map[int]*Series{0: &s, 3: {}}
	var wire bytes.Buffer
	if err := gob.NewEncoder(&wire).Encode(in); err != nil {
		t.Fatal(err)
	}
	var out map[int]*Series
	if err := gob.NewDecoder(&wire).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out[0].xs, s.xs) || !slices.Equal(out[0].ys, s.ys) {
		t.Fatalf("round trip: %v %v, want %v %v", out[0].xs, out[0].ys, s.xs, s.ys)
	}
	got, _ := out[0].Predict(10)
	want, _ := s.Predict(10)
	if got != want {
		t.Fatalf("restored series predicts %v, want %v", got, want)
	}
	if e := out[3]; e == nil || e.xs != nil || e.ys != nil || e.Len() != 0 {
		t.Fatalf("empty series decoded as %+v, want nil observations", e)
	}
	data, _ := s.GobEncode()
	if len(data) != 2+1+16*7 || data[0] != 0xFF || data[1] != 0x00 {
		t.Fatalf("encoded %d bytes starting % x, want the marker, a count and 16 bytes per observation", len(data), data[:2])
	}
	for _, torn := range [][]byte{data[:len(data)-1], append(slices.Clone(data), 0), data[:2]} {
		if err := new(Series).GobDecode(torn); err == nil {
			t.Errorf("a %d-byte series decoded without error", len(torn))
		}
	}
}

// TestSeriesDecodesOldForm: a series written as a nested gob stream of
// seriesWire, the form older checkpoints carry, decodes equal.
func TestSeriesDecodesOldForm(t *testing.T) {
	for _, w := range []seriesWire{{Xs: []float64{1, 2, 4}, Ys: []float64{0.5, -1, 8}}, {}} {
		var old bytes.Buffer
		if err := gob.NewEncoder(&old).Encode(w); err != nil {
			t.Fatal(err)
		}
		var s Series
		if err := s.GobDecode(old.Bytes()); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(s.xs, w.Xs) || !slices.Equal(s.ys, w.Ys) || (s.xs == nil) != (w.Xs == nil) || s.dirty != (len(w.Xs) > 0) {
			t.Fatalf("old form %v decoded as %v %v", w, s.xs, s.ys)
		}
	}
}

// TestSeriesPrefixIsFrozen: a prefix keeps reading the observations it
// was taken with while the series goes on observing.
func TestSeriesPrefixIsFrozen(t *testing.T) {
	var s Series
	for i := 0; i < 5; i++ {
		s.Observe(float64(i), float64(i))
	}
	p := s.Prefix()
	for i := 5; i < 40; i++ {
		s.Observe(float64(i), -float64(i))
	}
	if p.Len() != 5 || p.xs[4] != 4 || p.ys[4] != 4 {
		t.Fatalf("prefix reads %v %v after the series grew", p.xs, p.ys)
	}
	if v, ok := p.Predict(9); !ok || v != 9 {
		t.Fatalf("prefix predicts %v, %v at 9, want 9", v, ok)
	}
}
