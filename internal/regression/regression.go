// Package regression implements the lightweight inductive regression
// Blaze applies to partition metrics (§5.3): for each dataset role, the
// metrics observed during the initial iterations (partition sizes,
// computation times) are fit with a simple linear model over the
// iteration index, and the fitted model predicts the metrics of
// partitions in iterations that have not yet executed.
package regression

import (
	"errors"
	"math"
)

// Linear is an ordinary-least-squares simple linear regression model
// y = Intercept + Slope*x.
type Linear struct {
	Slope     float64
	Intercept float64
	// N is the number of observations the model was fit on.
	N int
}

// ErrNoData is returned when fitting with no observations.
var ErrNoData = errors.New("regression: no observations")

// Fit computes the least-squares line through the points (xs[i], ys[i]).
// With a single observation the model is the constant ys[0]. Degenerate
// inputs (all xs identical) also fall back to the mean, which keeps
// predictions finite.
func Fit(xs, ys []float64) (Linear, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return Linear{}, ErrNoData
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		return Linear{Slope: 0, Intercept: sy / n, N: len(xs)}, nil
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	return Linear{Slope: slope, Intercept: intercept, N: len(xs)}, nil
}

// Predict evaluates the model at x.
func (l Linear) Predict(x float64) float64 {
	return l.Intercept + l.Slope*x
}

// PredictNonNegative evaluates the model at x, clamped at zero; partition
// sizes and computation times are never negative.
func (l Linear) PredictNonNegative(x float64) float64 {
	v := l.Predict(x)
	if v < 0 {
		return 0
	}
	return v
}
