// Package regression implements the lightweight inductive regression
// Blaze applies to partition metrics (§5.3): for each dataset role, the
// metrics observed during the initial iterations (partition sizes,
// computation times) are fit with a simple linear model over the
// iteration index, and the fitted model predicts the metrics of
// partitions in iterations that have not yet executed.
package regression

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
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

// Series is an incrementally built set of (x, y) observations with a
// cached fit, used by the CostLineage to track one metric of one dataset
// role across iterations.
type Series struct {
	xs, ys []float64
	model  Linear
	dirty  bool
}

// Observe appends an observation and invalidates the cached fit.
func (s *Series) Observe(x, y float64) {
	s.xs = append(s.xs, x)
	s.ys = append(s.ys, y)
	s.dirty = true
}

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.xs) }

// Predict returns the model's non-negative prediction at x, refitting if
// new observations arrived. With no observations it returns 0 and false.
func (s *Series) Predict(x float64) (float64, bool) {
	if len(s.xs) == 0 {
		return 0, false
	}
	if s.dirty {
		m, err := Fit(s.xs, s.ys)
		if err != nil {
			return 0, false
		}
		s.model = m
		s.dirty = false
	}
	return s.model.PredictNonNegative(x), true
}

// Last returns the most recent observation, or false if empty. Callers
// prefer an exact observation over a prediction when one exists.
func (s *Series) Last() (float64, bool) {
	if len(s.ys) == 0 {
		return 0, false
	}
	return s.ys[len(s.ys)-1], true
}

// seriesWire is the original gob wire form of a Series, a nested gob
// stream per series; GobDecode still reads it.
type seriesWire struct {
	Xs, Ys []float64
}

// seriesMarker opens the fixed binary layout. A gob stream never starts
// with it: 0xFF announces a one-byte unsigned count, and gob writes 0 as
// the single byte 0x00, never as 0xFF 0x00.
var seriesMarker = [2]byte{0xFF, 0x00}

// GobEncode serializes the observations (checkpoint support) in a fixed
// binary layout: the marker, a uvarint count, then the xs and the ys as
// little-endian float64 bits. The cached model is not encoded — Predict
// refits from the observations.
func (s *Series) GobEncode() ([]byte, error) {
	n := len(s.xs)
	buf := make([]byte, 0, len(seriesMarker)+binary.MaxVarintLen64+16*n)
	buf = append(buf, seriesMarker[:]...)
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, v := range s.xs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, v := range s.ys[:n] {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf, nil
}

// GobDecode restores the observations from either layout, the fixed one
// or the nested gob stream of older checkpoints, and marks the fit stale
// so the next Predict recomputes it. No observations decode as nil.
func (s *Series) GobDecode(data []byte) error {
	var xs, ys []float64
	if len(data) >= len(seriesMarker) && [2]byte(data) == seriesMarker {
		n, k := binary.Uvarint(data[len(seriesMarker):])
		rest := data[len(seriesMarker)+max(k, 0):]
		if k <= 0 || n > uint64(len(rest))/16 || uint64(len(rest)) != 16*n {
			return errors.New("regression: malformed series")
		}
		if n > 0 {
			xs, ys = make([]float64, n), make([]float64, n)
			for i := range xs {
				xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
				ys[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*(int(n)+i):]))
			}
		}
	} else {
		var w seriesWire
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
			return err
		}
		xs, ys = w.Xs, w.Ys
	}
	s.xs, s.ys = xs, ys
	s.model = Linear{}
	s.dirty = len(s.xs) > 0
	return nil
}

// Prefix returns the series as it stands: its observations so far, on
// the same arrays, capped at their length. Observe only appends, so
// nothing the prefix reads is ever written again, and it can be encoded
// on another goroutine while this series goes on observing.
func (s *Series) Prefix() Series {
	n := len(s.xs)
	return Series{xs: s.xs[:n:n], ys: s.ys[:n:n], dirty: n > 0}
}
