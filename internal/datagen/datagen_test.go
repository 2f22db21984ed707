package datagen

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGraphDeterministic(t *testing.T) {
	g := GraphSpec{Seed: 42, Vertices: 1000, AvgDegree: 8}
	a := g.Neighbors(17)
	b := g.Neighbors(17)
	if len(a) != len(b) {
		t.Fatal("non-deterministic degree")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic neighbors")
		}
	}
	if len(a) != g.OutDegree(17) {
		t.Fatalf("neighbors length %d != degree %d", len(a), g.OutDegree(17))
	}
}

func TestGraphDegreeDistribution(t *testing.T) {
	g := GraphSpec{Seed: 7, Vertices: 5000, AvgDegree: 8}
	total, maxDeg := 0, 0
	for v := int64(0); v < 5000; v++ {
		d := g.OutDegree(v)
		if d < 1 {
			t.Fatalf("degree %d < 1", d)
		}
		total += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(total) / 5000
	if mean < 4 || mean > 16 {
		t.Fatalf("mean degree %v too far from requested 8", mean)
	}
	// Power-law: the max must dwarf the mean (skew that causes Fig. 3).
	if float64(maxDeg) < 5*mean {
		t.Fatalf("max degree %d shows no skew (mean %v)", maxDeg, mean)
	}
}

func TestGraphNeighborsInRange(t *testing.T) {
	g := GraphSpec{Seed: 3, Vertices: 100, AvgDegree: 4}
	f := func(v uint16) bool {
		for _, n := range g.Neighbors(int64(v) % 100) {
			if n < 0 || n >= 100 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPointsSeparable(t *testing.T) {
	p := PointsSpec{Seed: 5, N: 2000, Dim: 10, Noise: 0}
	w := p.trueWeights()
	correct := 0
	for i := int64(0); i < 2000; i++ {
		x, y := p.Point(i)
		if len(x) != 10 {
			t.Fatalf("dim = %d", len(x))
		}
		dot := 0.0
		for d := range x {
			dot += w[d] * x[d]
		}
		pred := 0.0
		if dot > 0 {
			pred = 1
		}
		if pred == y {
			correct++
		}
	}
	if correct != 2000 {
		t.Fatalf("noise-free points must be separable by the true weights: %d/2000", correct)
	}
}

func TestPointsNoiseFlipsSome(t *testing.T) {
	p := PointsSpec{Seed: 5, N: 2000, Dim: 10, Noise: 0.3}
	w := p.trueWeights()
	flipped := 0
	for i := int64(0); i < 2000; i++ {
		x, y := p.Point(i)
		dot := 0.0
		for d := range x {
			dot += w[d] * x[d]
		}
		pred := 0.0
		if dot > 0 {
			pred = 1
		}
		if pred != y {
			flipped++
		}
	}
	if flipped < 400 || flipped > 800 {
		t.Fatalf("30%% noise should flip ≈600/2000 labels, flipped %d", flipped)
	}
}

func TestClusterPointsNearCenters(t *testing.T) {
	c := ClusterSpec{Seed: 9, N: 1000, Dim: 4, K: 5, Spread: 1.0}
	for i := int64(0); i < 1000; i++ {
		x, cl := c.Point(i)
		ctr := c.Center(cl)
		dist := 0.0
		for d := range x {
			dist += (x[d] - ctr[d]) * (x[d] - ctr[d])
		}
		if math.Sqrt(dist) > 10 {
			t.Fatalf("point %d is %v away from its center", i, math.Sqrt(dist))
		}
	}
}

func TestRatingsValidRange(t *testing.T) {
	r := RatingsSpec{Seed: 11, Users: 500, Items: 100, ItemsPerUser: 10}
	totalRatings := 0
	for u := int64(0); u < 500; u++ {
		items, ratings := r.UserRatings(u)
		if len(items) != len(ratings) {
			t.Fatal("items/ratings length mismatch")
		}
		totalRatings += len(items)
		for i := range items {
			if items[i] < 0 || items[i] >= 100 {
				t.Fatalf("item %d out of range", items[i])
			}
			if ratings[i] < 1 || ratings[i] > 5 {
				t.Fatalf("rating %v out of range", ratings[i])
			}
		}
	}
	if totalRatings < 500*5 {
		t.Fatalf("too few ratings: %d", totalRatings)
	}
}

func TestRatingsDeterministic(t *testing.T) {
	r := RatingsSpec{Seed: 11, Users: 10, Items: 50, ItemsPerUser: 5}
	i1, r1 := r.UserRatings(3)
	i2, r2 := r.UserRatings(3)
	for k := range i1 {
		if i1[k] != i2[k] || r1[k] != r2[k] {
			t.Fatal("ratings not deterministic")
		}
	}
}
