// Package datagen provides the seeded synthetic input generators for the
// six evaluation workloads (§7.1). The paper uses SparkBench graph data,
// Criteo click logs, HiBench LibSVM/uniform data and synthetic ratings;
// this reproduction generates inputs with the same skew characteristics
// (power-law graph degrees, labeled feature vectors, uniform clustering
// points, user×item ratings) at laptop scale.
//
// All generators are deterministic per (seed, vertex/point id), so a
// partition's content is independent of partition count and identical
// across runs — a requirement for recomputation-based recovery.
package datagen

import (
	"math"
	"math/rand"
)

// mix64 is the splitmix64 finalizer, used to derive per-entity seeds.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rngFor builds a deterministic RNG for one entity of one generator.
func rngFor(seed int64, entity int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(uint64(seed) ^ mix64(uint64(entity))))))
}

// GraphSpec describes a synthetic power-law graph in the style of the
// SparkBench generator used for PR and CC.
type GraphSpec struct {
	Seed     int64
	Vertices int
	// AvgDegree is the mean out-degree; actual degrees follow a bounded
	// Pareto distribution, giving the partition-size skew Fig. 3 shows.
	AvgDegree int
	// Symmetric adds reverse edges (undirected view), as Connected
	// Components requires.
	Symmetric bool
}

// OutDegree returns vertex v's out-degree: a bounded Pareto sample with
// mean ≈ AvgDegree (power-law exponent ≈ 2, capped at 40× the mean).
func (g GraphSpec) OutDegree(v int64) int {
	rng := rngFor(g.Seed, v)
	// Pareto with alpha=2: mean = alpha/(alpha-1) * xm = 2*xm, so
	// xm = AvgDegree/2 gives the requested mean.
	xm := float64(g.AvgDegree) / 2
	u := rng.Float64()
	if u < 1e-9 {
		u = 1e-9
	}
	d := xm / math.Sqrt(u)
	maxD := float64(40 * g.AvgDegree)
	if d > maxD {
		d = maxD
	}
	if d < 1 {
		d = 1
	}
	return int(d)
}

// Neighbors returns vertex v's out-neighbors (deterministic).
func (g GraphSpec) Neighbors(v int64) []int64 {
	rng := rngFor(g.Seed, v)
	_ = rng.Float64() // consumed by OutDegree's sample; keep streams aligned
	deg := g.OutDegree(v)
	out := make([]int64, deg)
	for i := range out {
		out[i] = int64(rng.Intn(g.Vertices))
	}
	return out
}

// PointsSpec describes labeled classification data (Criteo/HiBench
// stand-in for LR and GBT).
type PointsSpec struct {
	Seed int64
	N    int
	Dim  int
	// Noise is the label-flip probability.
	Noise float64
}

// trueWeights derives the generating hyperplane from the seed.
func (p PointsSpec) trueWeights() []float64 {
	rng := rngFor(p.Seed, -1)
	w := make([]float64, p.Dim)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	return w
}

// Point returns feature vector and label (0 or 1) of point i.
func (p PointsSpec) Point(i int64) ([]float64, float64) {
	rng := rngFor(p.Seed, i)
	x := make([]float64, p.Dim)
	for d := range x {
		x[d] = rng.NormFloat64()
	}
	w := p.trueWeights()
	dot := 0.0
	for d := range x {
		dot += w[d] * x[d]
	}
	label := 0.0
	if dot > 0 {
		label = 1.0
	}
	if rng.Float64() < p.Noise {
		label = 1 - label
	}
	return x, label
}

// ClusterSpec describes uniform clustering data (HiBench KMeans uses a
// uniform distribution, which the paper notes yields small partition
// skew).
type ClusterSpec struct {
	Seed int64
	N    int
	Dim  int
	K    int
	// Spread is the cluster standard deviation around centers placed on
	// a lattice.
	Spread float64
}

// Center returns the generating center of cluster c.
func (c ClusterSpec) Center(cluster int) []float64 {
	rng := rngFor(c.Seed, int64(-2-cluster))
	ctr := make([]float64, c.Dim)
	for d := range ctr {
		ctr[d] = rng.Float64() * 100
	}
	return ctr
}

// Point returns point i's coordinates and its generating cluster.
func (c ClusterSpec) Point(i int64) ([]float64, int) {
	rng := rngFor(c.Seed, i)
	cluster := int(i) % c.K
	ctr := c.Center(cluster)
	x := make([]float64, c.Dim)
	for d := range x {
		x[d] = ctr[d] + rng.NormFloat64()*c.Spread
	}
	return x, cluster
}

// RatingsSpec describes user×item ratings (SVD++ input).
type RatingsSpec struct {
	Seed         int64
	Users        int
	Items        int
	ItemsPerUser int
}

// UserRatings returns the items user u rated and the ratings (1..5).
// A few latent user/item factors generate the ratings so that matrix
// factorization can actually recover structure.
func (r RatingsSpec) UserRatings(u int64) (items []int64, ratings []float64) {
	rng := rngFor(r.Seed, u)
	n := r.ItemsPerUser/2 + rng.Intn(r.ItemsPerUser+1)
	items = make([]int64, n)
	ratings = make([]float64, n)
	uf := float64(mix64(uint64(u))%1000)/1000.0*2 - 1
	for i := range items {
		item := int64(rng.Intn(r.Items))
		items[i] = item
		itf := float64(mix64(uint64(item)^0x9e37)%1000)/1000.0*2 - 1
		score := 3 + 1.5*uf*itf + rng.NormFloat64()*0.3
		if score < 1 {
			score = 1
		}
		if score > 5 {
			score = 5
		}
		ratings[i] = score
	}
	return items, ratings
}
