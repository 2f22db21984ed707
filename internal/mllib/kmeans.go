package mllib

import (
	"math"

	"blaze/internal/dataflow"
	"blaze/internal/datagen"
)

// KMeansConfig parameterizes the KMeans workload (§7.1: HiBench uniform
// data; the paper notes the uniform distribution yields small partition
// skew, limiting auto-caching's benefit there).
type KMeansConfig struct {
	Data     datagen.ClusterSpec
	Parts    int
	MaxIters int
	// Epsilon is the centroid-movement convergence threshold; negative
	// disables the convergence check so the full iteration budget runs
	// (HiBench-style fixed iterations).
	Epsilon  float64
	Annotate bool
}

func (c KMeansConfig) withDefaults() KMeansConfig {
	if c.Parts == 0 {
		c.Parts = 8
	}
	if c.MaxIters == 0 {
		c.MaxIters = 10
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1e-3
	}
	return c
}

// sumCount accumulates a cluster's assigned points.
type sumCount struct {
	Sum []float64
	N   float64
}

// SizeBytes implements storage.Sized.
func (s sumCount) SizeBytes() int64 { return 40 + 8*int64(len(s.Sum)) }

// clusterSource builds the partitioned points dataset.
func clusterSource(ctx *dataflow.Context, dsName string, spec datagen.ClusterSpec, parts int) *dataflow.Dataset {
	return ctx.Source(dsName, parts, func(part int) []dataflow.Record {
		return memoized("cluster", spec, parts, part, func() []dataflow.Record {
			var out []dataflow.Record
			for i := int64(part); i < int64(spec.N); i += int64(parts) {
				x, _ := spec.Point(i)
				out = append(out, dataflow.Record{Key: i, Value: Vector{V: x}})
			}
			return out
		})
	})
}

// KMeans runs Lloyd's algorithm, one job per iteration, and returns the
// final centroids and within-cluster sum of squares.
func KMeans(ctx *dataflow.Context, cfg KMeansConfig) ([][]float64, float64) {
	cfg = cfg.withDefaults()
	spec := cfg.Data
	points := clusterSource(ctx, "km-points@0", spec, cfg.Parts)
	if cfg.Annotate {
		points.Cache()
	}
	centroids := initialCentroids(ctx, "km-cent@0", spec)

	prevCenters := make([][]float64, 0, spec.K)
	var prevStats, prevCentDS *dataflow.Dataset
	var centers [][]float64
	for it := 1; it <= cfg.MaxIters; it++ {
		stats, newCent := kmeansIteration(points, centroids, "km", it, spec.K, cfg.Annotate)
		centers = collectCenters(newCent, spec.K)

		if prevStats != nil {
			prevStats.Release()
		}
		if prevCentDS != nil {
			prevCentDS.Release()
		}
		prevStats, prevCentDS = stats, centroids
		centroids = newCent

		// Convergence: maximum centroid movement below epsilon.
		if cfg.Epsilon >= 0 && len(prevCenters) == spec.K {
			maxMove := 0.0
			for c := range centers {
				if centers[c] == nil || prevCenters[c] == nil {
					continue
				}
				d := 0.0
				for j := range centers[c] {
					diff := centers[c][j] - prevCenters[c][j]
					d += diff * diff
				}
				if m := math.Sqrt(d); m > maxMove {
					maxMove = m
				}
			}
			if maxMove < cfg.Epsilon {
				break
			}
		}
		prevCenters = centers
	}

	// Final within-cluster sum of squares.
	wcss := dataflow.Barrier("km-wcss@0", dataflow.OpMedium, points, centroids,
		func(_ int, ps, cs []dataflow.Record) []dataflow.Record {
			centers := make([][]float64, spec.K)
			for _, c := range cs {
				centers[c.Key] = c.Value.(Vector).V
			}
			total := 0.0
			for _, p := range ps {
				x := p.Value.(Vector).V
				best := math.Inf(1)
				for _, ctr := range centers {
					if ctr == nil {
						continue
					}
					d := 0.0
					for j := range x {
						diff := x[j] - ctr[j]
						d += diff * diff
					}
					if d < best {
						best = d
					}
				}
				total += best
			}
			return []dataflow.Record{{Key: 0, Value: total}}
		}).WithBatchKernel(wcssKernel(spec.K)).ReduceByKeyF64("km-wcss-agg@0", 1, func(a, b float64) float64 {
		return a + b
	})
	var total float64
	for _, part := range wcss.Collect() {
		for _, r := range part {
			total = r.Value.(float64)
		}
	}
	return centers, total
}

// initialCentroids is the centroid seed: the first K points of spec
// (MLlib uses sampling; the first points of a uniform dataset serve the
// same role deterministically).
func initialCentroids(ctx *dataflow.Context, dsName string, spec datagen.ClusterSpec) *dataflow.Dataset {
	return ctx.Source(dsName, 1, func(int) []dataflow.Record {
		out := make([]dataflow.Record, spec.K)
		for c := 0; c < spec.K; c++ {
			x, _ := spec.Point(int64(c))
			out[c] = dataflow.Record{Key: int64(c), Value: Vector{V: x}}
		}
		return out
	})
}

// kmeansIteration builds one Lloyd's step over k clusters: assign every
// point to its nearest centroid (prefix-stats@it), sum the assignments
// per cluster (prefix-agg@it) and divide them into the new centroids
// (prefix-cent@it). The caller submits the job (collectCenters) and
// releases what the step supersedes.
func kmeansIteration(points, centroids *dataflow.Dataset, prefix string, it, k int, annotate bool) (stats, newCent *dataflow.Dataset) {
	stats = dataflow.Barrier(name(prefix+"-stats", it), dataflow.OpHeavy, points, centroids, assignStats(k)).
		WithBatchKernel(statsKernel(k))
	agg := stats.ReduceByKey(name(prefix+"-agg", it), 1, func(a, b any) any {
		av, bv := a.(sumCount), b.(sumCount)
		sum := make([]float64, len(av.Sum))
		for j := range sum {
			sum[j] = av.Sum[j] + bv.Sum[j]
		}
		return sumCount{Sum: sum, N: av.N + bv.N}
	})
	newCent = agg.Map(name(prefix+"-cent", it), func(r dataflow.Record) dataflow.Record {
		sc := r.Value.(sumCount)
		v := make([]float64, len(sc.Sum))
		for j := range v {
			v[j] = sc.Sum[j] / math.Max(sc.N, 1)
		}
		return dataflow.Record{Key: r.Key, Value: Vector{V: v}}
	})
	if annotate {
		newCent.Cache()
	}
	return stats, newCent
}

// assignStats is the assignment Barrier's row closure: every point joins
// its nearest present centroid's running sum (strict less-than, so ties
// go to the lowest cluster), and the partition emits one sumCount per
// cluster 0..k-1 that received points. The centroid table has k slots
// whatever the broadcast holds, so an emptied cluster is a nil slot, as
// in statsKernel, its columnar twin.
func assignStats(k int) func(int, []dataflow.Record, []dataflow.Record) []dataflow.Record {
	return func(_ int, ps, cs []dataflow.Record) []dataflow.Record {
		centers := make([][]float64, k)
		for _, c := range cs {
			centers[c.Key] = c.Value.(Vector).V
		}
		acc := make(map[int64]*sumCount)
		for _, p := range ps {
			x := p.Value.(Vector).V
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				if ctr == nil {
					continue
				}
				d := 0.0
				for j := range x {
					diff := x[j] - ctr[j]
					d += diff * diff
				}
				if d < bestD {
					best, bestD = c, d
				}
			}
			sc := acc[int64(best)]
			if sc == nil {
				sc = &sumCount{Sum: make([]float64, len(x))}
				acc[int64(best)] = sc
			}
			for j := range x {
				sc.Sum[j] += x[j]
			}
			sc.N++
		}
		var out []dataflow.Record
		for c := int64(0); c < int64(k); c++ {
			if sc := acc[c]; sc != nil {
				out = append(out, dataflow.Record{Key: c, Value: *sc})
			}
		}
		return out
	}
}

// collectCenters submits the iteration's job and returns the centroids
// in a k-slot table (nil for a cluster that received no points).
func collectCenters(newCent *dataflow.Dataset, k int) [][]float64 {
	centers := make([][]float64, k)
	for _, part := range newCent.Collect() {
		for _, r := range part {
			centers[r.Key] = r.Value.(Vector).V
		}
	}
	return centers
}

// KMeansWorkload wraps KMeans as a profile-compatible workload.
func KMeansWorkload(cfg KMeansConfig) func(ctx *dataflow.Context, scale float64) {
	return func(ctx *dataflow.Context, scale float64) {
		c := cfg.withDefaults()
		c.Data.N = scaledN(c.Data.N, scale)
		KMeans(ctx, c)
	}
}
