package mllib

import (
	"blaze/internal/dataflow"
	"blaze/internal/datagen"
)

// Streaming k-means: the micro-batch variant of the KMeans workload.
// Each window clusters a fresh drifted point batch (the generator
// re-seeded per window) with a few Lloyd's iterations, starting from
// the previous window's final centroids — the carried state that makes
// the stream converge across windows while each window's point batch
// and intermediate statistics die with the window. Every operator is the
// batch workload's (kmeans.go): only the release choreography differs.

// KMeansStreamConfig parameterizes the streaming k-means stream.
type KMeansStreamConfig struct {
	// Data describes one window's point batch; window w re-seeds the
	// generator with Seed+w-1, modeling concept drift between batches.
	Data  datagen.ClusterSpec
	Parts int
	// ItersPerWindow is how many Lloyd's iterations each window runs
	// (default 3).
	ItersPerWindow int
	// Annotate applies MLlib-style cache() annotations for
	// annotation-based systems; Blaze runs without them.
	Annotate bool
}

func (c KMeansStreamConfig) withDefaults() KMeansStreamConfig {
	if c.Parts == 0 {
		c.Parts = 8
	}
	if c.ItersPerWindow == 0 {
		c.ItersPerWindow = 3
	}
	return c
}

// KMeansStream returns the per-window step driver. The returned closure
// owns the carried state (the previous window's final centroid
// dataset); calling it with window w submits window w's jobs and
// returns the centroids after that window's iterations.
func KMeansStream(cfg KMeansStreamConfig) func(ctx *dataflow.Context, window int) [][]float64 {
	cfg = cfg.withDefaults()
	var centroids *dataflow.Dataset
	return func(ctx *dataflow.Context, window int) [][]float64 {
		spec := cfg.Data
		spec.Seed += int64(window - 1)
		base := (window - 1) * (cfg.ItersPerWindow + 1)

		points := clusterSource(ctx, name("skm-points", base), spec, cfg.Parts)
		if cfg.Annotate {
			points.Cache()
		}
		if centroids == nil {
			// Window 1 seeds from the first K points, like the batch
			// workload; every later window carries centroids in.
			centroids = initialCentroids(ctx, name("skm-cent", base), spec)
		}

		// The carried-in centroid dataset is never explicitly released:
		// windowed lifetime management retires cross-window state once
		// its last-consumer window has passed.
		carriedIn := centroids
		var prevStats, prevCentDS *dataflow.Dataset
		var centers [][]float64
		for i := 1; i <= cfg.ItersPerWindow; i++ {
			stats, newCent := kmeansIteration(points, centroids, "skm", base+i, spec.K, cfg.Annotate)
			centers = collectCenters(newCent, spec.K)

			if prevStats != nil {
				prevStats.Release()
			}
			if prevCentDS != nil && prevCentDS != carriedIn {
				prevCentDS.Release()
			}
			prevStats, prevCentDS = stats, centroids
			centroids = newCent
		}
		return centers
	}
}
