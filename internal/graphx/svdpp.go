package graphx

import (
	"math"

	"blaze/internal/dataflow"
	"blaze/internal/datagen"
)

// RatingList holds one user's ratings; it implements storage.Sized and
// is deliberately structure-heavy — the paper observes SVD++ partitions
// serialize 2.5-6.4× slower than other workloads (§7.2), which the
// harness models with an elevated serialization factor.
type RatingList struct {
	Items  []int64
	Scores []float64
}

// SizeBytes implements storage.Sized.
func (r RatingList) SizeBytes() int64 { return 48 + 16*int64(len(r.Items)) }

// Factors is a latent factor vector.
type Factors struct {
	V []float64
}

// SizeBytes implements storage.Sized.
func (f Factors) SizeBytes() int64 { return 24 + 8*int64(len(f.V)) }

// SVDPPConfig parameterizes the SVD++ workload: iterative matrix
// factorization over user×item ratings.
type SVDPPConfig struct {
	Ratings   datagen.RatingsSpec
	Parts     int
	Rank      int
	Iters     int
	LearnRate float64
	Reg       float64
	Annotate  bool
}

func (c SVDPPConfig) withDefaults() SVDPPConfig {
	if c.Parts == 0 {
		c.Parts = 8
	}
	if c.Rank == 0 {
		c.Rank = 8
	}
	if c.Iters == 0 {
		c.Iters = 10
	}
	if c.LearnRate == 0 {
		c.LearnRate = 0.02
	}
	if c.Reg == 0 {
		c.Reg = 0.05
	}
	return c
}

// initFactors deterministically initializes a factor vector for an id.
func initFactors(id int64, rank int, salt uint64) Factors {
	v := make([]float64, rank)
	x := uint64(id)*0x9e3779b97f4a7c15 + salt
	for d := range v {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		v[d] = (float64(x%2048)/2048.0 - 0.5) * 0.2
	}
	return Factors{V: v}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// SVDPP trains the factorization and returns the final training RMSE.
// Each iteration submits one job: user factors update locally, item
// gradients shuffle by item, and the item factor table broadcasts to the
// user partitions — the heavy data movement that makes SVD++
// serialization-bound in the paper.
func SVDPP(ctx *dataflow.Context, cfg SVDPPConfig) float64 {
	cfg = cfg.withDefaults()
	spec := cfg.Ratings

	ratings := ctx.Source("svd-ratings@0", cfg.Parts, func(part int) []dataflow.Record {
		var out []dataflow.Record
		for u := int64(0); u < int64(spec.Users); u++ {
			if dataflow.HashPartition(u, cfg.Parts) != part {
				continue
			}
			items, scores := spec.UserRatings(u)
			out = append(out, dataflow.Record{Key: u, Value: RatingList{Items: items, Scores: scores}})
		}
		return out
	})
	if cfg.Annotate {
		ratings.Cache()
	}
	userF := ratings.Map("svd-userf@0", func(r dataflow.Record) dataflow.Record {
		return dataflow.Record{Key: r.Key, Value: initFactors(r.Key, cfg.Rank, 0xabcd)}
	})
	itemF := ctx.Source("svd-itemf@0", cfg.Parts, func(part int) []dataflow.Record {
		var out []dataflow.Record
		for it := int64(0); it < int64(spec.Items); it++ {
			if dataflow.HashPartition(it, cfg.Parts) == part {
				out = append(out, dataflow.Record{Key: it, Value: initFactors(it, cfg.Rank, 0x1234)})
			}
		}
		return out
	})
	if cfg.Annotate {
		userF.Cache()
		itemF.Cache()
	}

	// Released with cleaner lag, as in PageRank.
	var releaseQueue []*dataflow.Dataset
	for it := 1; it <= cfg.Iters; it++ {
		// User-side state: ratings zipped with the user's factors.
		ur := dataflow.Zip(name("svd-ur", it), dataflow.OpLight, ratings, userF,
			func(_ int, rs, fs []dataflow.Record) []dataflow.Record {
				f := vertexMap(fs)
				out := make([]dataflow.Record, 0, len(rs))
				for _, r := range rs {
					if fv, ok := f[r.Key]; ok {
						out = append(out, dataflow.Record{Key: r.Key, Value: []any{r.Value, fv}})
					}
				}
				return out
			})

		// New user factors: gradient step against the broadcast item
		// factor table.
		newUserF := dataflow.Barrier(name("svd-userf", it), dataflow.OpHeavy, ur, itemF,
			func(_ int, us, items []dataflow.Record) []dataflow.Record {
				itf := vertexMap(items)
				out := make([]dataflow.Record, 0, len(us))
				for _, u := range us {
					pair := u.Value.([]any)
					rl := pair[0].(RatingList)
					uf := pair[1].(Factors)
					grad := make([]float64, cfg.Rank)
					for i, item := range rl.Items {
						iv, ok := itf[item]
						if !ok {
							continue
						}
						ifv := iv.(Factors)
						err := rl.Scores[i] - 3 - dot(uf.V, ifv.V)
						for d := 0; d < cfg.Rank; d++ {
							grad[d] += err*ifv.V[d] - cfg.Reg*uf.V[d]
						}
					}
					nv := make([]float64, cfg.Rank)
					for d := range nv {
						nv[d] = uf.V[d] + cfg.LearnRate*grad[d]
					}
					out = append(out, dataflow.Record{Key: u.Key, Value: Factors{V: nv}})
				}
				return out
			})

		// Item gradient contributions from every rating, shuffled by item.
		urNew := dataflow.Zip(name("svd-urnew", it), dataflow.OpLight, ratings, newUserF,
			func(_ int, rs, fs []dataflow.Record) []dataflow.Record {
				f := vertexMap(fs)
				out := make([]dataflow.Record, 0, len(rs))
				for _, r := range rs {
					if fv, ok := f[r.Key]; ok {
						out = append(out, dataflow.Record{Key: r.Key, Value: []any{r.Value, fv}})
					}
				}
				return out
			})
		contrib := dataflow.Barrier(name("svd-contrib", it), dataflow.OpHeavy, urNew, itemF,
			func(_ int, us, items []dataflow.Record) []dataflow.Record {
				itf := vertexMap(items)
				var out []dataflow.Record
				for _, u := range us {
					pair := u.Value.([]any)
					rl := pair[0].(RatingList)
					uf := pair[1].(Factors)
					for i, item := range rl.Items {
						iv, ok := itf[item]
						if !ok {
							continue
						}
						ifv := iv.(Factors)
						err := rl.Scores[i] - 3 - dot(uf.V, ifv.V)
						g := make([]float64, cfg.Rank)
						for d := 0; d < cfg.Rank; d++ {
							g[d] = err*uf.V[d] - cfg.Reg*ifv.V[d]
						}
						out = append(out, dataflow.Record{Key: item, Value: Factors{V: g}})
					}
				}
				return out
			})
		itemGrads := contrib.ReduceByKey(name("svd-itemg", it), cfg.Parts, func(a, b any) any {
			av, bv := a.(Factors), b.(Factors)
			sum := make([]float64, len(av.V))
			for d := range sum {
				sum[d] = av.V[d] + bv.V[d]
			}
			return Factors{V: sum}
		})
		newItemF := dataflow.Zip(name("svd-itemf", it), dataflow.OpMedium, itemF, itemGrads,
			func(_ int, fs, gs []dataflow.Record) []dataflow.Record {
				grad := vertexMap(gs)
				out := make([]dataflow.Record, len(fs))
				for i, f := range fs {
					fv := f.Value.(Factors)
					nv := append([]float64(nil), fv.V...)
					if gv, ok := grad[f.Key]; ok {
						g := gv.(Factors)
						for d := range nv {
							nv[d] += cfg.LearnRate * g.V[d]
						}
					}
					out[i] = dataflow.Record{Key: f.Key, Value: Factors{V: nv}}
				}
				return out
			})
		if cfg.Annotate {
			newUserF.Cache()
			newItemF.Cache()
		}
		newItemF.Count() // the iteration's job
		newUserF.Count() // materialize user factors for the next iteration

		releaseQueue = append(releaseQueue, userF, itemF, contrib)
		for len(releaseQueue) > 6 {
			releaseQueue[0].Release()
			releaseQueue = releaseQueue[1:]
		}
		userF, itemF = newUserF, newItemF
	}

	// Final training RMSE.
	ur := dataflow.Zip(name("svd-ur", cfg.Iters+1), dataflow.OpLight, ratings, userF,
		func(_ int, rs, fs []dataflow.Record) []dataflow.Record {
			f := vertexMap(fs)
			out := make([]dataflow.Record, 0, len(rs))
			for _, r := range rs {
				if fv, ok := f[r.Key]; ok {
					out = append(out, dataflow.Record{Key: r.Key, Value: []any{r.Value, fv}})
				}
			}
			return out
		})
	errs := dataflow.Barrier("svd-errs@0", dataflow.OpHeavy, ur, itemF,
		func(_ int, us, items []dataflow.Record) []dataflow.Record {
			itf := vertexMap(items)
			se, n := 0.0, 0
			for _, u := range us {
				pair := u.Value.([]any)
				rl := pair[0].(RatingList)
				uf := pair[1].(Factors)
				for i, item := range rl.Items {
					if iv, ok := itf[item]; ok {
						e := rl.Scores[i] - 3 - dot(uf.V, iv.(Factors).V)
						se += e * e
						n++
					}
				}
			}
			return []dataflow.Record{{Key: 0, Value: []float64{se, float64(n)}}}
		})
	totals := errs.ReduceByKey("svd-rmse@0", 1, func(a, b any) any {
		av, bv := a.([]float64), b.([]float64)
		return []float64{av[0] + bv[0], av[1] + bv[1]}
	})
	var se, n float64
	for _, part := range totals.Collect() {
		for _, r := range part {
			v := r.Value.([]float64)
			se, n = v[0], v[1]
		}
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(se / n)
}

// SVDPPWorkload wraps SVD++ as a profile-compatible workload.
func SVDPPWorkload(cfg SVDPPConfig) func(ctx *dataflow.Context, scale float64) {
	return func(ctx *dataflow.Context, scale float64) {
		c := cfg.withDefaults()
		c.Ratings.Users = scaled(c.Ratings.Users, scale)
		SVDPP(ctx, c)
	}
}
