package dataflow

// LocalRunner is a reference evaluator that computes datasets naively in
// the driver with unbounded memoization and no cost accounting. It serves
// two purposes:
//
//   - It is the oracle in tests: every caching system must produce the
//     same records the LocalRunner produces.
//   - It powers Blaze's dependency extraction phase (§5.1 step 1): the
//     profiling run executes the workload on a tiny input through a
//     LocalRunner, which records the submitted job DAGs for the
//     CostLineage without any caching behaviour interfering.
type LocalRunner struct {
	ctx *Context

	// JobTargets records the target dataset of every submitted job, in
	// submission order.
	JobTargets []*Dataset
	// Released records datasets the driver program released.
	Released map[int]bool

	memo    map[blockKey][]Record
	buckets map[int][][]Record // shuffleID -> per-child-partition records
}

type blockKey struct {
	ds   int
	part int
}

// NewLocalRunner creates a LocalRunner and installs it on the context.
func NewLocalRunner(ctx *Context) *LocalRunner {
	r := &LocalRunner{
		ctx:      ctx,
		Released: make(map[int]bool),
		memo:     make(map[blockKey][]Record),
		buckets:  make(map[int][][]Record),
	}
	ctx.SetRunner(r)
	return r
}

// RunJob evaluates every partition of target. Both actions return the
// memoized partitions: for "count" their lengths are the answer, and
// nothing was boxed to produce them.
func (r *LocalRunner) RunJob(target *Dataset, action string) [][]Record {
	r.JobTargets = append(r.JobTargets, target)
	out := make([][]Record, target.Partitions())
	for p := 0; p < target.Partitions(); p++ {
		out[p] = r.eval(target, p)
	}
	return out
}

// Unpersist is a no-op for the reference evaluator (memoization is not
// a cache under test).
func (r *LocalRunner) Unpersist(d *Dataset) {}

// Release records the release; the profiler uses this to learn which
// datasets the driver program discards.
func (r *LocalRunner) Release(d *Dataset) { r.Released[d.ID()] = true }

func (r *LocalRunner) eval(d *Dataset, part int) []Record {
	key := blockKey{d.ID(), part}
	if recs, ok := r.memo[key]; ok {
		return recs
	}
	ins := make([][]Record, len(d.Deps()))
	for i, dep := range d.Deps() {
		if dep.Shuffle {
			ins[i] = r.shuffleBucket(dep, d.Partitions(), part)
		} else {
			ins[i] = r.eval(dep.Parent, part)
		}
	}
	recs := d.Compute(part, ins)
	r.memo[key] = recs
	return recs
}

func (r *LocalRunner) shuffleBucket(dep Dependency, childParts, part int) []Record {
	if b, ok := r.buckets[dep.ShuffleID]; ok {
		return b[part]
	}
	buckets := make([][]Record, childParts)
	parent := dep.Parent
	for p := 0; p < parent.Partitions(); p++ {
		for _, rec := range r.eval(parent, p) {
			if dep.Broadcast {
				for b := range buckets {
					buckets[b] = append(buckets[b], rec)
				}
			} else {
				b := HashPartition(rec.Key, childParts)
				buckets[b] = append(buckets[b], rec)
			}
		}
	}
	if dep.Combine != nil {
		for i := range buckets {
			buckets[i] = MergeByKey(buckets[i], dep.Combine)
		}
	}
	r.buckets[dep.ShuffleID] = buckets
	return buckets[part]
}
