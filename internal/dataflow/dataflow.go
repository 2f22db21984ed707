// Package dataflow implements the dataflow execution model the paper
// targets (§2.1): logical datasets (the RDD analogue) connected by lazy
// transformations into a DAG, with narrow dependencies pipelined inside
// stages and shuffle dependencies forming stage boundaries. Datasets are
// split into partitions processed by parallel tasks; each partition is
// the unit of caching, eviction and recovery.
//
// The package is engine-agnostic: it defines structure and computation,
// while internal/engine materializes partitions, schedules stages onto
// executors and manages the cache.
package dataflow

import (
	"fmt"
)

// Record is the element type flowing through datasets. Key drives shuffle
// partitioning; Value is the payload. Workload payloads implement
// storage.Sized to give the cache accurate partition sizes.
type Record struct {
	Key   int64
	Value any
}

// ComputeFunc produces the records of one partition from the input
// records of each dependency. ins[i] holds the records delivered by
// dependency i for this partition (the co-partitioned parent partition
// for narrow dependencies, the shuffled bucket for shuffle dependencies).
type ComputeFunc func(part int, ins [][]Record) []Record

// CombineFunc merges two values of the same key during map-side combining
// and shuffle aggregation.
type CombineFunc func(a, b any) any

// Dependency links a dataset to one parent.
type Dependency struct {
	Parent *Dataset
	// Shuffle marks a wide dependency: the child's partition p receives
	// all parent records whose key hashes to p. Narrow dependencies are
	// partition-wise: child partition p reads parent partition p.
	Shuffle bool
	// ShuffleID identifies the shuffle's output files in the shuffle
	// service; unique per shuffle dependency.
	ShuffleID int
	// Broadcast delivers every parent record to every child partition
	// instead of hash-routing, modeling broadcast-style dependencies
	// (e.g. distributing a small model to all tasks).
	Broadcast bool
	// Combine optionally aggregates same-key values map-side before the
	// shuffle write, like Spark's reduceByKey combiner.
	Combine CombineFunc
	// CombineF64 is the unboxed form of Combine for float64 values, set
	// by ReduceByKeyF64. When present the vectorized loop combines key
	// columns without boxing; Combine stays authoritative for the row
	// path and both produce identical values.
	CombineF64 func(a, b float64) float64
}

// OpClass mirrors costmodel.OpClass without importing it, keeping this
// package dependency-free; the engine converts between them.
type OpClass int

// Operator cost classes, from cheapest to most expensive.
const (
	OpSource OpClass = iota
	OpLight
	OpMedium
	OpHeavy
)

// Dataset is a logical, lazily evaluated distributed dataset — the
// analogue of a Spark RDD. Datasets are immutable once created.
type Dataset struct {
	id    int
	name  string
	parts int
	deps  []Dependency
	class OpClass
	fn    ComputeFunc
	ctx   *Context

	// batchFn is the optional columnar kernel (see batch.go); datasets
	// without one run through the boxed escape hatch in BatchCompute.
	batchFn BatchFunc

	// cached records the user's cache() annotation (§2.3); the engine's
	// cache controller may honor or override it depending on the system
	// under test.
	cached bool
}

// ID returns the unique dataset id within its context.
func (d *Dataset) ID() int { return d.id }

// Name returns the human-readable name; iterative workloads name datasets
// "role@iteration" so the CostLineage can match congruent datasets across
// jobs.
func (d *Dataset) Name() string { return d.name }

// Partitions returns the number of partitions.
func (d *Dataset) Partitions() int { return d.parts }

// Deps returns the dataset's dependencies.
func (d *Dataset) Deps() []Dependency { return d.deps }

// Class returns the operator cost class used by the cost model.
func (d *Dataset) Class() OpClass { return d.class }

// Compute invokes the dataset's compute function.
func (d *Dataset) Compute(part int, ins [][]Record) []Record { return d.fn(part, ins) }

// Context returns the owning driver context.
func (d *Dataset) Context() *Context { return d.ctx }

// IsCached reports whether the user annotated this dataset with Cache().
func (d *Dataset) IsCached() bool { return d.cached }

// Cache annotates the dataset to be persisted after computation,
// mirroring Spark's cache() API (Fig. 1(a) L4). Returns the dataset for
// chaining.
func (d *Dataset) Cache() *Dataset {
	d.cached = true
	return d
}

// Unpersist removes the annotation and asks the engine to drop any cached
// blocks of this dataset (Fig. 1(a) L9).
func (d *Dataset) Unpersist() {
	d.cached = false
	if d.ctx.runner != nil {
		d.ctx.runner.Unpersist(d)
	}
}

// Release marks the dataset as out of scope in the driver program:
// besides unpersisting, the engine may clean its shuffle outputs, like
// Spark's ContextCleaner does for garbage-collected RDDs. Iterative
// workloads call this on superseded per-iteration datasets, which is what
// makes recomputation lineages grow across iterations (Fig. 5).
func (d *Dataset) Release() {
	d.cached = false
	if d.ctx.runner != nil {
		d.ctx.runner.Release(d)
	}
}

// JobRunner executes actions; the engine provides the implementation.
type JobRunner interface {
	// RunJob computes every partition of target and returns them.
	RunJob(target *Dataset, action string) [][]Record
	// Unpersist drops cached blocks of the dataset.
	Unpersist(d *Dataset)
	// Release drops cached blocks and cleans shuffle outputs derived
	// from the dataset.
	Release(d *Dataset)
}

// Context is the driver-side factory for datasets, the analogue of a
// SparkContext.
type Context struct {
	nextID      int
	nextShuffle int
	// idBase offsets the dataset ids this context assigns. Contexts
	// sharing one executor pool (the multi-tenant job server) get
	// disjoint id ranges so their blocks never collide in the shared
	// block stores; a standalone context uses base 0.
	idBase   int
	runner   JobRunner
	datasets []*Dataset
}

// NewContext returns an empty driver context. The engine attaches itself
// with SetRunner before any action runs.
func NewContext() *Context { return &Context{} }

// SetIDBase offsets all dataset ids subsequently created in this context
// by base, giving contexts that share executor block stores disjoint id
// ranges. Must be called before any dataset is created.
func (c *Context) SetIDBase(base int) {
	if len(c.datasets) > 0 {
		panic("dataflow: SetIDBase after datasets were created")
	}
	if base < 0 {
		panic(fmt.Sprintf("dataflow: negative id base %d", base))
	}
	c.idBase = base
	c.nextID = base
}

// SetRunner installs the job runner (the engine).
func (c *Context) SetRunner(r JobRunner) { c.runner = r }

// Runner returns the installed job runner.
func (c *Context) Runner() JobRunner { return c.runner }

// Datasets returns every dataset created in this context, in creation
// order.
func (c *Context) Datasets() []*Dataset { return c.datasets }

// Dataset looks up a dataset by id; nil if unknown.
func (c *Context) Dataset(id int) *Dataset {
	idx := id - c.idBase
	if idx < 0 || idx >= len(c.datasets) {
		return nil
	}
	return c.datasets[idx]
}

func (c *Context) newDataset(name string, parts int, deps []Dependency, class OpClass, fn ComputeFunc) *Dataset {
	if parts <= 0 {
		panic(fmt.Sprintf("dataflow: dataset %q must have positive partitions, got %d", name, parts))
	}
	d := &Dataset{
		id:    c.nextID,
		name:  name,
		parts: parts,
		deps:  deps,
		class: class,
		fn:    fn,
		ctx:   c,
	}
	c.nextID++
	c.datasets = append(c.datasets, d)
	return d
}

// Source creates a root dataset whose partitions are produced by gen.
// gen must be deterministic in part for recomputation to be correct.
func (c *Context) Source(name string, parts int, gen func(part int) []Record) *Dataset {
	return c.newDataset(name, parts, nil, OpSource, func(part int, _ [][]Record) []Record {
		return gen(part)
	})
}

// Map derives a dataset by applying f to every record.
func (d *Dataset) Map(name string, f func(Record) Record) *Dataset {
	return d.ctx.newDataset(name, d.parts, []Dependency{{Parent: d}}, OpLight,
		func(_ int, ins [][]Record) []Record {
			in := ins[0]
			out := make([]Record, len(in))
			for i, r := range in {
				out[i] = f(r)
			}
			return out
		})
}

// FlatMap derives a dataset by applying f to every record and
// concatenating the results.
func (d *Dataset) FlatMap(name string, f func(Record) []Record) *Dataset {
	return d.ctx.newDataset(name, d.parts, []Dependency{{Parent: d}}, OpLight,
		func(_ int, ins [][]Record) []Record {
			var out []Record
			for _, r := range ins[0] {
				out = append(out, f(r)...)
			}
			return out
		})
}

// Filter derives a dataset keeping only records for which pred is true.
func (d *Dataset) Filter(name string, pred func(Record) bool) *Dataset {
	return d.ctx.newDataset(name, d.parts, []Dependency{{Parent: d}}, OpLight,
		func(_ int, ins [][]Record) []Record {
			var out []Record
			for _, r := range ins[0] {
				if pred(r) {
					out = append(out, r)
				}
			}
			return out
		})
}

// MapPartitions derives a dataset by transforming each whole partition.
// class lets callers flag expensive per-partition work (e.g. model
// updates) for the cost model.
func (d *Dataset) MapPartitions(name string, class OpClass, f func(part int, in []Record) []Record) *Dataset {
	return d.ctx.newDataset(name, d.parts, []Dependency{{Parent: d}}, class,
		func(part int, ins [][]Record) []Record {
			return f(part, ins[0])
		})
}

// ReduceByKey shuffles the dataset by key into parts partitions and
// merges same-key values with combine. Map-side combining is applied
// before the shuffle write, as in Spark.
func (d *Dataset) ReduceByKey(name string, parts int, combine CombineFunc) *Dataset {
	c := d.ctx
	dep := Dependency{Parent: d, Shuffle: true, ShuffleID: c.nextShuffle, Combine: combine}
	c.nextShuffle++
	return c.newDataset(name, parts, []Dependency{dep}, OpMedium,
		func(_ int, ins [][]Record) []Record {
			return mergeByKey(ins[0], combine)
		})
}

// GroupByKey shuffles the dataset by key and gathers each key's values
// into a []any value, like Spark's groupByKey (no map-side combining).
func (d *Dataset) GroupByKey(name string, parts int) *Dataset {
	c := d.ctx
	dep := Dependency{Parent: d, Shuffle: true, ShuffleID: c.nextShuffle}
	c.nextShuffle++
	return c.newDataset(name, parts, []Dependency{dep}, OpHeavy,
		func(_ int, ins [][]Record) []Record {
			groups := make(map[int64][]any)
			order := make([]int64, 0, 16)
			for _, r := range ins[0] {
				if _, seen := groups[r.Key]; !seen {
					order = append(order, r.Key)
				}
				groups[r.Key] = append(groups[r.Key], r.Value)
			}
			out := make([]Record, 0, len(order))
			for _, k := range order {
				out = append(out, Record{Key: k, Value: groups[k]})
			}
			return out
		})
}

// ShuffleJoin co-shuffles two datasets by key into parts partitions and
// applies f to each pair of same-key buckets. It models Spark's join and
// cogroup family (OpHeavy).
func ShuffleJoin(name string, parts int, left, right *Dataset, f func(part int, l, r []Record) []Record) *Dataset {
	c := left.ctx
	if right.ctx != c {
		panic("dataflow: join across contexts")
	}
	dl := Dependency{Parent: left, Shuffle: true, ShuffleID: c.nextShuffle}
	c.nextShuffle++
	dr := Dependency{Parent: right, Shuffle: true, ShuffleID: c.nextShuffle}
	c.nextShuffle++
	return c.newDataset(name, parts, []Dependency{dl, dr}, OpHeavy,
		func(part int, ins [][]Record) []Record {
			return f(part, ins[0], ins[1])
		})
}

// Zip combines two co-partitioned datasets partition-wise with a narrow
// dependency on both, like Spark's zipPartitions.
func Zip(name string, class OpClass, left, right *Dataset, f func(part int, l, r []Record) []Record) *Dataset {
	c := left.ctx
	if right.ctx != c {
		panic("dataflow: zip across contexts")
	}
	if left.parts != right.parts {
		panic(fmt.Sprintf("dataflow: zip requires equal partition counts (%d vs %d)", left.parts, right.parts))
	}
	return c.newDataset(name, left.parts, []Dependency{{Parent: left}, {Parent: right}}, class,
		func(part int, ins [][]Record) []Record {
			return f(part, ins[0], ins[1])
		})
}

// Barrier derives a dataset that depends on left narrowly and requires
// all partitions of right to have been materialized (an all-to-one-to-all
// shuffle), used to model broadcast-style dependencies such as
// distributing KMeans centroids.
func Barrier(name string, class OpClass, left, right *Dataset, f func(part int, l, broadcast []Record) []Record) *Dataset {
	c := left.ctx
	dep := Dependency{Parent: right, Shuffle: true, ShuffleID: c.nextShuffle, Broadcast: true}
	c.nextShuffle++
	return c.newDataset(name, left.parts, []Dependency{{Parent: left}, dep}, class,
		func(part int, ins [][]Record) []Record {
			return f(part, ins[0], ins[1])
		})
}

// smallCombine is the input size up to which a combine finds a record's
// key by scanning the keys already emitted instead of building a map: a
// wide shuffle routes a handful of records to each of thousands of
// buckets, where the map costs more than the few comparisons it saves.
// Either way keys come out in first-seen order and each key's values
// combine in input order, so the result is the same.
const smallCombine = 16

// mergeByKey aggregates records by key with combine, preserving first-seen
// key order for determinism.
func mergeByKey(in []Record, combine CombineFunc) []Record {
	if len(in) <= smallCombine {
		out := make([]Record, 0, len(in))
	next:
		for _, r := range in {
			for j := range out {
				if out[j].Key == r.Key {
					out[j].Value = combine(out[j].Value, r.Value)
					continue next
				}
			}
			out = append(out, r)
		}
		return out
	}
	acc := make(map[int64]any, min(len(in), 64))
	order := make([]int64, 0, min(len(in), 64))
	for _, r := range in {
		if v, seen := acc[r.Key]; seen {
			acc[r.Key] = combine(v, r.Value)
		} else {
			acc[r.Key] = r.Value
			order = append(order, r.Key)
		}
	}
	out := make([]Record, 0, len(order))
	for _, k := range order {
		out = append(out, Record{Key: k, Value: acc[k]})
	}
	return out
}

// MergeByKey is exported for shuffle-side combining in the engine.
func MergeByKey(in []Record, combine CombineFunc) []Record { return mergeByKey(in, combine) }

// Collect runs a job computing every partition of the dataset and returns
// them. It is an action: it triggers execution through the engine.
func (d *Dataset) Collect() [][]Record {
	if d.ctx.runner == nil {
		panic("dataflow: no runner attached to context")
	}
	return d.ctx.runner.RunJob(d, "collect")
}

// Count runs a job and returns the total number of records.
func (d *Dataset) Count() int {
	n := 0
	for _, part := range d.Collect() {
		n += len(part)
	}
	return n
}

// Ancestors returns every transitive parent of d (excluding d), in
// deterministic order.
func (d *Dataset) Ancestors() []*Dataset {
	seen := map[int]bool{d.id: true}
	var out []*Dataset
	var walk func(x *Dataset)
	walk = func(x *Dataset) {
		for _, dep := range x.deps {
			p := dep.Parent
			if !seen[p.id] {
				seen[p.id] = true
				out = append(out, p)
				walk(p)
			}
		}
	}
	walk(d)
	return out
}
