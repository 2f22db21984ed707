package blaze

// This file completes the public facade: type aliases and thin wrappers
// over the internal packages so that programs built on Blaze — custom
// workloads, custom eviction policies, lineage tooling — never import
// blaze/internal/... themselves. Aliases (not wrapper structs) are used
// throughout: a blaze.Context IS a dataflow.Context, so the full method
// set of the internal type is available without drift or conversion.

import (
	"time"

	"blaze/internal/cachepolicy"
	"blaze/internal/core"
	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/engine"
	"blaze/internal/metrics"
	"blaze/internal/storage"
)

// ---------------------------------------------------------------------
// Cost model

// CostParams is the virtual-time cost model: device throughputs,
// per-record compute costs and task overheads. Construct one with
// DefaultCostParams or EvalParams and adjust fields, then set it on
// RunConfig.CostParams (by value — runs cannot alias each other's
// parameters).
type CostParams = costmodel.Params

// OpClass classifies operators by per-record compute cost; pass one to
// MapPartitions or ZipDatasets to price expensive per-partition work.
type OpClass = dataflow.OpClass

// The operator classes, in ascending per-record cost.
const (
	OpSource = dataflow.OpSource
	OpLight  = dataflow.OpLight
	OpMedium = dataflow.OpMedium
	OpHeavy  = dataflow.OpHeavy
)

// CostOpClass is the key type of CostParams.RecordCost; CostOpClass(c)
// converts an operator class to it when adjusting per-record costs.
type CostOpClass = costmodel.OpClass

// DefaultCostParams returns the baseline cost model (laptop-scale SSD
// and network throughputs). EvalParams returns the evaluation harness's
// scaled-down variant.
func DefaultCostParams() CostParams { return costmodel.Default() }

// ---------------------------------------------------------------------
// Metrics

// Metrics is the full per-application accounting a run returns:
// virtual-time breakdowns, cache hit/miss and eviction counters,
// per-job recomputation, fault-recovery attribution and disk
// footprints. See Result.Metrics.
type Metrics = metrics.App

// ACT returns the application completion time (end-to-end virtual
// time, including Blaze's profiling overhead when applicable).
func (r *Result) ACT() time.Duration { return r.Metrics.ACT }

// MetricsEqualDeterministic reports whether two runs agree on every
// deterministic metric. The wall-clock solve times (ILPSolveTime,
// ILPDeltaSolveTime, RepairSolveTime) and the deprecated always-zero
// counters are excluded; identical schedules legitimately differ on the
// times across runs. This is the comparison the
// parallel bit-identity invariant uses.
func MetricsEqualDeterministic(a, b *Metrics) bool { return metrics.EqualDeterministic(a, b) }

// StorageMeasurement is the measured storage work of a RealBytes run:
// per-category operation counts, real serialized bytes, wall-clock time
// and the virtual time the cost model charged for the same operations
// (fields MemEncode, MemDecode, DiskWrite, DiskRead of type
// StorageOpStats), plus the real block-file footprint. See
// Result.Storage.
type StorageMeasurement = storage.MeterSnapshot

// StorageOpStats aggregates one category of measured storage work:
// operations, bytes, measured wall time and modeled virtual time.
type StorageOpStats = storage.OpStats

// ---------------------------------------------------------------------
// Dataflow: build custom workloads against the public surface

// Context owns the datasets of one dataflow program; Run hands a fresh
// one to the workload's driver. Datasets are created with Context.Source
// and derived with the Dataset transformation methods (Map, Filter,
// ReduceByKey, ...); actions (Count, Collect) submit jobs to the bound
// cluster.
type Context = dataflow.Context

// Dataset is an immutable partitioned collection with lineage — the
// RDD analogue.
type Dataset = dataflow.Dataset

// Record is one key/value element of a dataset partition.
type Record = dataflow.Record

// Sized lets record value types report their in-memory footprint so the
// cache sees realistic, skewed partition sizes.
type Sized = storage.Sized

// RegisterValueType registers a concrete record value type with the
// partition codec's gob fallback. It is needed only for value types
// without a registered column: a partition whose values are all float64,
// int64 or one of the built-in workloads' columnar types is stored as
// its flat arrays and never reaches gob. Workloads registered
// via RegisterWorkload must register every other value type their cached
// datasets carry, or RealBytes runs and durable-stream checkpoints will
// fail to encode them; the built-in workloads' types are pre-registered.
func RegisterValueType(v any) { storage.RegisterValueType(v) }

// HashPartition returns the partition a key hashes to.
func HashPartition(key int64, parts int) int { return dataflow.HashPartition(key, parts) }

// VecTasksExecuted returns the process-wide count of executed tasks.
//
// Deprecated: there is one task loop, so this counts every task.
func VecTasksExecuted() int64 { return engine.TasksExecuted() }

// ZipDatasets combines two co-partitioned datasets partition-wise with
// a narrow dependency on both (Spark's zipPartitions).
func ZipDatasets(name string, class OpClass, left, right *Dataset, f func(part int, l, r []Record) []Record) *Dataset {
	return dataflow.Zip(name, class, left, right, f)
}

// ---------------------------------------------------------------------
// Eviction policies

// EvictionPolicy orders cached blocks by eviction priority: the first
// block of the returned order is the first victim. Implementations are
// pure orderings over block metadata; the engine maintains the
// bookkeeping the orderings read.
type EvictionPolicy = cachepolicy.Policy

// BlockMeta is the per-block metadata an EvictionPolicy orders by:
// identity, size, access history, reference counts/distances and
// potential recovery cost.
type BlockMeta = storage.BlockMeta

// BlockID identifies a cached block: (dataset, partition).
type BlockID = storage.BlockID

// RegisterPolicy makes a user-defined eviction policy available as the
// system PolicySystem(name): blaze.Run with System:
// blaze.PolicySystem("mine") runs MEM+DISK Spark evicting by the
// registered ordering. The factory is invoked once per run so stateful
// policies start fresh. Registering a built-in or duplicate name is an
// error.
func RegisterPolicy(name string, factory func() EvictionPolicy) error {
	return cachepolicy.Register(name, factory)
}

// ---------------------------------------------------------------------
// Lineage tooling: the dependency-extraction phase

// Skeleton is the output of Blaze's dependency extraction phase
// (§5.1): the structure of every job a workload submits, with
// role-level reference offsets and lineage edges, but no metrics.
type Skeleton = core.Skeleton

// LineageNodeKey identifies a dataset role instance across jobs
// ("ranks"@iteration 3) on the merged cost lineage.
type LineageNodeKey = core.NodeKey

// LineageNode is one role instance on the merged lineage with its
// parent edges.
type LineageNode = core.Node

// LineageEdge is one dependency between lineage nodes; Shuffle marks
// wide edges.
type LineageEdge = core.Edge

// ProfileWorkload runs the workload's plain (annotation-free) driver on
// a tiny sample through the reference evaluator and captures the
// submitted job DAGs — Blaze's dependency extraction. sampleScale is
// the input fraction (the paper profiles on <1 MB samples; Run's
// default is 0.02).
func ProfileWorkload(spec WorkloadSpec, sampleScale float64) *Skeleton {
	return core.Profile(core.Workload(spec.Plain), sampleScale)
}
