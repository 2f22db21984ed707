package blaze

// The streaming evaluation workloads: prebuilt per-window step drivers
// for Session, the micro-batch counterparts of the batch workload
// registry in workloads.go. Each spec's Open returns a step closure that
// owns the stream's carried state (rank vectors, centroids) and submits
// one window's DAG per call over a drifted input batch.

import (
	"fmt"
	"sync"

	"blaze/internal/datagen"
	"blaze/internal/graphx"
	"blaze/internal/mllib"
)

// StreamWorkloadID names a streaming evaluation workload.
type StreamWorkloadID string

// The streaming workloads.
const (
	// StreamPR is sliding-window PageRank: each window refines ranks
	// over a drifted edge set, initialized from the previous window's
	// rank vector.
	StreamPR StreamWorkloadID = "stream-pr"
	// StreamKMeans is streaming k-means: each window clusters a drifted
	// point batch starting from the previous window's centroids.
	StreamKMeans StreamWorkloadID = "stream-kmeans"
)

// AllStreamWorkloads lists the streaming workloads.
func AllStreamWorkloads() []StreamWorkloadID {
	return []StreamWorkloadID{StreamPR, StreamKMeans}
}

// StreamWorkloadSpec bundles one streaming workload: Open binds the
// stream (allocating its carried state) and returns the per-window step.
// Pass the step to Session.Submit once per window, in window order.
type StreamWorkloadSpec struct {
	ID        StreamWorkloadID
	Title     string
	SerFactor float64
	// Open returns the step function for one stream instance. scale
	// shrinks the per-window input batch; annotate applies the
	// cache()/unpersist() annotations for annotation-based systems.
	Open func(scale float64, annotate bool) func(ctx *Context, window int)
}

var (
	swlMu                  sync.RWMutex
	streamWorkloadRegistry = map[StreamWorkloadID]StreamWorkloadSpec{}
)

// RegisterStreamWorkload adds a user-defined streaming workload spec
// under its ID, resolvable via StreamWorkload like the built-ins.
func RegisterStreamWorkload(spec StreamWorkloadSpec) error {
	if spec.ID == "" || spec.Open == nil {
		return fmt.Errorf("blaze: RegisterStreamWorkload requires an ID and an Open function")
	}
	if _, err := StreamWorkload(spec.ID); err == nil {
		return fmt.Errorf("blaze: streaming workload %q already registered", spec.ID)
	}
	swlMu.Lock()
	defer swlMu.Unlock()
	streamWorkloadRegistry[spec.ID] = spec
	return nil
}

// StreamWorkload returns the spec for an id, built-in or registered.
func StreamWorkload(id StreamWorkloadID) (StreamWorkloadSpec, error) {
	switch id {
	case StreamPR:
		return sprSpec(), nil
	case StreamKMeans:
		return skmSpec(), nil
	default:
		swlMu.RLock()
		spec, ok := streamWorkloadRegistry[id]
		swlMu.RUnlock()
		if ok {
			return spec, nil
		}
		return StreamWorkloadSpec{}, fmt.Errorf("blaze: unknown streaming workload %q", id)
	}
}

func sprSpec() StreamWorkloadSpec {
	return StreamWorkloadSpec{
		ID: StreamPR, Title: "SlidingPageRank", SerFactor: 2.5,
		Open: func(scale float64, annotate bool) func(ctx *Context, window int) {
			cfg := graphx.PageRankStreamConfig{
				Graph:          datagen.GraphSpec{Seed: 11, Vertices: 2000, AvgDegree: 8},
				Parts:          32,
				ItersPerWindow: 3,
				Annotate:       annotate,
			}
			cfg.Graph.Vertices = scaledCount(cfg.Graph.Vertices, scale)
			step := graphx.PageRankStream(cfg)
			return func(ctx *Context, window int) { step(ctx, window) }
		},
	}
}

func skmSpec() StreamWorkloadSpec {
	return StreamWorkloadSpec{
		ID: StreamKMeans, Title: "StreamingKMeans", SerFactor: 1.0,
		Open: func(scale float64, annotate bool) func(ctx *Context, window int) {
			cfg := mllib.KMeansStreamConfig{
				Data:           datagen.ClusterSpec{Seed: 13, N: 6000, Dim: 8, K: 8, Spread: 2.0},
				Parts:          32,
				ItersPerWindow: 3,
				Annotate:       annotate,
			}
			cfg.Data.N = scaledCount(cfg.Data.N, scale)
			step := mllib.KMeansStream(cfg)
			return func(ctx *Context, window int) { step(ctx, window) }
		},
	}
}

// scaledCount shrinks n by the scale factor with a sane floor, matching
// the batch workloads' scaling rule.
func scaledCount(n int, scale float64) int {
	if scale == 0 || scale == 1 {
		return n
	}
	m := int(float64(n) * scale)
	if m < 16 {
		m = 16
	}
	if m > n {
		m = n
	}
	return m
}

// StreamConfig describes one complete streaming run: a SessionConfig
// plus the workload, window count and input scale. RunStream is to
// Session what Run is to the engine — the one-call evaluation harness
// entry.
type StreamConfig struct {
	// System, cluster shape and knobs, as in SessionConfig.
	System            SystemID
	Executors         int
	Cores             int
	Parallelism       int
	MemoryPerExecutor int64
	CostParams        CostParams
	DiskCapacity      int64
	ILPWindow         int
	EventLog          *EventLog
	// CheckpointDir, CrashWindow and RecoveryLog configure durability
	// and crash injection, as in SessionConfig. A run killed by
	// CrashWindow returns ErrSessionCrashed; ResumeStream with the same
	// config continues it from the checkpoint.
	CheckpointDir string
	CrashWindow   int
	RecoveryLog   *EventLog
	// Workload names the streaming workload; Windows is how many
	// micro-batch windows to run (default 4); Scale shrinks the
	// per-window input: (0, 1], default 1.0.
	Workload StreamWorkloadID
	Windows  int
	Scale    float64
}

// StreamResult is a streaming run's outcome: the sealed Result plus the
// per-window metric deltas and, for durable runs, the checkpoints this
// process committed.
type StreamResult struct {
	Result
	Windows     []WindowStats
	Checkpoints []CheckpointStat
}

// RunStream executes a streaming workload through a Session: Windows
// windows, each submitting the workload's step DAG, separated by
// NextWindow boundaries. The cost model defaults to
// EvalParams(spec.SerFactor), as Run does for batch workloads.
func RunStream(cfg StreamConfig) (*StreamResult, error) {
	return runStream(cfg, NewSession)
}

// ResumeStream continues a crashed durable streaming run from its
// newest checkpoint: it rebuilds the session with ResumeSession and
// re-runs the identical window loop from window 1 — pre-checkpoint
// windows replay without executing, and the stream goes live at the
// checkpointed boundary. The StreamResult is bit-identical (per
// WindowStats.EqualDeterministic and the event log) to a run that never
// crashed. cfg must match the crashed run's configuration.
func ResumeStream(cfg StreamConfig) (*StreamResult, error) {
	return runStream(cfg, ResumeSession)
}

// runStream is the shared harness loop: open resolves the session
// (fresh or resumed), then every window submits the workload step and
// advances. Resume re-running the same loop is what makes replay work —
// the driver program is identical, only the execution mode differs.
func runStream(cfg StreamConfig, open func(SessionConfig) (*Session, error)) (*StreamResult, error) {
	spec, err := StreamWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	windows := cfg.Windows
	if windows == 0 {
		windows = 4
	}
	if windows < 1 {
		return nil, fmt.Errorf("blaze: StreamConfig.Windows must be >= 1, got %d", windows)
	}
	if err := validateScale(cfg.Scale); err != nil {
		return nil, err
	}
	scale := cfg.Scale
	if scale == 0 {
		scale = 1.0
	}
	params := cfg.CostParams
	if params.IsZero() {
		params = EvalParams(spec.SerFactor)
	}
	sess, err := open(SessionConfig{
		System:            cfg.System,
		Executors:         cfg.Executors,
		Cores:             cfg.Cores,
		Parallelism:       cfg.Parallelism,
		MemoryPerExecutor: cfg.MemoryPerExecutor,
		CostParams:        params,
		DiskCapacity:      cfg.DiskCapacity,
		ILPWindow:         cfg.ILPWindow,
		EventLog:          cfg.EventLog,
		CheckpointDir:     cfg.CheckpointDir,
		CrashWindow:       cfg.CrashWindow,
		RecoveryLog:       cfg.RecoveryLog,
	})
	if err != nil {
		return nil, err
	}
	step := spec.Open(scale, sess.annotated)
	for w := 1; w <= windows; w++ {
		w := w
		if err := sess.Submit(func(ctx *Context) { step(ctx, w) }); err != nil {
			sess.Close()
			return nil, err
		}
		if w < windows {
			if _, err := sess.NextWindow(); err != nil {
				sess.Close()
				return nil, err
			}
		}
	}
	res, err := sess.Close()
	if err != nil {
		return nil, err
	}
	return &StreamResult{
		Result:      *res,
		Windows:     sess.WindowStats(),
		Checkpoints: sess.CheckpointStats(),
	}, nil
}
