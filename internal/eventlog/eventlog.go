// Package eventlog records structured execution events — the analogue of
// Spark's event log that powers its history server. When a Log is
// attached to a cluster, every job, stage, task, cache and eviction event
// is appended with its virtual timestamp; the Summary analyzer replays a
// log into per-job and per-dataset statistics, and logs serialize to
// JSON lines for external tooling.
//
// The event log is how caching decisions are audited after a run: which
// partitions were admitted, when they were spilled or dropped, and what
// each recovery cost.
package eventlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Kind enumerates event types.
type Kind string

// Event kinds.
const (
	JobStart      Kind = "job_start"
	JobEnd        Kind = "job_end"
	StageStart    Kind = "stage_start"
	StageEnd      Kind = "stage_end"
	TaskEnd       Kind = "task_end"
	BlockAdmitted Kind = "block_admitted"
	BlockSpilled  Kind = "block_spilled"
	BlockDropped  Kind = "block_dropped"
	BlockHit      Kind = "block_hit"
	BlockDiskHit  Kind = "block_disk_hit"
	Recomputed    Kind = "recomputed"
	// FaultInjected records a deliberately injected failure
	// (internal/faults): Fault names the class, and the block/shuffle
	// fields identify what was lost.
	FaultInjected Kind = "fault_injected"
	// ExecutorDead records an executor-death fault: the executor's cache
	// (Bytes) and its map outputs (Count) are gone, and its partitions
	// are about to migrate to the survivors.
	ExecutorDead Kind = "executor_dead"
	// PartitionsMigrated records the rebalancing that follows an
	// executor death: Count partition slots moved from the dead executor
	// to the survivors, at rebalancing cost Cost.
	PartitionsMigrated Kind = "partitions_migrated"
	// BucketLost records a partial shuffle fault: one map-output bucket
	// (Shuffle, map Partition, Bucket) was destroyed, so only its
	// producing map task must re-run.
	BucketLost Kind = "bucket_lost"
	// Recovered records the completion of fault recovery: the
	// recomputation of a fault-lost block or the regeneration of a
	// fault-cleaned shuffle, with the recovery work in Cost.
	Recovered Kind = "recovered"
	// TaskRetry records one transiently failed task attempt (Attempt,
	// 1-based) and the wasted launch overhead plus backoff in Cost; the
	// retry of exactly that attempt follows, never a stage re-run.
	TaskRetry Kind = "task_retry"
	// FetchRetry records one transiently failed shuffle-fetch attempt
	// (Shuffle, reduce Partition, Attempt) with its backoff in Cost.
	FetchRetry Kind = "fetch_retry"
	// SpeculativeLaunch records a speculative copy of a straggling task
	// launched on Executor; Win marks copies that finished before the
	// straggling primary, and Cost carries the copy's core time.
	SpeculativeLaunch Kind = "speculative_launch"
	// ExecutorBlacklisted records a flaky executor crossing the
	// retryable-failure threshold: the scheduler skips it for Count
	// top-level stages while its cache survives.
	ExecutorBlacklisted Kind = "executor_blacklisted"
	// ExecutorReinstated records a blacklisted executor rejoining the
	// scheduling pool after its cooldown expired.
	ExecutorReinstated Kind = "executor_reinstated"
	// ILPSolve records one optimizer invocation at a job boundary:
	// Executor scopes the per-executor model, Vars the decision-variable
	// count, Nodes the search nodes expanded, Optimal whether the result
	// is a proven optimum, and Fallback whether the solve degraded
	// (knapsack relaxation or budget exhaustion).
	ILPSolve Kind = "ilp_solve"
	// QuotaRejected records a memory admission refused because it would
	// push the owning tenant (Tenant) past its cluster-wide quota;
	// same-tenant quota evictions could not free enough charged bytes.
	QuotaRejected Kind = "quota_rejected"
	// SessionStart and SessionEnd bracket one application session on the
	// multi-tenant job server's own log: Session identifies the session,
	// Tenant its owner.
	SessionStart Kind = "session_start"
	SessionEnd   Kind = "session_end"
	// Arbitration records one cluster-wide ILP arbitration across the
	// union of admitted jobs' candidate sets: Count carries the number of
	// participating sessions, Vars the total union candidates priced.
	Arbitration Kind = "arbitration"
	// WindowStart marks a micro-batch window boundary on a streaming
	// session: Window is the 1-based index of the window being opened,
	// and Job the index the window's first job will receive.
	WindowStart Kind = "window_start"
	// PartitionRetired records windowed-lineage retirement at a window
	// boundary: the partition's lifetime (its last-consumer window) has
	// passed, so it is removed from the store and from the optimizer's
	// candidate set. Bytes is 0 when the partition was not resident.
	PartitionRetired Kind = "partition_retired"
	// ILPDeltaSolve records one optimizer re-solve at a window boundary
	// over the candidates that survived retirement. Fields mirror
	// ILPSolve; Window scopes the boundary.
	ILPDeltaSolve Kind = "ilp_delta_solve"
	// ILPRepairSolve records one post-recovery plan-repair solve: the
	// placement problem re-solved over the surviving candidate set after
	// an executor death. Fields mirror ILPSolve;
	// Window scopes the boundary on streaming sessions (0 otherwise).
	ILPRepairSolve Kind = "ilp_repair_solve"
	// CheckpointWritten records one durable window-boundary checkpoint:
	// Window is the boundary, Count the number of persisted blocks and
	// Bytes their serialized size. Emitted on recovery-scoped logs only —
	// the main log of a resumed run must stay bit-identical to an
	// uninterrupted one.
	CheckpointWritten Kind = "checkpoint_written"
	// SessionResumed records a crash recovery: a session rehydrated from
	// the checkpoint at boundary Window, re-admitting Count blocks.
	// Recovery-scoped logs only.
	SessionResumed Kind = "session_resumed"
)

// Event is one log record. Fields are populated according to Kind; zero
// values mean "not applicable".
type Event struct {
	Kind Kind `json:"kind"`
	// Time is the virtual timestamp of the event.
	Time time.Duration `json:"time"`
	// Job and Stage identify scheduler scopes.
	Job   int `json:"job,omitempty"`
	Stage int `json:"stage,omitempty"`
	// Executor, Dataset and Partition identify block scopes.
	Executor  int    `json:"executor,omitempty"`
	Dataset   int    `json:"dataset,omitempty"`
	DatasetNm string `json:"dataset_name,omitempty"`
	Partition int    `json:"partition,omitempty"`
	// Bytes carries block or I/O sizes.
	Bytes int64 `json:"bytes,omitempty"`
	// Cost carries the modeled duration of the event's work.
	Cost time.Duration `json:"cost,omitempty"`
	// Regen marks stage events of stages re-run mid-job to recover
	// cleaned shuffle data (stage resubmission).
	Regen bool `json:"regen,omitempty"`
	// Fault names the injected fault class on FaultInjected events.
	Fault string `json:"fault,omitempty"`
	// Shuffle identifies the shuffle on shuffle-loss fault events.
	Shuffle int `json:"shuffle,omitempty"`
	// Bucket identifies the reduce bucket on bucket-loss fault events.
	Bucket int `json:"bucket,omitempty"`
	// Count carries event cardinalities: migrated partition slots on
	// PartitionsMigrated, lost map outputs on ExecutorDead, re-run map
	// tasks on partial-shuffle Recovered events, cooldown stages on
	// ExecutorBlacklisted, window length on straggler FaultInjected.
	Count int `json:"count,omitempty"`
	// Attempt is the 1-based attempt number on TaskRetry/FetchRetry.
	Attempt int `json:"attempt,omitempty"`
	// Win marks SpeculativeLaunch events whose copy beat the primary.
	Win bool `json:"win,omitempty"`
	// Factor is the slowdown multiplier on straggler FaultInjected
	// events.
	Factor float64 `json:"factor,omitempty"`
	// Vars and Nodes carry the model size and search effort on ILPSolve
	// events; Optimal and Fallback classify the outcome (proven optimum,
	// degraded solve).
	Vars     int  `json:"vars,omitempty"`
	Nodes    int  `json:"nodes,omitempty"`
	Optimal  bool `json:"optimal,omitempty"`
	Fallback bool `json:"fallback,omitempty"`
	// Tenant and Session identify multi-tenant scopes on job-server
	// events (QuotaRejected, SessionStart/End, Arbitration). Both are
	// empty on single-application runs, keeping their logs byte-identical
	// to builds that predate the job server.
	Tenant  string `json:"tenant,omitempty"`
	Session int    `json:"session,omitempty"`
	// Window is the 1-based micro-batch window index on streaming-session
	// events (WindowStart, PartitionRetired, ILPDeltaSolve). Zero on
	// one-shot runs, keeping their logs byte-identical to builds that
	// predate streaming.
	Window int `json:"window,omitempty"`
}

// Log is an in-memory, append-only event log.
type Log struct {
	events []Event
	// sink, when set, receives every appended event (write-ahead
	// logging: the facade attaches a WAL so the stream survives a crash).
	sink func(Event)
}

// New creates an empty log.
func New() *Log { return &Log{} }

// Append adds an event.
func (l *Log) Append(e Event) {
	l.events = append(l.events, e)
	if l.sink != nil {
		l.sink(e)
	}
}

// SetSink installs (or, with nil, detaches) a callback invoked on every
// subsequent Append. Used to tee the log into a durable WAL.
func (l *Log) SetSink(fn func(Event)) { l.sink = fn }

// Restore replaces the log's contents wholesale. Crash recovery uses it
// to clobber whatever a resuming session's replay emitted with the
// exact event stream of the original run up to the checkpoint. The
// sink, if any, is not invoked for restored events.
func (l *Log) Restore(events []Event) {
	l.events = append(l.events[:0], events...)
}

// Events returns the recorded events in order.
func (l *Log) Events() []Event { return l.events }

// Len returns the number of events.
func (l *Log) Len() int { return len(l.events) }

// WriteJSON writes the log as JSON lines.
func (l *Log) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range l.events {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("eventlog: encode: %w", err)
		}
	}
	return bw.Flush()
}

// ReadJSON parses a JSON-lines log.
func ReadJSON(r io.Reader) (*Log, error) {
	l := New()
	dec := json.NewDecoder(r)
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("eventlog: decode: %w", err)
		}
		l.Append(e)
	}
	return l, nil
}

// JobSummary aggregates one job's events.
type JobSummary struct {
	Job        int
	Start, End time.Duration
	Tasks      int
	Hits       int
	DiskHits   int
	Recomputes int
	Admitted   int
	Spilled    int
	Dropped    int
	// Regenerated counts stages re-run within the job to recover cleaned
	// shuffle data; Faults and Recoveries count injected faults and
	// completed fault recoveries, and RecoveryTime the attributed
	// recovery work. Migrated counts partition slots rebalanced away
	// from executors that died during the job.
	Regenerated  int
	Faults       int
	Recoveries   int
	RecoveryTime time.Duration
	Migrated     int
	// Retries counts transiently failed task and fetch attempts that
	// were retried; Speculative and SpeculativeWins count speculative
	// copies launched and won; Blacklisted counts flaky-executor
	// blacklist episodes during the job.
	Retries         int
	Speculative     int
	SpeculativeWins int
	Blacklisted     int
	// ILPSolves, ILPNodes and ILPFallbacks aggregate the job's optimizer
	// activity.
	ILPSolves    int
	ILPNodes     int
	ILPFallbacks int
}

// DatasetSummary aggregates one dataset's cache lifecycle.
type DatasetSummary struct {
	Dataset       int
	Name          string
	Admitted      int
	Spilled       int
	Dropped       int
	Hits          int
	BytesAdmitted int64
	BytesSpilled  int64
}

// Summary is the replayed view of a log.
type Summary struct {
	Jobs     []JobSummary
	Datasets map[int]*DatasetSummary
}

// Summarize replays the log into per-job and per-dataset statistics.
func Summarize(l *Log) *Summary {
	s := &Summary{Datasets: make(map[int]*DatasetSummary)}
	jobs := map[int]*JobSummary{}
	var order []int
	job := func(id int) *JobSummary {
		j := jobs[id]
		if j == nil {
			j = &JobSummary{Job: id}
			jobs[id] = j
			order = append(order, id)
		}
		return j
	}
	ds := func(id int, name string) *DatasetSummary {
		d := s.Datasets[id]
		if d == nil {
			d = &DatasetSummary{Dataset: id, Name: name}
			s.Datasets[id] = d
		}
		if d.Name == "" {
			d.Name = name
		}
		return d
	}
	cur := -1
	for _, e := range l.events {
		switch e.Kind {
		case JobStart:
			cur = e.Job
			job(cur).Start = e.Time
		case JobEnd:
			job(e.Job).End = e.Time
		case TaskEnd:
			job(cur).Tasks++
		case BlockHit:
			job(cur).Hits++
			ds(e.Dataset, e.DatasetNm).Hits++
		case BlockDiskHit:
			job(cur).DiskHits++
		case Recomputed:
			job(cur).Recomputes++
		case BlockAdmitted:
			job(cur).Admitted++
			d := ds(e.Dataset, e.DatasetNm)
			d.Admitted++
			d.BytesAdmitted += e.Bytes
		case BlockSpilled:
			job(cur).Spilled++
			d := ds(e.Dataset, e.DatasetNm)
			d.Spilled++
			d.BytesSpilled += e.Bytes
		case BlockDropped:
			job(cur).Dropped++
			ds(e.Dataset, e.DatasetNm).Dropped++
		case StageEnd:
			if e.Regen {
				job(cur).Regenerated++
			}
		case FaultInjected, ExecutorDead, BucketLost:
			job(cur).Faults++
		case PartitionsMigrated:
			job(cur).Migrated += e.Count
		case TaskRetry, FetchRetry:
			job(cur).Retries++
		case SpeculativeLaunch:
			j := job(cur)
			j.Speculative++
			if e.Win {
				j.SpeculativeWins++
			}
		case ExecutorBlacklisted:
			job(cur).Blacklisted++
		case Recovered:
			j := job(cur)
			j.Recoveries++
			j.RecoveryTime += e.Cost
		case ILPSolve:
			j := job(e.Job)
			j.ILPSolves++
			j.ILPNodes += e.Nodes
			if e.Fallback {
				j.ILPFallbacks++
			}
		}
	}
	for _, id := range order {
		s.Jobs = append(s.Jobs, *jobs[id])
	}
	return s
}
