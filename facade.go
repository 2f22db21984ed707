package blaze

// This file re-exports the internal fault-injection and event-log types
// that RunConfig accepts. External importers of the module cannot name
// internal packages, so the facade provides type aliases and thin
// constructors: a blaze.FaultConfig IS a faults.Config and a
// blaze.EventLog IS an eventlog.Log — no conversion, no drift.

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"blaze/internal/engine"
	"blaze/internal/eventlog"
	"blaze/internal/faults"
)

// EventLog records structured execution events (jobs, stages, tasks,
// cache lifecycle, faults and recoveries) when attached to a run via
// RunConfig.EventLog. See internal/eventlog for the event vocabulary.
type EventLog = eventlog.Log

// EventSummary is the replayed per-job / per-dataset view of an EventLog.
type EventSummary = eventlog.Summary

// NewEventLog creates an empty event log to attach to a RunConfig.
func NewEventLog() *EventLog { return eventlog.New() }

// ReadEventLog parses a JSON-lines event log written by EventLog.WriteJSON.
func ReadEventLog(r io.Reader) (*EventLog, error) { return eventlog.ReadJSON(r) }

// SummarizeEventLog replays a log into per-job and per-dataset statistics.
func SummarizeEventLog(l *EventLog) *EventSummary { return eventlog.Summarize(l) }

// FaultConfig describes a deterministic, seed-driven fault-injection
// schedule to attach via RunConfig.Faults. See internal/faults.
type FaultConfig = faults.Config

// FaultClass enumerates the injectable fault classes.
type FaultClass = faults.Class

// The fault classes.
const (
	// FaultExecutorCacheLoss drops every cached block of one executor
	// (an executor restart).
	FaultExecutorCacheLoss = faults.ExecutorCacheLoss
	// FaultBlockLoss drops a single cached block from both tiers.
	FaultBlockLoss = faults.BlockLoss
	// FaultShuffleLoss cleans a completed shuffle's outputs whole.
	FaultShuffleLoss = faults.ShuffleLoss
	// FaultExecutorDeath kills one executor permanently: its cache and
	// map outputs are lost and its partitions migrate to the survivors.
	FaultExecutorDeath = faults.ExecutorDeath
	// FaultBucketLoss destroys one map-output bucket, re-running only
	// the producing map task.
	FaultBucketLoss = faults.BucketLoss
	// FaultTaskFlake fails a single task attempt transiently; the
	// scheduler retries exactly that attempt with exponential backoff.
	FaultTaskFlake = faults.TaskFlake
	// FaultFetchFlake fails a single shuffle-fetch attempt transiently
	// without losing the bucket; the fetch is retried with backoff.
	FaultFetchFlake = faults.FetchFlake
	// FaultStraggler slows one executor by a configurable multiplier for
	// a bounded window of tasks, triggering speculative execution when
	// Resilience enables it.
	FaultStraggler = faults.Straggler
	// FaultServerCrash kills a whole streaming session deterministically
	// at a window boundary, right after its checkpoint commits. Unlike
	// the other classes it is not drawn from random schedules: it is
	// placed explicitly via SessionConfig.CrashWindow, and recovery means
	// resuming the session (ResumeSession), not in-run recomputation.
	FaultServerCrash = faults.ServerCrash
)

// ErrSessionCrashed is returned by Session and stream operations after
// an injected server crash (SessionConfig.CrashWindow) killed the
// session. The session's durable state survives under its
// CheckpointDir; ResumeSession continues it.
var ErrSessionCrashed = faults.ErrServerCrash

// ParseFaultClasses parses a comma-separated class list
// ("exec,shuffle", "task-flake,straggler", the groups
// "permanent"/"transient", or "all"), deduplicated in first-seen order.
func ParseFaultClasses(spec string) ([]FaultClass, error) { return faults.ParseClasses(spec) }

// AllFaultClasses lists every fault class, permanent then transient.
func AllFaultClasses() []FaultClass { return faults.AllClasses() }

// Resilience configures the scheduler's transient-failure machinery —
// bounded task/fetch retries with exponential backoff, speculative
// execution of stragglers, and flaky-executor blacklisting — attached
// via RunConfig.Resilience. The zero value selects the defaults
// (3 task retries, 2 fetch retries, 2ms base backoff, speculation and
// blacklisting off); see engine.Resilience for the field semantics.
type Resilience = engine.Resilience

// ParseResilience parses comma-separated resilience knobs of the form
// "retries=3,fetch-retries=2,backoff=2ms,spec=2,blacklist=3,cooldown=2".
// Unset keys keep their defaults; "retries=-1" / "fetch-retries=-1"
// disable the respective retries.
func ParseResilience(spec string) (Resilience, error) {
	var r Resilience
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return r, fmt.Errorf("blaze: resilience knob %q is not key=value", f)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "retries":
			r.MaxTaskRetries, err = strconv.Atoi(val)
		case "fetch-retries":
			r.MaxFetchRetries, err = strconv.Atoi(val)
		case "backoff":
			r.RetryBackoff, err = time.ParseDuration(val)
		case "spec":
			r.SpeculativeMultiple, err = strconv.ParseFloat(val, 64)
		case "blacklist":
			r.BlacklistAfter, err = strconv.Atoi(val)
		case "cooldown":
			r.BlacklistCooldown, err = strconv.Atoi(val)
		default:
			return r, fmt.Errorf("blaze: unknown resilience knob %q (want retries, fetch-retries, backoff, spec, blacklist or cooldown)", key)
		}
		if err != nil {
			return r, fmt.Errorf("blaze: resilience knob %q: %v", f, err)
		}
	}
	return r, nil
}
