// Command blazed is the multi-tenant Blaze job server daemon: one
// long-lived process, one shared executor pool, one shared cache, many
// concurrent applications submitted over HTTP. Tenants get fair-share
// scheduling (weighted round-robin over jobs), per-tenant memory quotas
// enforced at block admission, and — with -arbitrate — cluster-wide
// cache arbitration re-running the Blaze ILP across every admitted
// session's candidate set.
//
// Usage:
//
//	blazed -addr :8080 -executors 8 -memory 1048576 \
//	    -tenants "analytics:2:262144,ml:1:131072" -arbitrate
//
// API:
//
//	POST   /api/v1/jobs   {"tenant","system","workload","scale",...} -> {"id",...}
//	GET    /api/v1/jobs/{id}                                         -> status + metrics
//	DELETE /api/v1/jobs/{id}                                         -> cancel
//	GET    /api/v1/stats                                             -> server stats
//	GET    /healthz                                                  -> ok
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"blaze"
)

// jobRequest is the POST /api/v1/jobs payload. Zero values select the
// same defaults as blaze.RunConfig.
type jobRequest struct {
	Tenant       string  `json:"tenant"`
	System       string  `json:"system"`
	Workload     string  `json:"workload"`
	Scale        float64 `json:"scale,omitempty"`
	ProfileScale float64 `json:"profile_scale,omitempty"`
	DiskCapacity int64   `json:"disk_capacity,omitempty"`
	Parallelism  int     `json:"parallelism,omitempty"`
	// Resilience is the knob string ParseResilience accepts
	// ("retries=3,backoff=2ms,...").
	Resilience string `json:"resilience,omitempty"`
	// FaultClasses is the class list ParseFaultClasses accepts; set it
	// to attach a fault injector with FaultSeed.
	FaultClasses string `json:"fault_classes,omitempty"`
	FaultSeed    int64  `json:"fault_seed,omitempty"`
}

// jobStatus is the GET /api/v1/jobs/{id} response.
type jobStatus struct {
	ID       int    `json:"id"`
	Tenant   string `json:"tenant"`
	System   string `json:"system"`
	Workload string `json:"workload"`
	State    string `json:"state"` // running | done | failed | cancelled
	Error    string `json:"error,omitempty"`
	// ACTMillis and the counters are filled once done.
	ACTMillis  int64 `json:"act_ms,omitempty"`
	CacheHits  int   `json:"cache_hits,omitempty"`
	DiskHits   int   `json:"disk_hits,omitempty"`
	Misses     int   `json:"misses,omitempty"`
	Evictions  int   `json:"evictions,omitempty"`
	QuotaRejns int   `json:"quota_rejections,omitempty"`
}

// daemon tracks submitted jobs by id.
type daemon struct {
	srv  *blaze.Server
	mu   sync.Mutex
	jobs map[int]*trackedJob
}

type trackedJob struct {
	handle   *blaze.JobHandle
	system   string
	workload string
}

func parseTenants(spec string) ([]blaze.TenantConfig, error) {
	if spec == "" {
		return nil, nil
	}
	var out []blaze.TenantConfig
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.Split(item, ":")
		tc := blaze.TenantConfig{Name: parts[0]}
		if len(parts) > 3 || parts[0] == "" {
			return nil, fmt.Errorf("tenant %q: want name[:weight[:quota]]", item)
		}
		if len(parts) > 1 && parts[1] != "" {
			w, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return nil, fmt.Errorf("tenant %q: bad weight: %v", item, err)
			}
			tc.Weight = w
		}
		if len(parts) > 2 && parts[2] != "" {
			q, err := strconv.ParseInt(parts[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("tenant %q: bad quota: %v", item, err)
			}
			tc.MemoryQuota = q
		}
		out = append(out, tc)
	}
	return out, nil
}

func (d *daemon) submit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	spec := blaze.JobSpec{
		Tenant:       req.Tenant,
		System:       blaze.SystemID(req.System),
		Workload:     blaze.WorkloadID(req.Workload),
		Scale:        req.Scale,
		ProfileScale: req.ProfileScale,
		DiskCapacity: req.DiskCapacity,
		Parallelism:  req.Parallelism,
	}
	if req.Resilience != "" {
		res, err := blaze.ParseResilience(req.Resilience)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spec.Resilience = res
	}
	if req.FaultClasses != "" {
		classes, err := blaze.ParseFaultClasses(req.FaultClasses)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spec.Faults = &blaze.FaultConfig{Seed: req.FaultSeed, Classes: classes}
	}
	h, err := d.srv.Submit(context.Background(), spec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, blaze.ErrServerClosed) {
			code = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), code)
		return
	}
	d.mu.Lock()
	d.jobs[h.ID()] = &trackedJob{handle: h, system: req.System, workload: req.Workload}
	d.mu.Unlock()
	writeJSON(w, http.StatusAccepted, jobStatus{
		ID: h.ID(), Tenant: h.Tenant(), System: req.System, Workload: req.Workload, State: "running",
	})
}

func (d *daemon) job(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/api/v1/jobs/"))
	if err != nil {
		http.Error(w, "bad job id", http.StatusBadRequest)
		return
	}
	d.mu.Lock()
	tj := d.jobs[id]
	d.mu.Unlock()
	if tj == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	if r.Method == http.MethodDelete {
		tj.handle.Cancel()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	st := jobStatus{
		ID: id, Tenant: tj.handle.Tenant(), System: tj.system, Workload: tj.workload, State: "running",
	}
	select {
	case <-tj.handle.Done():
		res, err := tj.handle.Result()
		switch {
		case errors.Is(err, blaze.ErrCancelled):
			st.State = "cancelled"
		case err != nil:
			st.State = "failed"
			st.Error = err.Error()
		default:
			st.State = "done"
			m := res.Metrics
			st.ACTMillis = res.ACT().Milliseconds()
			st.CacheHits, st.DiskHits, st.Misses = m.CacheHits, m.DiskHits, m.Misses
			st.Evictions = m.Evictions
			st.QuotaRejns = m.QuotaRejections
		}
	default:
	}
	writeJSON(w, http.StatusOK, st)
}

func (d *daemon) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.srv.Stats())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	executors := flag.Int("executors", 8, "executors in the shared pool")
	cores := flag.Int("cores", 1, "task slots per executor")
	memory := flag.Int64("memory", 1<<20, "memory-store capacity per executor in bytes")
	parallelism := flag.Int("parallelism", 0, "default engine parallelism per job (0 = all CPUs)")
	tenantSpec := flag.String("tenants", "", "tenant set: name[:weight[:quota-bytes]],... (empty = open admission)")
	maxActive := flag.Int("max-active", 0, "bound on concurrently active sessions (0 = unbounded)")
	arbitrate := flag.Bool("arbitrate", false, "re-run each Blaze job-start ILP across all admitted sessions")
	events := flag.String("events", "", "write the server's session/arbitration event log to this path on shutdown")
	var streams []string
	for _, id := range blaze.AllStreamWorkloads() {
		streams = append(streams, string(id))
	}
	stream := flag.String("stream", "", "run one durable micro-batch stream in the foreground instead of serving HTTP ("+strings.Join(streams, ", ")+")")
	windows := flag.Int("windows", 6, "stream mode: number of micro-batch windows")
	scale := flag.Float64("scale", 0.5, "stream mode: per-window input scale")
	checkpointDir := flag.String("checkpoint", "", "stream mode: durable checkpoint directory (required with -stream)")
	crashWindow := flag.Int("crash-window", 0, "stream mode: kill the session at this window boundary and exit 3 (0 = never)")
	resume := flag.Bool("resume", false, "stream mode: resume from the newest checkpoint, verify against an uninterrupted reference run")
	flag.Parse()

	if *stream != "" {
		runStreamMode(streamModeConfig{
			workload:    *stream,
			windows:     *windows,
			executors:   *executors,
			memory:      *memory,
			parallelism: *parallelism,
			scale:       *scale,
			checkpoint:  *checkpointDir,
			crashWindow: *crashWindow,
			resume:      *resume,
		})
		return
	}

	tenants, err := parseTenants(*tenantSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "blazed: %v\n", err)
		os.Exit(1)
	}
	var log *blaze.EventLog
	if *events != "" {
		log = blaze.NewEventLog()
	}
	srv, err := blaze.NewServer(blaze.ServerConfig{
		Executors:         *executors,
		Cores:             *cores,
		MemoryPerExecutor: *memory,
		Parallelism:       *parallelism,
		Tenants:           tenants,
		MaxActiveSessions: *maxActive,
		Arbitrate:         *arbitrate,
		EventLog:          log,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "blazed: %v\n", err)
		os.Exit(1)
	}

	d := &daemon{srv: srv, jobs: make(map[int]*trackedJob)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", d.submit)
	mux.HandleFunc("/api/v1/jobs/", d.job)
	mux.HandleFunc("GET /api/v1/stats", d.stats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})

	hsrv := &http.Server{Addr: *addr, Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "blazed: shutting down (draining active jobs)")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = hsrv.Shutdown(ctx)
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "blazed: drain deadline hit, jobs cancelled: %v\n", err)
		}
		if log != nil {
			f, err := os.Create(*events)
			if err != nil {
				fmt.Fprintf(os.Stderr, "blazed: %v\n", err)
				return
			}
			if err := log.WriteJSON(f); err != nil {
				fmt.Fprintf(os.Stderr, "blazed: %v\n", err)
			}
			f.Close()
		}
	}()

	fmt.Fprintf(os.Stderr, "blazed: serving on %s (%d executors × %d bytes, %d tenant(s), arbitrate=%v)\n",
		*addr, *executors, *memory, len(tenants), *arbitrate)
	if err := hsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "blazed: %v\n", err)
		os.Exit(1)
	}
	<-done
}
