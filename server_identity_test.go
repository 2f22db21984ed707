package blaze

// The identity regression for the one run path: Run executes every
// application — RealBytes included — as the single session of a private
// job server, and must reproduce a standalone engine.NewCluster running
// the same driver bit for bit: every deterministic metric equal and the
// event log byte-identical, for every Fig. 9 system, at sequential and
// parallel engine settings.

import (
	"bytes"
	"fmt"
	"testing"

	"blaze/internal/dataflow"
	"blaze/internal/engine"
	"blaze/internal/storage"
)

// standaloneRun is the reference arm: Run's plan executed on a standalone
// cluster (private pool, no server, no gate), built here because no
// program path does so any more.
func standaloneRun(cfg RunConfig) (*Result, error) {
	p, err := planRun(cfg)
	if err != nil {
		return nil, err
	}
	mem, err := p.memory()
	if err != nil {
		return nil, err
	}
	ctx := dataflow.NewContext()
	cluster, err := engine.NewCluster(engine.Config{
		Executors:         p.cfg.Executors,
		CoresPerExecutor:  p.cfg.Cores,
		Parallelism:       p.cfg.Parallelism,
		MemoryPerExecutor: mem,
		Params:            p.params,
		Controller:        p.sys.ctl,
		AlluxioMode:       p.sys.alluxio,
		EventLog:          p.cfg.EventLog,
		Hook:              p.hook,
		Resilience:        p.cfg.Resilience,
		RealBytes:         p.cfg.RealBytes,
	}, ctx)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	cluster.AddProfilingTime(p.sys.profilingOverhead())
	p.sys.drive(p.spec, ctx, p.cfg.Scale)
	res := &Result{System: p.cfg.System, Workload: p.cfg.Workload, Metrics: cluster.Finish(), MemoryPerExecutor: mem}
	if meter := cluster.Meter(); meter != nil {
		snap := StorageMeasurement(meter.Snapshot())
		res.Storage = &snap
	}
	return res, nil
}

func TestServerRunBitIdentical(t *testing.T) {
	type row struct {
		name string
		cfg  RunConfig
	}
	var rows []row
	for _, w := range []WorkloadID{PR, KMeans} {
		for _, sys := range Fig9Systems() {
			for _, par := range []int{1, 8} {
				rows = append(rows, row{fmt.Sprintf("%s/%s/par%d", w, sys, par),
					RunConfig{System: sys, Workload: w, Scale: 0.25, Parallelism: par}})
			}
		}
	}
	// RealBytes under memory pressure, so every storage category (encode,
	// decode, file write, file read) does measured work. PR, KMeans and
	// SVD++ blocks are typed columnar bytes; LR's LabeledPoint blocks (and
	// SVD++'s ratings) take the gob fallback end to end.
	for _, w := range []WorkloadID{PR, KMeans, SVDPP, LR} {
		for _, sys := range []SystemID{SysSparkMemDisk, SysSparkAlluxio, SysBlaze} {
			rows = append(rows, row{fmt.Sprintf("%s/%s/realbytes", w, sys),
				RunConfig{System: sys, Workload: w, Scale: 0.25, MemoryFraction: 0.25, RealBytes: true}})
		}
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			refCfg := r.cfg
			refCfg.EventLog = NewEventLog()
			ref, err := standaloneRun(refCfg)
			if err != nil {
				t.Fatal(err)
			}

			srvCfg := r.cfg
			srvCfg.EventLog = NewEventLog()
			got, err := Run(srvCfg)
			if err != nil {
				t.Fatal(err)
			}

			if got.MemoryPerExecutor != ref.MemoryPerExecutor {
				t.Fatalf("memory differs: standalone %d, server %d", ref.MemoryPerExecutor, got.MemoryPerExecutor)
			}
			if !MetricsEqualDeterministic(ref.Metrics, got.Metrics) {
				t.Fatalf("metrics differ:\nstandalone %+v\nserver %+v", ref.Metrics, got.Metrics)
			}
			var refBuf, gotBuf bytes.Buffer
			if err := refCfg.EventLog.WriteJSON(&refBuf); err != nil {
				t.Fatal(err)
			}
			if err := srvCfg.EventLog.WriteJSON(&gotBuf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(refBuf.Bytes(), gotBuf.Bytes()) {
				t.Fatalf("event logs differ (standalone %d bytes, server %d bytes)", refBuf.Len(), gotBuf.Len())
			}
			if (got.Storage != nil) != r.cfg.RealBytes || (ref.Storage != nil) != r.cfg.RealBytes {
				t.Fatalf("Storage must be reported exactly by RealBytes runs: standalone %v, server %v", ref.Storage != nil, got.Storage != nil)
			}
			if got.Storage != nil {
				// Blaze keeps LR off the disk at any memory size (recomputing a
				// points partition is cheaper than writing it), so on that row
				// only the memory tier's codec work is there to be measured.
				noDisk := r.cfg.Workload == LR && r.cfg.System == SysBlaze
				for _, c := range got.Storage.Categories() {
					if noDisk && (c.Category == storage.DiskWrite || c.Category == storage.DiskRead) {
						continue
					}
					if c.Stats.Ops == 0 || c.Stats.Bytes == 0 || c.Stats.Wall <= 0 {
						t.Errorf("%s not measured on the server path: %+v", c.Category, c.Stats)
					}
				}
				// Capacity accounting uses the analytic sizes in both modes,
				// so the bytes at rest must be invisible: the same run on
				// virtual stores has the same metrics and event log.
				virtCfg := r.cfg
				virtCfg.RealBytes = false
				virtCfg.EventLog = NewEventLog()
				virt, err := Run(virtCfg)
				if err != nil {
					t.Fatal(err)
				}
				if !MetricsEqualDeterministic(virt.Metrics, got.Metrics) {
					t.Fatalf("metrics differ:\nvirtual    %+v\nreal bytes %+v", virt.Metrics, got.Metrics)
				}
				var virtBuf bytes.Buffer
				if err := virtCfg.EventLog.WriteJSON(&virtBuf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(virtBuf.Bytes(), gotBuf.Bytes()) {
					t.Fatalf("event logs differ (virtual %d bytes, real bytes %d bytes)", virtBuf.Len(), gotBuf.Len())
				}
			}
		})
	}
}
