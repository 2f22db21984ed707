package blaze

import (
	"blaze/internal/dataflow"
	"blaze/internal/engine"
)

// StandaloneRun is the identity matrix's standalone arm: Run's plan
// executed on a standalone cluster (private pool, no server, no gate),
// built here because no program path does so any more.
func StandaloneRun(cfg RunConfig) (*Result, error) {
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

// Window returns the current 1-based window index.
func (s *Session) Window() int { return s.window }
