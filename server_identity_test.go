package blaze

// The seed-identity regression for the Run redesign: Run now executes
// every (non-RealBytes) application as the single session of a private
// job server, and must reproduce the pre-server standalone engine —
// runDirect — bit for bit: every deterministic metric equal and the
// event log byte-identical, for every Fig. 9 system, at sequential and
// parallel engine settings.

import (
	"bytes"
	"fmt"
	"testing"
)

// directRun is Run's prelude (planRun + memory calibration) executed on
// the standalone path.
func directRun(cfg RunConfig) (*Result, error) {
	p, err := planRun(cfg)
	if err != nil {
		return nil, err
	}
	mem, err := p.memory()
	if err != nil {
		return nil, err
	}
	return runDirect(p.cfg, p.spec, p.params, mem, p.sys, p.hook)
}

func TestServerRunBitIdentical(t *testing.T) {
	for _, w := range []WorkloadID{PR, KMeans} {
		for _, sys := range Fig9Systems() {
			for _, par := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/par%d", w, sys, par), func(t *testing.T) {
					base := RunConfig{System: sys, Workload: w, Scale: 0.25, Parallelism: par}

					refCfg := base
					refCfg.EventLog = NewEventLog()
					ref, err := directRun(refCfg)
					if err != nil {
						t.Fatal(err)
					}

					srvCfg := base
					srvCfg.EventLog = NewEventLog()
					got, err := Run(srvCfg)
					if err != nil {
						t.Fatal(err)
					}

					if got.MemoryPerExecutor != ref.MemoryPerExecutor {
						t.Fatalf("memory differs: direct %d, server %d", ref.MemoryPerExecutor, got.MemoryPerExecutor)
					}
					if !MetricsEqualDeterministic(ref.Metrics, got.Metrics) {
						t.Fatalf("metrics differ:\ndirect %+v\nserver %+v", ref.Metrics, got.Metrics)
					}
					var refBuf, gotBuf bytes.Buffer
					if err := refCfg.EventLog.WriteJSON(&refBuf); err != nil {
						t.Fatal(err)
					}
					if err := srvCfg.EventLog.WriteJSON(&gotBuf); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(refBuf.Bytes(), gotBuf.Bytes()) {
						t.Fatalf("event logs differ (direct %d bytes, server %d bytes)", refBuf.Len(), gotBuf.Len())
					}
				})
			}
		}
	}
}
