package blaze_test

import (
	"fmt"
	"testing"

	"blaze"
)

// TestParallelRaceStress drives shuffle-heavy workloads at Parallelism
// 8 so the -race CI job sweeps the concurrent hot path: shuffle
// read/write, eviction under pressure, metric and lineage updates.
func TestParallelRaceStress(t *testing.T) {
	for _, sys := range []blaze.SystemID{blaze.SysSparkMemDisk, blaze.SysMRD, blaze.SysBlaze} {
		for _, wl := range []blaze.WorkloadID{blaze.PR, blaze.KMeans} {
			t.Run(fmt.Sprintf("%s/%s", sys, wl), func(t *testing.T) {
				batchCell{System: sys, Workload: wl, Executors: 8, Scale: 0.25}.run(t, p8)
			})
		}
	}
}
