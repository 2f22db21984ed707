package engine_test

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"blaze/internal/cachepolicy"
	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/engine"
	"blaze/internal/enginetest"
	"blaze/internal/eventlog"
	"blaze/internal/faults"
	"blaze/internal/metrics"
	"blaze/internal/storage"
)

// TestFuzzEquivalenceAcrossSystems is the big correctness property: for
// random DAGs and random programs, every controller configuration under
// brutal eviction pressure computes exactly the reference results.
func TestFuzzEquivalenceAcrossSystems(t *testing.T) {
	controllers := []func() engine.Controller{
		func() engine.Controller { return engine.NewSparkMemOnly() },
		func() engine.Controller { return engine.NewSparkMemDisk() },
		func() engine.Controller { return engine.NewLRC(engine.MemDisk) },
		func() engine.Controller { return engine.NewMRD(engine.MemDisk) },
		func() engine.Controller {
			return engine.NewAnnotation("tinylfu", engine.MemDisk, cachepolicy.NewTinyLFU(64), false)
		},
		func() engine.Controller {
			return engine.NewAnnotation("lecar", engine.MemOnly, cachepolicy.NewLeCaR(), false)
		},
		func() engine.Controller {
			return engine.NewAnnotation("gdwheel", engine.MemDisk, cachepolicy.GDWheel{}, false)
		},
	}
	vecBefore := engine.VecTasksExecuted()
	for seed := int64(1); seed <= 12; seed++ {
		want := enginetest.RefChecksums(seed)
		for i, mk := range controllers {
			// Both data planes: the random programs are the only ones that
			// drive the columnar plane through kernel-less datasets
			// (BatchCompute fallback, AnyColumn, group/join/broadcast
			// buckets) under eviction pressure, and everything observable
			// must equal the row plane's.
			var rowMet *metrics.App
			var rowLog []byte
			for _, vec := range []bool{false, true} {
				ctl := mk()
				ctx := dataflow.NewContext()
				log := eventlog.New()
				c, err := engine.NewCluster(engine.Config{
					Executors:         3,
					MemoryPerExecutor: 2048, // brutal pressure
					Params:            costmodel.Default(),
					Controller:        ctl,
					EventLog:          log,
					Vectorized:        vec,
				}, ctx)
				if err != nil {
					t.Fatal(err)
				}
				got := enginetest.BuildRandomProgram(seed, ctx)
				if len(got) != len(want) {
					t.Fatalf("seed %d ctl %d (%s) vec=%v: %d checksums, want %d", seed, i, ctl.Name(), vec, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("seed %d ctl %d (%s) vec=%v: checksum %d = %d, want %d",
							seed, i, ctl.Name(), vec, k, got[k], want[k])
					}
				}
				met := c.Finish()
				var buf bytes.Buffer
				if err := log.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				if !vec {
					rowMet, rowLog = met, buf.Bytes()
					continue
				}
				if !metrics.EqualDeterministic(rowMet, met) {
					t.Fatalf("seed %d ctl %d (%s): metrics differ between planes\nrow: %+v\nvec: %+v", seed, i, ctl.Name(), rowMet, met)
				}
				if !bytes.Equal(rowLog, buf.Bytes()) {
					t.Fatalf("seed %d ctl %d (%s): event logs differ between planes (row %d bytes, vec %d bytes)",
						seed, i, ctl.Name(), len(rowLog), buf.Len())
				}
			}
		}
	}
	if engine.VecTasksExecuted() == vecBefore {
		t.Fatal("no task ran on the columnar plane; the plane comparison is vacuous")
	}
}

// TestFailureInjection drops random cached and disk blocks between jobs —
// modeling executor cache loss — and asserts results stay correct: the
// lineage-based recovery (disk reload, shuffle reread, recursive
// recomputation, stage regeneration) must reproduce every partition.
func TestFailureInjection(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		want := enginetest.RefChecksums(seed)

		ctx := dataflow.NewContext()
		c, err := engine.NewCluster(engine.Config{
			Executors:         3,
			MemoryPerExecutor: 1 << 20,
			Params:            costmodel.Default(),
			Controller:        engine.NewSparkMemDisk(),
		}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 7))
		// Interpose on the runner: after every job, drop a random subset
		// of blocks from both tiers.
		inner := ctx.Runner()
		ctx.SetRunner(&faultInjector{inner: inner, c: c, rng: rng})

		got := enginetest.BuildRandomProgram(seed, ctx)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d checksums, want %d", seed, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("seed %d: checksum %d = %d, want %d after failure injection", seed, k, got[k], want[k])
			}
		}
	}
}

// faultInjector wraps the cluster's job runner, killing random blocks
// after every job.
type faultInjector struct {
	inner dataflow.JobRunner
	c     *engine.Cluster
	rng   *rand.Rand
}

func (f *faultInjector) RunJob(target *dataflow.Dataset, action string) [][]dataflow.Record {
	out := f.inner.RunJob(target, action)
	for _, ex := range f.c.Executors() {
		var ids []storage.BlockID
		for _, m := range ex.Mem.Blocks() {
			ids = append(ids, m.ID)
		}
		ids = append(ids, ex.Disk.Blocks()...)
		sort.Slice(ids, func(i, j int) bool {
			if ids[i].Dataset != ids[j].Dataset {
				return ids[i].Dataset < ids[j].Dataset
			}
			return ids[i].Partition < ids[j].Partition
		})
		for _, id := range ids {
			if f.rng.Intn(3) == 0 {
				f.c.DropBlock(ex, id)
			}
		}
	}
	return out
}

func (f *faultInjector) Unpersist(d *dataflow.Dataset) { f.inner.Unpersist(d) }
func (f *faultInjector) Release(d *dataflow.Dataset)   { f.inner.Release(d) }

// FuzzFaultSchedules fuzzes the fault-schedule space — class subsets,
// boundary and task rates, retry budgets — over the random programs and
// requires every run to terminate with the reference checksums. The seed
// corpus pins one schedule per fault class (bit i of classMask selects
// faults.AllClasses()[i]).
func FuzzFaultSchedules(f *testing.F) {
	all := faults.AllClasses()
	for i := range all {
		f.Add(int64(i+1), int64(3*i+7), uint8(1<<i), uint8(i%3), uint8(4+i), i%2 == 0)
	}
	f.Add(int64(9), int64(42), uint8(0xff), uint8(1), uint8(5), true) // everything at once
	f.Fuzz(func(t *testing.T, programSeed, faultSeed int64, classMask, every, taskEvery uint8, atStage bool) {
		var classes []faults.Class
		for i, cl := range all {
			if classMask&(1<<i) != 0 {
				classes = append(classes, cl)
			}
		}
		if len(classes) == 0 {
			return
		}
		programSeed = 1 + (programSeed%100+100)%100
		cfg := faults.Config{
			Seed:       faultSeed,
			Classes:    classes,
			Every:      int(every % 4),
			AtStageEnd: atStage,
			TaskEvery:  int(taskEvery % 16),
		}
		want := enginetest.RefChecksums(programSeed)
		got, _, err := enginetest.RunRandomProgram(programSeed, enginetest.ClusterSpec{}, engine.NewSparkMemDisk(), &cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("schedule %+v on program %d: %d checksums, want %d", cfg, programSeed, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("schedule %+v on program %d: checksum %d = %d, want %d", cfg, programSeed, k, got[k], want[k])
			}
		}
	})
}
