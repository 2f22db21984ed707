package core

import (
	"math/rand"
	"testing"

	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/engine"
	"blaze/internal/enginetest"
	"blaze/internal/storage"
)

// TestBlazeFuzzEquivalence runs the full Blaze controller (and every
// ablation) over random non-iterative DAG programs under brutal memory
// pressure: the unified decision layer may drop, spill or recompute
// whatever it wants, but every action's results must match the reference
// evaluator exactly. Non-iterative DAGs with random releases are the
// stress case for the on-the-run reference induction.
func TestBlazeFuzzEquivalence(t *testing.T) {
	VerifyCachedCosts(true)
	defer VerifyCachedCosts(false)
	makers := []func() *Controller{NewBlaze, NewBlazeMemOnly, NewAutoCache, NewCostAware}
	for seed := int64(1); seed <= 10; seed++ {
		want := enginetest.RefChecksums(seed)
		for _, mk := range makers {
			ctl := mk()
			ctx := dataflow.NewContext()
			c, err := engine.NewCluster(engine.Config{
				Executors:         3,
				MemoryPerExecutor: 2048,
				Params:            costmodel.Default(),
				Controller:        ctl,
			}, ctx)
			if err != nil {
				t.Fatal(err)
			}
			got := enginetest.BuildRandomProgram(seed, ctx)
			if len(got) != len(want) {
				t.Fatalf("seed %d %s: %d checksums, want %d", seed, ctl.Name(), len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("seed %d %s: checksum %d = %d, want %d", seed, ctl.Name(), k, got[k], want[k])
				}
			}
			c.Finish()
		}
	}
}

// TestBlazeFuzzWithFailureInjection combines Blaze with random block loss
// after every job.
func TestBlazeFuzzWithFailureInjection(t *testing.T) {
	VerifyCachedCosts(true)
	defer VerifyCachedCosts(false)
	for seed := int64(1); seed <= 6; seed++ {
		want := enginetest.RefChecksums(seed)
		ctx := dataflow.NewContext()
		c, err := engine.NewCluster(engine.Config{
			Executors:         3,
			MemoryPerExecutor: 64 * 1024,
			Params:            costmodel.Default(),
			Controller:        NewBlaze(),
		}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 13))
		inner := ctx.Runner()
		ctx.SetRunner(&killer{inner: inner, c: c, rng: rng})
		got := enginetest.BuildRandomProgram(seed, ctx)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("seed %d: checksum %d = %d, want %d", seed, k, got[k], want[k])
			}
		}
	}
}

type killer struct {
	inner dataflow.JobRunner
	c     *engine.Cluster
	rng   *rand.Rand
}

func (f *killer) RunJob(target *dataflow.Dataset, action string) [][]dataflow.Record {
	out := f.inner.RunJob(target, action)
	for _, ex := range f.c.Executors() {
		for _, m := range ex.Mem.Blocks() {
			if f.rng.Intn(4) == 0 {
				f.c.DropBlock(ex, m.ID)
			}
		}
		for _, id := range ex.Disk.Blocks() {
			if f.rng.Intn(4) == 0 {
				f.c.DropBlock(ex, id)
			}
		}
	}
	return out
}

func (f *killer) Unpersist(d *dataflow.Dataset) { f.inner.Unpersist(d) }
func (f *killer) Release(d *dataflow.Dataset)   { f.inner.Release(d) }

// TestAutoUnpersistReclaimsDeadData: once a dataset has no remaining
// references, its blocks disappear from both tiers at the next stage end.
func TestAutoUnpersistReclaimsDeadData(t *testing.T) {
	ctx := dataflow.NewContext()
	c, err := engine.NewCluster(engine.Config{
		Executors:         2,
		MemoryPerExecutor: 1 << 20,
		Params:            costmodel.Default(),
		Controller:        NewBlaze(),
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	a := ctx.Source("a@0", 2, func(part int) []dataflow.Record {
		return []dataflow.Record{{Key: int64(part), Value: int64(part)}}
	})
	b := a.Map("b@0", func(r dataflow.Record) dataflow.Record { return r })
	b.Count()
	b.Count()
	b.Count()
	// After the last job, nothing references a or b beyond the learned
	// offsets; memory should eventually shed them. At minimum, dead
	// intermediates must not accumulate without bound: run more jobs and
	// verify the store does not grow monotonically.
	used := int64(0)
	for _, ex := range c.Executors() {
		used += ex.Mem.Capacity() - ex.Mem.Free()
	}
	for i := 0; i < 3; i++ {
		b.Count()
	}
	after := int64(0)
	for _, ex := range c.Executors() {
		after += ex.Mem.Capacity() - ex.Mem.Free()
	}
	if after > used+1024 {
		t.Fatalf("memory grew across repeated identical jobs: %d -> %d", used, after)
	}
	c.Finish()
}

// TestBlockStateReflectsStores verifies the controller's state callback.
func TestBlockStateReflectsStores(t *testing.T) {
	ctx := dataflow.NewContext()
	ctl := NewBlaze()
	c, err := engine.NewCluster(engine.Config{
		Executors:         1,
		MemoryPerExecutor: 1 << 20,
		Params:            costmodel.Default(),
		Controller:        ctl,
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	ds := ctx.Source("s@0", 1, func(int) []dataflow.Record {
		return []dataflow.Record{{Key: 1, Value: int64(1)}}
	}).Map("m@0", func(r dataflow.Record) dataflow.Record { return r })
	ds.Count()
	ds.Count() // ensure cached via future refs learned
	id := storage.BlockID{Dataset: ds.ID(), Partition: 0}
	ex := c.Executors()[0]
	st := ctl.blockState(ds.ID(), 0)
	if st.InMemory != ex.Mem.Contains(id) || st.OnDisk != ex.Disk.Contains(id) {
		t.Fatalf("blockState %+v disagrees with stores (mem=%v disk=%v)",
			st, ex.Mem.Contains(id), ex.Disk.Contains(id))
	}
}
