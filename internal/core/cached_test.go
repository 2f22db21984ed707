package core

// Cached == fresh, always. The task-path estimators keep their memo and
// the victim order between decisions (estimator.go, victims.go); these
// tests drive a controller through every kind of event that can change a
// cost and, after every step, compare each cached answer with one
// computed from scratch.

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/datagen"
	"blaze/internal/engine"
	"blaze/internal/graphx"
	"blaze/internal/storage"
)

// verifyCachedEqualsFresh compares, for every block resident in memory or
// on disk and both horizons a decision asks about, the executor's
// estimator and the driver estimator (under the real states and under a
// hypothetical assignment) with a freshly constructed one, and the
// maintained victim order with CostAscending over fresh prices.
func verifyCachedEqualsFresh(b *Controller, rng *rand.Rand) error {
	type priced struct {
		n    *Node
		part int
		hs   [2]int
	}
	for _, ex := range b.c.Executors() {
		if ex.Dead() {
			continue
		}
		var blocks []priced
		hypo := make(map[storage.BlockID]bool)
		add := func(id storage.BlockID) {
			n := b.lin.Node(id.Dataset)
			if n == nil {
				return
			}
			blocks = append(blocks, priced{n, id.Partition,
				[2]int{b.horizonFor(n, id.Dataset), b.horizonForAdmission(n, id.Dataset)}})
			if rng.Intn(2) == 0 {
				hypo[id] = rng.Intn(2) == 0
			}
		}
		for _, m := range ex.Mem.Blocks() {
			add(m.ID)
		}
		for _, id := range ex.Disk.Blocks() {
			if !ex.Mem.Contains(id) {
				add(id)
			}
		}

		compare := func(label string, est, fresh *Estimator) error {
			for _, p := range blocks {
				for _, h := range p.hs {
					if got, want := est.RecoveryCostAt(p.n, p.part, h), fresh.RecoveryCostAt(p.n, p.part, h); got != want {
						return fmt.Errorf("%s, executor %d: recovery cost of %s@%d partition %d at horizon %d is %v, fresh %v",
							label, ex.ID, p.n.Key.Role, p.n.Key.Iter, p.part, h, got, want)
					}
					// The memoized quantity itself: a cheap disk tier can hide
					// a stale recomputation cost behind the min of Eq. 2.
					if got, want := est.RecomputeCostAt(p.n, p.part, h), fresh.RecomputeCostAt(p.n, p.part, h); got != want {
						return fmt.Errorf("%s, executor %d: recomputation cost of %s@%d partition %d at horizon %d is %v, fresh %v",
							label, ex.ID, p.n.Key.Role, p.n.Key.Iter, p.part, h, got, want)
					}
				}
			}
			return nil
		}
		task, driver := b.estFor(ex), b.est
		task.Reset()
		if err := compare("task-path estimator", task, b.freshEstimator()); err != nil {
			return err
		}
		driver.Reset()
		if err := compare("driver estimator", driver, b.freshEstimator()); err != nil {
			return err
		}
		fresh := b.freshEstimator()
		driver.SetHypothetical(hypo)
		fresh.SetHypothetical(hypo)
		if err := compare("driver estimator under a hypothetical", driver, fresh); err != nil {
			return err
		}
		driver.Reset()
		if err := compare("driver estimator after a hypothetical", driver, b.freshEstimator()); err != nil {
			return err
		}

		if b.feat.CostAware {
			b.victimOrder(ex)
			if err := b.checkVictimOrder(ex); err != nil {
				return err
			}
			// The call that follows with nothing changed in between — the
			// SelectVictims after a PlaceComputed — must serve the same
			// order.
			before := append([]*storage.BlockMeta(nil), b.victimOrder(ex)...)
			after := b.victimOrder(ex)
			for i := range before {
				if before[i] != after[i] {
					return fmt.Errorf("executor %d: victim order changed between two calls with no event in between", ex.ID)
				}
			}
		}
	}
	return nil
}

// cachedHarness is the driver program and the engine hook of the
// differential test: a multi-iteration lineage with a narrow chain
// (contribs, joined, ranks), a same-count shuffle (sums), a narrowing
// shuffle (stats, P→P/2 partitions) and a widening one (fan, P/2→P, so
// partition p of fan maps onto p mod P/2 — another column, for p ≥ P/2,
// homed on another executor), under memory pressure, with a seeded random
// event injected at every stage boundary and between jobs.
type cachedHarness struct {
	t     *testing.T
	rng   *rand.Rand
	ctl   *Controller
	c     *engine.Cluster
	ctx   *dataflow.Context
	all   []*dataflow.Dataset // every dataset built, for picking targets
	snaps [][]byte            // earlier controller snapshots, for rollback
	died  bool
	steps map[string]int
}

const (
	cachedParts = 8
	cachedExecs = 3
)

func (h *cachedHarness) OnJobStart(c *engine.Cluster, j *engine.Job) { h.check("job start") }
func (h *cachedHarness) OnJobEnd(c *engine.Cluster, j *engine.Job)   { h.check("job end") }
func (h *cachedHarness) OnStageEnd(c *engine.Cluster, st *engine.Stage) {
	h.check("stage end")
	h.randomEvent(false)
	h.randomEvent(false)
}

func (h *cachedHarness) check(after string) {
	h.t.Helper()
	defer func() {
		if r := recover(); r != nil { // victimOrder's own check fired first
			h.t.Fatalf("after %s (steps so far %v): %v", after, h.steps, r)
		}
	}()
	if err := verifyCachedEqualsFresh(h.ctl, h.rng); err != nil {
		h.t.Fatalf("after %s (job %d stage %d, steps so far %v): %v", after, h.ctl.curJob, h.ctl.curStageIdx, h.steps, err)
	}
}

// residentBlock picks a random block from memory (or disk) of a random
// live executor.
func (h *cachedHarness) residentBlock(disk bool) (*engine.Executor, storage.BlockID, bool) {
	live := h.c.LiveExecutors()
	ex := live[h.rng.Intn(len(live))]
	var ids []storage.BlockID
	if disk {
		ids = ex.Disk.Blocks()
	} else {
		for _, m := range ex.Mem.Blocks() {
			ids = append(ids, m.ID)
		}
	}
	if len(ids) == 0 {
		return nil, storage.BlockID{}, false
	}
	return ex, ids[h.rng.Intn(len(ids))], true
}

// diskOnlyParent finds a block that is on disk only and is the narrow
// parent of a block resident on the same executor.
func (h *cachedHarness) diskOnlyParent() (*engine.Executor, storage.BlockID, bool) {
	for _, ex := range h.c.LiveExecutors() {
		ids := ex.Disk.Blocks()
		for _, m := range ex.Mem.Blocks() {
			ids = append(ids, m.ID)
		}
		for _, id := range ids {
			for _, dep := range h.ctx.Dataset(id.Dataset).Deps() {
				parent := storage.BlockID{Dataset: dep.Parent.ID(), Partition: id.Partition}
				if !dep.Shuffle && ex.Disk.Contains(parent) && !ex.Mem.Contains(parent) {
					return ex, parent, true
				}
			}
		}
	}
	return nil, storage.BlockID{}, false
}

// randomEvent applies one seeded event and re-checks. betweenJobs adds
// the events that are only legal outside a job.
func (h *cachedHarness) randomEvent(betweenJobs bool) {
	h.t.Helper()
	kind := h.rng.Intn(12)
	if betweenJobs && h.rng.Intn(2) == 0 {
		kind = 12 + h.rng.Intn(5)
	}
	var did string
	switch kind {
	case 0: // drop from both tiers
		if ex, id, ok := h.diskOnlyParent(); ok && h.rng.Intn(2) == 0 {
			// The drop that touches the disk store alone and still changes
			// a standing price.
			h.c.DropBlock(ex, id)
			did = "drop"
		} else if ex, id, ok := h.residentBlock(h.rng.Intn(2) == 0); ok {
			h.c.DropBlock(ex, id)
			did = "drop"
		}
	case 1: // evict to disk
		if ex, id, ok := h.residentBlock(false); ok && h.c.SpillBlock(ex, id) {
			did = "spill"
		}
	case 2: // promote from disk
		if ex, id, ok := h.residentBlock(true); ok && h.c.PromoteBlock(ex, id, true) {
			did = "promote"
		}
	case 3, 4: // admit into a store behind the controller's back
		ds := h.all[h.rng.Intn(len(h.all))]
		part := h.rng.Intn(ds.Partitions())
		if _, rid, ok := h.residentBlock(false); ok && h.rng.Intn(2) == 0 {
			// The narrow parent of a resident block, same partition: the
			// put that changes a standing price.
			for _, dep := range h.ctx.Dataset(rid.Dataset).Deps() {
				if !dep.Shuffle {
					ds, part = dep.Parent, rid.Partition
				}
			}
		}
		ex := h.c.ExecutorFor(part)
		id := storage.BlockID{Dataset: ds.ID(), Partition: part}
		size := int64(64 + h.rng.Intn(512))
		if h.rng.Intn(2) == 0 {
			if !ex.Mem.Contains(id) && size <= ex.Mem.Free() {
				if _, err := ex.Mem.Put(id, nil, size, ex.ID, 0); err != nil {
					h.t.Fatal(err)
				}
				did = "memory put"
			}
		} else if !ex.Disk.Contains(id) {
			if err := ex.Disk.Put(id, storage.Fresh(nil), size); err != nil {
				h.t.Fatal(err)
			}
			did = "disk put"
		}
	case 5, 6: // a new observation
		ds := h.all[h.rng.Intn(len(h.all))]
		h.ctl.lin.ObservePartition(ds.ID(), h.rng.Intn(ds.Partitions()),
			int64(100+h.rng.Intn(4000)), time.Duration(1+h.rng.Intn(50))*time.Millisecond)
		did = "observe"
	case 7: // an access mark
		if ex, id, ok := h.residentBlock(false); ok {
			h.ctl.OnBlockAccess(ex, id)
			did = "access"
		}
	case 8: // one shuffle bucket lost
		if ids := h.c.CompletedShuffles(); len(ids) > 0 {
			id := ids[h.rng.Intn(len(ids))]
			if refs := h.c.CompleteBucketRefs(id); len(refs) > 0 {
				r := refs[h.rng.Intn(len(refs))]
				if h.c.InjectBucketLoss(id, r.MapPart, r.Bucket) {
					did = "bucket loss"
				}
			}
		}
	case 9: // a whole shuffle cleaned
		if ids := h.c.CompletedShuffles(); len(ids) > 0 && h.c.InjectShuffleLoss(ids[h.rng.Intn(len(ids))]) {
			did = "shuffle loss"
		}
	case 10: // a block destroyed
		if ex, id, ok := h.residentBlock(false); ok && h.c.InjectBlockLoss(ex, id) {
			did = "block loss"
		}
	case 11: // a stage advance outside the scheduler's own
		h.ctl.OnStageEnd(&engine.Stage{}, nil)
		did = "stage advance"
	case 12: // an executor dies, its slots move
		if !h.died && h.ctl.curJob >= 3 {
			live := h.c.LiveExecutors()
			if h.c.InjectExecutorDeath(live[h.rng.Intn(len(live))]) {
				h.died = true
				did = "executor death"
			}
		}
	case 13: // the controller is rolled back to an earlier snapshot
		if len(h.snaps) > 0 {
			if err := h.ctl.RestoreState(h.snaps[h.rng.Intn(len(h.snaps))]); err != nil {
				h.t.Fatal(err)
			}
			did = "restore"
		}
	case 14: // a skeleton arrives late: more reference offsets
		h.ctl.WithSkeleton(&Skeleton{RefOffsets: map[string][]int{
			"ranks": {2 + h.rng.Intn(4)}, "norm": {1 + h.rng.Intn(3)}, "fan": {1 + h.rng.Intn(3)},
		}})
		did = "skeleton"
	case 15: // a partition of a dataset the lineage has not seen is computed
		last := h.all[len(h.all)-1]
		ds := last.Map(fmt.Sprintf("ranks@%d", 100+len(h.all)), func(r dataflow.Record) dataflow.Record { return r })
		h.all = append(h.all, ds)
		part := h.rng.Intn(ds.Partitions())
		ex := h.c.ExecutorFor(part)
		id := storage.BlockID{Dataset: ds.ID(), Partition: part}
		if size := int64(128); size <= ex.Mem.Free() {
			// Resident and priced while unknown, then registered on the
			// task path by OnComputed's fallback.
			if _, err := ex.Mem.Put(id, nil, size, ex.ID, 0); err != nil {
				h.t.Fatal(err)
			}
			h.check("memory put of an unregistered dataset")
			h.ctl.OnComputed(ex, ds, part, size, 5*time.Millisecond)
			did = "task-path registration"
		}
	case 16: // snapshot now, to roll back to later
		if snap, err := h.ctl.CaptureState()(); err == nil {
			h.snaps = append(h.snaps, snap)
			did = "snapshot"
		}
	}
	if did != "" {
		h.steps[did]++
		h.check(did)
	}
}

func (h *cachedHarness) track(ds ...*dataflow.Dataset) { h.all = append(h.all, ds...) }

// run is the driver program: iters iterations, one or two jobs each.
func (h *cachedHarness) run(iters int, windowed bool) {
	const rows = 24
	n := int64(cachedParts * rows)
	edges := h.ctx.Source("edges@0", cachedParts, func(part int) []dataflow.Record {
		out := make([]dataflow.Record, rows)
		for i := range out {
			out[i] = dataflow.Record{Key: int64(part*rows + i), Value: []float64{1, 2, 3, 4, 5, 6}}
		}
		return out
	})
	ranks := edges.Map("ranks@0", func(r dataflow.Record) dataflow.Record {
		return dataflow.Record{Key: r.Key, Value: float64(1)}
	})
	h.track(edges, ranks)
	add := func(a, b any) any { return a.(float64) + b.(float64) }
	var norm, fan *dataflow.Dataset
	var old []*dataflow.Dataset
	for it := 1; it <= iters; it++ {
		if windowed {
			h.c.StartWindow()
			h.steps["window"]++
			h.check("window advance")
		}
		contribs := dataflow.Zip(fmt.Sprintf("contribs@%d", it), dataflow.OpHeavy, ranks, edges,
			func(_ int, rs, _ []dataflow.Record) []dataflow.Record {
				out := make([]dataflow.Record, 0, 2*len(rs))
				for _, r := range rs {
					v, _ := r.Value.(float64)
					out = append(out, dataflow.Record{Key: r.Key, Value: v / 2}, dataflow.Record{Key: (r.Key + 3) % n, Value: v / 2})
				}
				return out
			})
		joined := contribs
		if fan != nil {
			joined = dataflow.Zip(fmt.Sprintf("joined@%d", it), dataflow.OpLight, contribs, fan,
				func(_ int, cs, fs []dataflow.Record) []dataflow.Record {
					return append(append([]dataflow.Record(nil), cs...), fs...)
				})
			h.track(joined)
		}
		sums := joined.ReduceByKey(fmt.Sprintf("sums@%d", it), cachedParts, add)
		newRanks := sums.Map(fmt.Sprintf("ranks@%d", it), func(r dataflow.Record) dataflow.Record {
			v, _ := r.Value.(float64)
			return dataflow.Record{Key: r.Key, Value: 0.15 + 0.85*v}
		})
		stats := newRanks.ReduceByKey(fmt.Sprintf("stats@%d", it), cachedParts/2, add)
		newNorm := stats.Map(fmt.Sprintf("norm@%d", it), func(r dataflow.Record) dataflow.Record { return r })
		if norm != nil {
			newNorm = dataflow.Zip(fmt.Sprintf("norm@%d", it), dataflow.OpLight, stats, norm,
				func(_ int, ss, _ []dataflow.Record) []dataflow.Record { return ss })
		}
		newFan := newNorm.ReduceByKey(fmt.Sprintf("fan@%d", it), cachedParts, add)
		h.track(contribs, sums, newRanks, stats, newNorm, newFan)

		newFan.Count()
		h.randomEvent(true)
		if h.rng.Intn(2) == 0 {
			newRanks.Count()
			h.randomEvent(true)
		}
		old = append(old, ranks)
		if len(old) > 2 {
			old[len(old)-3].Release() // cleans the shuffles computed from it
			h.steps["release"]++
			h.check("release")
		}
		ranks, norm, fan = newRanks, newNorm, newFan
	}
}

func cachedSeed(t *testing.T) int64 {
	if v := os.Getenv("BLAZE_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("BLAZE_CHAOS_SEED: %v", err)
		}
		return n
	}
	return 1
}

// TestCachedCostsEqualFresh is the differential property test. The seed
// is the chaos soak's, BLAZE_CHAOS_SEED (the nightly workflow randomizes
// it);
// every failure message carries the seed and the step counts so far.
func TestCachedCostsEqualFresh(t *testing.T) {
	VerifyCachedCosts(true)
	defer VerifyCachedCosts(false)
	base := cachedSeed(t)
	rounds := 9
	if testing.Short() {
		rounds = 2
	}
	total := make(map[string]int)
	for r := 0; r < rounds; r++ {
		seed := base + int64(r)
		mk := []func() *Controller{NewBlaze, NewBlazeMemOnly, NewCostAware}[r%3]
		windowed := r%2 == 1
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ctl := mk()
			h := &cachedHarness{t: t, rng: rand.New(rand.NewSource(seed)), ctl: ctl,
				ctx: dataflow.NewContext(), steps: make(map[string]int)}
			c, err := engine.NewCluster(engine.Config{
				Executors: cachedExecs,
				// Parallel: the widening shuffle lets the estimator read a
				// column homed on another executor even across a complete
				// shuffle (when its parent is dead at the horizon), and the
				// engine's parallel-eligibility gate must run such a stage
				// sequentially; under -race a gap shows as a data race.
				Parallelism:       8,
				MemoryPerExecutor: 6 * 1024,
				Params:            costmodel.Default(),
				Controller:        ctl,
				Hook:              h,
			}, h.ctx)
			if err != nil {
				t.Fatal(err)
			}
			h.c = c
			h.run(7, windowed)
			met := c.Finish()
			if met.Evictions == 0 {
				t.Errorf("no evictions: the run never exercised the victim order under pressure")
			}
			for k, v := range h.steps {
				total[k] += v
			}
		})
	}
	if testing.Short() || base != 1 {
		return // the step mix is only pinned for the default seed
	}
	for _, kind := range []string{"drop", "spill", "promote", "memory put", "disk put", "observe", "access",
		"bucket loss", "shuffle loss", "block loss", "stage advance", "executor death", "restore", "skeleton",
		"task-path registration", "snapshot", "window", "release"} {
		if total[kind] == 0 {
			t.Errorf("no %q step ran in %d rounds from seed %d: the property was not exercised for it", kind, rounds, base)
		}
	}
}

// pageRankStream runs a sliding PageRank stream of the given number of
// windows under ctl on a four-executor cluster small enough to evict,
// calling each after every window. The cluster is left open.
func pageRankStream(t *testing.T, ctl *Controller, windows int, each func(w int)) *engine.Cluster {
	t.Helper()
	ctx := dataflow.NewContext()
	c, err := engine.NewCluster(engine.Config{
		Executors:         4,
		Parallelism:       1,
		MemoryPerExecutor: 96 * 1024,
		Params:            costmodel.Default(),
		Controller:        ctl,
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	step := graphx.PageRankStream(graphx.PageRankStreamConfig{
		Graph: datagen.GraphSpec{Seed: 11, Vertices: 1000, AvgDegree: 8},
		Parts: streamParts, ItersPerWindow: 3,
	})
	for w := 1; w <= windows; w++ {
		c.StartWindow()
		step(ctx, w)
		if each != nil {
			each(w)
		}
	}
	return c
}

const streamParts = 16

// TestCostMemoStaysBounded runs a 10-window sliding PageRank stream and
// checks that the estimators' memos hold one epoch's working set, not the
// stream's history of them: entries an epoch change invalidates are dead
// (an older generation), so what is live is bounded by columns × live
// horizons per lineage node, and the arrays they sit in are reused by
// the next generation rather than added to. (Eq. 4 walks retired
// ancestors too, so the working set itself follows the lineage's length;
// it is the per-node figures that must not grow.)
func TestCostMemoStaysBounded(t *testing.T) {
	perNode := make([]float64, 11)
	capPerNode := make([]float64, 11)
	ctl := NewBlaze()
	c := pageRankStream(t, ctl, 10, func(w int) {
		held, capacity, horizons := 0, 0, make(map[int]bool)
		for _, e := range append([]*Estimator{ctl.est}, ctl.perEst...) {
			capacity += cap(e.cells)
			for _, m := range e.memo {
				for _, s := range m.slots {
					if s.gen != e.gen {
						continue
					}
					for _, c := range e.cells[s.off : s.off+s.size] {
						if c.set {
							held++
							horizons[s.horizon] = true
						}
					}
				}
			}
		}
		nodes := len(ctl.lin.nodes)
		perNode[w] = float64(held) / float64(nodes)
		capPerNode[w] = float64(capacity) / float64(nodes)
		// A (node, partition, horizon) is held at most once per estimator
		// that prices its column: the partition's home executor's and the
		// driver's. The horizons of one job are the current job, the next
		// and the next referencing one.
		if len(horizons) > 3 {
			t.Errorf("window %d: entries for %d horizons held, at most 3 are live", w, len(horizons))
		}
		if limit := 2 * nodes * streamParts * 3; held > limit {
			t.Errorf("window %d: %d entries held for %d nodes, limit %d", w, held, nodes, limit)
		}
	})
	if met := c.Finish(); met.Evictions == 0 {
		t.Fatal("no evictions: the stream never priced a victim")
	}
	t.Logf("memo entries per lineage node after windows 1..10: %.1f", perNode[1:])
	t.Logf("memo cells per lineage node after windows 1..10: %.1f", capPerNode[1:])
	if perNode[2] == 0 {
		t.Fatal("no memo entries after window 2")
	}
	if perNode[10] > 2*perNode[2] {
		t.Errorf("memo holds %.1f entries per lineage node after window 10, %.1f after window 2: stale epochs accumulate", perNode[10], perNode[2])
	}
	// Without slot reuse every epoch would add arrays for every node it
	// prices, and the cells per node would grow with the epochs seen.
	if capPerNode[10] > 2*capPerNode[2] {
		t.Errorf("memo arrays hold %.1f cells per lineage node after window 10, %.1f after window 2: generations do not reuse their slots", capPerNode[10], capPerNode[2])
	}
}

// TestRecoveryCostAllocFree pins the Eq. 4 recursion at zero allocations
// once warm: after an observation bumps one column, victimOrder re-prices
// the executor's resident blocks of that column through the estimator's
// memo, the reference offsets and the retirement marks without hashing
// a key or building a slice.
func TestRecoveryCostAllocFree(t *testing.T) {
	ctl := NewBlaze()
	c := pageRankStream(t, ctl, 10, nil)
	defer c.Finish()
	ex := c.Executors()[0]
	var bump []storage.BlockID // one resident block per column, priced by Eq. 4
	seen := make(map[int]bool)
	for _, m := range ctl.victimOrder(ex) {
		f := ctl.factsFor(ctl.victims[ex.ID], m.ID.Dataset)
		if f.node != nil && f.live && m.Cost > 0 && !seen[m.ID.Partition] {
			seen[m.ID.Partition] = true
			bump = append(bump, m.ID)
		}
	}
	if len(bump) == 0 {
		t.Fatal("no resident block is priced by the recursion: nothing to measure")
	}
	sizes := make([]int64, len(bump))
	costs := make([]time.Duration, len(bump))
	for i, id := range bump {
		n := ctl.lin.Node(id.Dataset)
		sizes[i], _ = ctl.lin.PartitionSize(n, id.Partition)
		costs[i], _ = ctl.lin.PartitionCost(n, id.Partition)
	}
	i := 0
	reprice := func() {
		k := i % len(bump)
		i++
		ctl.lin.ObservePartition(bump[k].Dataset, bump[k].Partition, sizes[k], costs[k])
		ctl.victimOrder(ex)
	}
	for range bump {
		reprice() // warm: every column's memo cells and scratch slices exist
	}
	if allocs := testing.AllocsPerRun(100, reprice); allocs != 0 {
		t.Errorf("re-pricing after a column bump allocates %.0f times per call, want 0", allocs)
	}
}
