package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/engine"
)

// shareCluster is a one-executor MEM_ONLY cluster whose memory holds
// exactly one of the blocks the share tests cache, with poisoning (and
// so the share guard) on for the rest of the test.
func shareCluster(t *testing.T) (*engine.Cluster, *dataflow.Context) {
	t.Helper()
	poisonReleased = true
	t.Cleanup(func() { poisonReleased = false })
	ctx := dataflow.NewContext()
	c, err := engine.NewCluster(engine.Config{
		Executors:         1,
		MemoryPerExecutor: 3 * denseSize / 2,
		Params:            costmodel.Default(),
		Controller:        engine.NewSparkMemOnly(),
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, ctx
}

// denseRecs is the length of a typedSource partition, and denseSize its
// accounted size.
const (
	denseRecs = 100
	denseSize = 24 + 24*denseRecs
)

// typedSource is a cached one-partition source of denseRecs float64
// records, value base+i, computed columnar by its kernel.
func typedSource(ctx *dataflow.Context, name string, base float64) *dataflow.Dataset {
	rows := func(int) []dataflow.Record {
		out := make([]dataflow.Record, denseRecs)
		for i := range out {
			out[i] = dataflow.Record{Key: int64(i), Value: base + float64(i)}
		}
		return out
	}
	return ctx.Source(name, 1, rows).WithBatchKernel(func(part int, _ []*dataflow.Batch) *dataflow.Batch {
		return dataflow.FromRecords(rows(part))
	}).Cache()
}

// TestSharedBlockOutlivesEviction: a task reads a cached block, then a
// nested materialize of its other input admits a block that evicts the
// first while the task still holds its share. The store releases only its
// own share, so the task's input keeps its values; had the eviction
// returned the arrays to the pools, poisoning would show here.
func TestSharedBlockOutlivesEviction(t *testing.T) {
	c, ctx := shareCluster(t)
	a := typedSource(ctx, "a", 1000)
	b := typedSource(ctx, "b", 0)
	sums := func(_ int, l, r []dataflow.Record) []dataflow.Record {
		out := make([]dataflow.Record, len(l))
		for i := range l {
			out[i] = dataflow.Record{Key: l[i].Key, Value: l[i].Value.(float64) + r[i].Value.(float64)}
		}
		return out
	}
	zip := dataflow.Zip("sum", dataflow.OpLight, a, b, sums).WithBatchKernel(func(_ int, ins []*dataflow.Batch) *dataflow.Batch {
		l, r := ins[0].Col.(*dataflow.Dense[float64]), ins[1].Col.(*dataflow.Dense[float64])
		out := dataflow.NewBatch(len(l.Vals))
		out.NonNil = true
		oc := dataflow.NewDense[float64](len(l.Vals))
		out.Col = oc
		for i, v := range l.Vals {
			out.Keys = append(out.Keys, ins[0].Keys[i])
			oc.Vals = append(oc.Vals, v+r.Vals[i])
		}
		return out
	})
	a.Count() // a is resident
	got := zip.Collect()[0]
	if m := c.Metrics(); m.CacheHits != 1 || m.Evictions != 1 {
		t.Fatalf("the zip must hit a and then evict it for b: %d hits, %d evictions", m.CacheHits, m.Evictions)
	}
	for i, r := range got {
		if want := 1000 + 2*float64(i); r.Value != want {
			t.Fatalf("record %d = %v, want %v: the evicted block's arrays were released under its reader", i, r.Value, want)
		}
	}
}

// TestMutatedShareIsCaught: a kernel that writes into its input, a
// share of a cached block, breaks the share rule; the guard catches it
// when the task releases the input.
func TestMutatedShareIsCaught(t *testing.T) {
	_, ctx := shareCluster(t)
	a := typedSource(ctx, "a", 0)
	bad := a.Map("bad", func(r dataflow.Record) dataflow.Record { return r }).WithBatchKernel(func(_ int, ins []*dataflow.Batch) *dataflow.Batch {
		ins[0].Col.(*dataflow.Dense[float64]).Vals[0] = 42
		return ins[0].CloneExact()
	})
	a.Count()
	r := func() (r any) {
		defer func() { r = recover() }()
		bad.Count()
		return nil
	}()
	if msg := fmt.Sprint(r); !strings.Contains(msg, "modified a shared batch") {
		t.Fatalf("a kernel wrote into a cached block: panic %v, want the share guard's", r)
	}
}
