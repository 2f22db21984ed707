package metrics

import (
	"reflect"
	"testing"
	"time"
)

func TestBreakdownAddAndTotals(t *testing.T) {
	var b Breakdown
	b.Add(Breakdown{Compute: 5 * time.Second, Shuffle: 2 * time.Second, DiskIO: 3 * time.Second, Recompute: time.Second})
	b.Add(Breakdown{Compute: 1 * time.Second})
	if b.Total() != 11*time.Second {
		t.Fatalf("total = %v, want 11s", b.Total())
	}
	if b.ComputeShuffle() != 8*time.Second {
		t.Fatalf("compute+shuffle = %v, want 8s", b.ComputeShuffle())
	}
	if b.Recompute != time.Second {
		t.Fatalf("recompute = %v", b.Recompute)
	}
}

func TestAppAggregation(t *testing.T) {
	a := NewApp(3)
	a.Executors[0].Breakdown.Compute = time.Second
	a.Executors[2].Breakdown.DiskIO = 2 * time.Second
	a.Executors[1].EvictedBytes = 100
	a.Executors[2].EvictedBytes = 50
	tb := a.TotalBreakdown()
	if tb.Compute != time.Second || tb.DiskIO != 2*time.Second {
		t.Fatalf("total breakdown = %+v", tb)
	}
}

func TestAddRecomputeGrowsSeries(t *testing.T) {
	a := NewApp(1)
	a.AddRecompute(3, 2*time.Second)
	a.AddRecompute(1, time.Second)
	a.AddRecompute(3, time.Second)
	if len(a.RecomputeByJob) != 4 {
		t.Fatalf("series length = %d, want 4", len(a.RecomputeByJob))
	}
	if a.RecomputeByJob[3] != 3*time.Second || a.RecomputeByJob[1] != time.Second {
		t.Fatalf("series = %v", a.RecomputeByJob)
	}
	if a.TotalRecompute() != 4*time.Second {
		t.Fatalf("total recompute = %v", a.TotalRecompute())
	}
}

// TestCloneSharesNothing: a clone reads the same as its original, and no
// write to the original's slices or maps reaches it. Every slice and map
// field holds pointer-free elements, which is what lets Clone copy one
// level deep.
func TestCloneSharesNothing(t *testing.T) {
	// pointerFree: numbers, bools and strings (immutable), and arrays
	// and structs of them.
	var pointerFree func(t reflect.Type) bool
	pointerFree = func(t reflect.Type) bool {
		switch t.Kind() {
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if !pointerFree(t.Field(i).Type) {
					return false
				}
			}
		case reflect.Array:
			return pointerFree(t.Elem())
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface, reflect.Chan, reflect.Func, reflect.UnsafePointer:
			return false
		}
		return true
	}
	at := reflect.TypeOf(App{})
	for i := 0; i < at.NumField(); i++ {
		f := at.Field(i)
		if !f.IsExported() {
			continue
		}
		switch f.Type.Kind() {
		case reflect.Slice:
			if !pointerFree(f.Type.Elem()) {
				t.Errorf("App.%s holds elements with pointers: Clone would share them", f.Name)
			}
		case reflect.Map:
			if !pointerFree(f.Type.Key()) || !pointerFree(f.Type.Elem()) {
				t.Errorf("App.%s holds entries with pointers: Clone would share them", f.Name)
			}
		default:
			if !pointerFree(f.Type) {
				t.Errorf("App.%s (%s) holds pointers: Clone would share them", f.Name, f.Type)
			}
		}
	}

	a := NewApp(2)
	a.Executors[1].Tasks = 3
	a.AddRecompute(1, time.Second)
	a.FaultRecoveryByJob = []time.Duration{time.Millisecond}
	a.FaultRecoveryByClass = map[string]time.Duration{"exec": time.Second}
	a.CacheHits = 4
	c := a.Clone()
	if !reflect.DeepEqual(c, a) {
		t.Fatalf("clone %+v differs from %+v", c, a)
	}
	a.Executors[1].Tasks++
	a.RecomputeByJob[1]++
	a.FaultRecoveryByJob[0]++
	a.FaultRecoveryByClass["exec"]++
	a.FaultRecoveryByClass["block"] = 1
	if c.Executors[1].Tasks != 3 || c.RecomputeByJob[1] != time.Second || c.FaultRecoveryByJob[0] != time.Millisecond ||
		len(c.FaultRecoveryByClass) != 1 || c.FaultRecoveryByClass["exec"] != time.Second {
		t.Fatalf("writes to the original reached the clone: %+v", c)
	}
}
