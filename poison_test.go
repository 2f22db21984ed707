package blaze_test

import (
	"math"
	"testing"
	_ "unsafe" // go:linkname

	"blaze/internal/dataflow"
)

// poisonReleased is internal/dataflow's test-only switch: while it is
// set, every array released to the slice pools is overwritten with a
// sentinel (NaN, math.MinInt64) first. A batch read after its release —
// a cache hit that skipped its copy, a store-owned batch released while
// another owner still holds it — then reads garbage, and the identity
// checks fail instead of passing on stale values that happen to still be
// right.
//
//go:linkname poisonReleased blaze/internal/dataflow.poisonReleased
var poisonReleased bool

// poisonPools turns poisoning on for the rest of the test.
func poisonPools(t *testing.T) {
	poisonReleased = true
	t.Cleanup(func() { poisonReleased = false })
}

// declineKernels is internal/dataflow's other test-only switch: while it
// is set, every dataset computes through its row function, so a run
// stays in row form — the reference arm every kernel is compared
// against.
//
//go:linkname declineKernels blaze/internal/dataflow.declineKernels
var declineKernels bool

// withKernelsDeclined runs fn as the reference arm.
func withKernelsDeclined(fn func()) {
	declineKernels = true
	defer func() { declineKernels = false }()
	fn()
}

// TestPoisonReachesThePools: the switch above is dataflow's, so a
// released array reads as the sentinel.
func TestPoisonReachesThePools(t *testing.T) {
	poisonPools(t)
	f := append(dataflow.GetF64Slice(2), 1, 2)
	k := append(dataflow.GetI64Slice(2), 1, 2)
	dataflow.PutF64Slice(f)
	dataflow.PutI64Slice(k)
	if !math.IsNaN(f[1]) || k[1] != math.MinInt64 {
		t.Fatalf("released arrays read %v and %v, want NaN and MinInt64", f, k)
	}
}
