package main

import (
	"testing"

	"blaze"
)

// TestBothPoliciesEvict keeps the example meaningful: a comparison of
// eviction policies on a run that evicts nothing compares nothing.
func TestBothPoliciesEvict(t *testing.T) {
	register()
	for _, name := range []string{"lru", "largest-first"} {
		if res := run(blaze.PolicySystem(name)); res.Metrics.Evictions == 0 {
			t.Errorf("%s: the run evicted nothing; shrink MemoryPerExecutor", name)
		}
	}
}
