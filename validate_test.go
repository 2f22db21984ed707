package blaze_test

import (
	"strings"
	"testing"

	"blaze"
)

// TestRunConfigValidate table-tests the exported validation against the
// knobs external input (flags, HTTP payloads) can get wrong. Run and
// Server.Submit both route through Validate, so an invalid config must
// fail before any cluster is built.
func TestRunConfigValidate(t *testing.T) {
	valid := blaze.RunConfig{System: blaze.SysBlaze, Workload: blaze.PR}
	cases := []struct {
		name    string
		mutate  func(*blaze.RunConfig)
		wantErr string
	}{
		{"valid defaults", func(c *blaze.RunConfig) {}, ""},
		{"valid explicit", func(c *blaze.RunConfig) {
			c.Executors = 4
			c.Cores = 2
			c.Scale = 0.5
			c.ProfileScale = 0.1
		}, ""},
		{"negative executors", func(c *blaze.RunConfig) { c.Executors = -1 }, "Executors"},
		{"negative cores", func(c *blaze.RunConfig) { c.Cores = -2 }, "Cores"},
		{"negative parallelism", func(c *blaze.RunConfig) { c.Parallelism = -1 }, "Parallelism"},
		{"negative memory", func(c *blaze.RunConfig) { c.MemoryPerExecutor = -1 }, "MemoryPerExecutor"},
		{"negative memory fraction", func(c *blaze.RunConfig) { c.MemoryFraction = -0.5 }, "MemoryFraction"},
		{"negative scale", func(c *blaze.RunConfig) { c.Scale = -1 }, "Scale"},
		{"scale above one", func(c *blaze.RunConfig) { c.Scale = 2 }, "RegisterWorkload"},
		{"profile scale above one", func(c *blaze.RunConfig) { c.ProfileScale = 1.5 }, "ProfileScale"},
		{"negative disk capacity", func(c *blaze.RunConfig) { c.DiskCapacity = -1 }, "DiskCapacity"},
		{"unknown system", func(c *blaze.RunConfig) { c.System = "nope" }, "unknown system"},
		{"unknown policy", func(c *blaze.RunConfig) { c.System = blaze.PolicySystem("nope") }, "unknown eviction policy"},
		{"unknown workload", func(c *blaze.RunConfig) { c.Workload = "nope" }, "workload"},
		{"broken cost params", func(c *blaze.RunConfig) {
			p := blaze.DefaultCostParams()
			p.DiskReadBps = -1
			c.CostParams = p
		}, "disk throughput"},
		{"broken faults", func(c *blaze.RunConfig) {
			c.Faults = &blaze.FaultConfig{Every: -1}
		}, "Every"},
		{"21 retries at the default backoff", resilience(t, "retries=21"), ""},
		{"retry backoff past an hour", resilience(t, "retries=40"), "backoff"},
		{"retry backoff wraps", resilience(t, "retries=64"), "backoff"},
		{"fetch retry backoff past an hour", resilience(t, "retries=-1,fetch-retries=22"), "backoff"},
		{"base backoff past an hour", resilience(t, "backoff=2500000h"), "backoff"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want it to mention %q", err, tc.wantErr)
			}
			// Run must refuse the same configs (workload errors aside,
			// Run surfaces them identically through Validate).
			if _, runErr := blaze.Run(cfg); runErr == nil {
				t.Fatal("Run accepted a config Validate rejects")
			}
		})
	}
	// StreamConfig carries its own Scale; the same rule applies.
	if _, err := blaze.RunStream(blaze.StreamConfig{Workload: blaze.StreamPR, Scale: 2}); err == nil ||
		!strings.Contains(err.Error(), "RegisterWorkload") {
		t.Fatalf("RunStream with Scale 2 = %v, want an error pointing at RegisterWorkload", err)
	}
}

// resilience mutates a config's Resilience to the parsed knobs, as
// blazerun's -resilience flag and blazed's POST body set it.
func resilience(t *testing.T, spec string) func(*blaze.RunConfig) {
	r, err := blaze.ParseResilience(spec)
	if err != nil {
		t.Fatal(err)
	}
	return func(c *blaze.RunConfig) { c.Resilience = r }
}

func TestCostParamsIsZero(t *testing.T) {
	var zero blaze.CostParams
	if !zero.IsZero() {
		t.Fatal("zero CostParams should report IsZero")
	}
	if blaze.DefaultCostParams().IsZero() {
		t.Fatal("populated CostParams should not report IsZero")
	}
	// Any single populated field makes it non-zero — the reflect-based
	// implementation can never silently exclude a newly added field the
	// way the old hand-written list could.
	p := zero
	p.SerFactor = 1
	if p.IsZero() {
		t.Fatal("CostParams with one field set should not report IsZero")
	}
}
