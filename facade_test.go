package blaze_test

// Black-box tests for the public facade: the system-id registry runs
// end-to-end, the ILP window is reachable at every documented value, and
// the re-exported fault/event-log types drive a faulted run without
// naming internal packages.

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"blaze"
	"blaze/internal/cachepolicy"
)

// TestAllSystemIDsRunEndToEnd runs every declared SystemID — the twelve
// named systems plus one PolicySystem id per registered eviction policy —
// on a tiny workload, and checks the unknown-id error path.
func TestAllSystemIDsRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full system sweep skipped in -short mode")
	}
	type sysCase struct {
		sys     blaze.SystemID
		wantErr bool
	}
	tests := []sysCase{
		{blaze.SysSparkMem, false},
		{blaze.SysSparkMemDisk, false},
		{blaze.SysSparkAlluxio, false},
		{blaze.SysLRC, false},
		{blaze.SysMRD, false},
		{blaze.SysLRCMem, false},
		{blaze.SysMRDMem, false},
		{blaze.SysAutoCache, false},
		{blaze.SysCostAware, false},
		{blaze.SysBlaze, false},
		{blaze.SysBlazeMem, false},
		{blaze.SysBlazeNoProfile, false},
		{"no-such-system", true},
		{blaze.PolicySystem("no-such-policy"), true},
	}
	for _, p := range cachepolicy.Names() {
		tests = append(tests, sysCase{blaze.PolicySystem(p), false})
	}
	// A system the table lists must be swept here too.
	for _, s := range blaze.Systems() {
		if !slices.Contains(tests, sysCase{s.ID, false}) {
			t.Errorf("system %q is in the system table but not in this test's list", s.ID)
		}
	}
	for _, tc := range tests {
		t.Run(string(tc.sys), func(t *testing.T) {
			r, err := blaze.Run(blaze.RunConfig{
				System:   tc.sys,
				Workload: blaze.LR,
				Scale:    0.5,
			})
			if tc.wantErr {
				if err == nil {
					t.Fatal("expected an error for an unknown id")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if r.Metrics.ACT <= 0 || r.Metrics.Jobs == 0 {
				t.Fatalf("degenerate run: ACT=%v jobs=%d", r.Metrics.ACT, r.Metrics.Jobs)
			}
		})
	}
}

// TestILPWindowCurrentJobOnly is the end-to-end acceptance test for the
// ILPWindow redesign: a window-0 run must actually reach the ILP.
func TestILPWindowCurrentJobOnly(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	r, err := blaze.Run(blaze.RunConfig{
		System:    blaze.SysBlaze,
		Workload:  blaze.LR,
		ILPWindow: blaze.ILPWindowCurrentJobOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics.ILPSolves == 0 {
		t.Fatal("window-0 run never reached the ILP")
	}
}

func TestParseFaultClassesFacade(t *testing.T) {
	got, err := blaze.ParseFaultClasses("exec-death,bucket")
	if err != nil {
		t.Fatal(err)
	}
	want := []blaze.FaultClass{blaze.FaultExecutorDeath, blaze.FaultBucketLoss}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseFaultClasses = %v, want %v", got, want)
	}
	all, err := blaze.ParseFaultClasses("all")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all, blaze.AllFaultClasses()) {
		t.Fatalf("\"all\" = %v, want %v", all, blaze.AllFaultClasses())
	}
	if _, err := blaze.ParseFaultClasses("meteor"); err == nil {
		t.Fatal("unknown class must error")
	}
}

// TestFacadeFaultInjection drives the new fault classes purely through
// the facade types: executor deaths and bucket losses injected into a
// real workload, with the event log round-tripped through JSON.
func TestFacadeFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	log := blaze.NewEventLog()
	r, err := blaze.Run(blaze.RunConfig{
		System:   blaze.SysSparkMemDisk,
		Workload: blaze.LR,
		EventLog: log,
		Faults: &blaze.FaultConfig{
			Seed:    3,
			Classes: []blaze.FaultClass{blaze.FaultExecutorDeath, blaze.FaultBucketLoss},
			Every:   2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := r.Metrics
	if m.FaultsInjected == 0 {
		t.Fatal("no faults injected")
	}
	if m.ExecutorDeaths+m.FaultBucketsLost != m.FaultsInjected {
		t.Fatalf("injected %d faults but deaths=%d buckets=%d",
			m.FaultsInjected, m.ExecutorDeaths, m.FaultBucketsLost)
	}
	if m.ExecutorDeaths > 0 && m.MigratedPartitions == 0 {
		t.Fatal("executor died but no partitions migrated")
	}
	if m.TotalFaultRecovery() <= 0 {
		t.Fatal("no fault recovery attributed")
	}

	var buf bytes.Buffer
	if err := log.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := blaze.ReadEventLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != log.Len() {
		t.Fatalf("JSON round trip lost events: %d -> %d", log.Len(), back.Len())
	}
	sum := blaze.SummarizeEventLog(back)
	faults, migrated := 0, 0
	for _, j := range sum.Jobs {
		faults += j.Faults
		migrated += j.Migrated
	}
	if faults != m.FaultsInjected {
		t.Fatalf("summary counted %d faults, metrics %d", faults, m.FaultsInjected)
	}
	if migrated != m.MigratedPartitions {
		t.Fatalf("summary counted %d migrated slots, metrics %d", migrated, m.MigratedPartitions)
	}
}
