package blaze

// White-box tests for the facade internals: withDefaults, the
// buildSystem recipes, and the ILPWindow plumbing (the regression
// test for the old int field whose documented 0 value was remapped to 1
// before it could reach the controller).

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"blaze/internal/checkpoint"
	"blaze/internal/core"
	"blaze/internal/dataflow"
)

func TestWithDefaults(t *testing.T) {
	d := RunConfig{}.withDefaults()
	if d.Executors != 8 {
		t.Fatalf("default Executors = %d, want 8", d.Executors)
	}
	if d.Scale != 1.0 {
		t.Fatalf("default Scale = %v, want 1.0", d.Scale)
	}
	if d.ProfileScale != 0.02 {
		t.Fatalf("default ProfileScale = %v, want 0.02", d.ProfileScale)
	}
	if d.ILPWindow != ILPWindowDefault {
		t.Fatalf("defaults must leave ILPWindow at ILPWindowDefault, got %d", d.ILPWindow)
	}

	c := RunConfig{
		Executors:    3,
		Scale:        0.5,
		ProfileScale: 0.1,
		ILPWindow:    ILPWindowCurrentJobOnly,
	}.withDefaults()
	if c.Executors != 3 || c.Scale != 0.5 || c.ProfileScale != 0.1 {
		t.Fatalf("explicit values clobbered: %+v", c)
	}
	if c.ILPWindow != ILPWindowCurrentJobOnly {
		t.Fatal("ILPWindowCurrentJobOnly must survive withDefaults (the old int field remapped 0 to 1)")
	}
}

func TestBuildSystemRecipes(t *testing.T) {
	spec, err := Workload(LR)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		sys                          SystemID
		annotated, alluxio, profiled bool
	}{
		{SysSparkMem, true, false, false},
		{SysSparkMemDisk, true, false, false},
		{SysSparkAlluxio, true, true, false},
		{SysLRC, true, false, false},
		{SysMRD, true, false, false},
		{SysLRCMem, true, false, false},
		{SysMRDMem, true, false, false},
		{SysAutoCache, false, false, true},
		{SysCostAware, false, false, true},
		{SysBlaze, false, false, true},
		{SysBlazeMem, false, false, true},
		{SysBlazeNoProfile, false, false, false},
		{PolicySystem("tinylfu"), true, false, false},
	}
	for _, tc := range tests {
		t.Run(string(tc.sys), func(t *testing.T) {
			sys, err := buildSystem(RunConfig{System: tc.sys}.withDefaults(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if sys.ctl == nil {
				t.Fatal("no controller built")
			}
			if sys.annotated != tc.annotated || sys.alluxio != tc.alluxio || sys.profiled != tc.profiled {
				t.Fatalf("spec = %+v, want annotated=%v alluxio=%v profiled=%v",
					sys, tc.annotated, tc.alluxio, tc.profiled)
			}
		})
	}
	if _, err := buildSystem(RunConfig{System: "nope"}.withDefaults(), spec); err == nil {
		t.Fatal("unknown system must error")
	}
	if _, err := buildSystem(RunConfig{System: PolicySystem("nope")}.withDefaults(), spec); err == nil {
		t.Fatal("unknown eviction policy must error")
	}
}

// TestCalibrationKeyCoversCoresAndParams is the regression test for the
// calibration-cache key: it used to cover only (workload, executors,
// scale), so a later run with a different core count or cost model
// silently reused the first run's measured peak. Every distinguishing
// input must produce its own cache entry.
func TestCalibrationKeyCoversCoresAndParams(t *testing.T) {
	spec, err := Workload(LR)
	if err != nil {
		t.Fatal(err)
	}
	entries := func() int {
		calMu.Lock()
		defer calMu.Unlock()
		return len(calCache)
	}
	base := EvalParams(spec.SerFactor)
	slower := base
	slower.SerializeBps = base.SerializeBps / 2

	before := entries()
	if _, err := calibrateMemory(spec, 4, 2, 0.05, base); err != nil {
		t.Fatal(err)
	}
	if _, err := calibrateMemory(spec, 4, 4, 0.05, base); err != nil {
		t.Fatal(err)
	}
	if _, err := calibrateMemory(spec, 4, 2, 0.05, slower); err != nil {
		t.Fatal(err)
	}
	if got := entries() - before; got != 3 {
		t.Fatalf("3 distinct (cores, params) configurations produced %d cache entries; the key aliases them", got)
	}
	// Same configuration again must hit the cache, not add an entry.
	if _, err := calibrateMemory(spec, 4, 2, 0.05, base); err != nil {
		t.Fatal(err)
	}
	if got := entries() - before; got != 3 {
		t.Fatalf("repeat calibration added an entry (now %d); key is unstable", got)
	}
}

// TestILPWindowReachesController: every Blaze-family system hands the
// ILPWindow knob to its controller, built for Run and Server.Submit or
// for a session (a build without a workload).
func TestILPWindowReachesController(t *testing.T) {
	spec, err := Workload(LR)
	if err != nil {
		t.Fatal(err)
	}
	builds := map[string]func(SystemID, int) (systemSpec, error){
		"run": func(sys SystemID, w int) (systemSpec, error) {
			return buildSystem(RunConfig{System: sys, ILPWindow: w}.withDefaults(), spec)
		},
		"session": func(sys SystemID, w int) (systemSpec, error) {
			return buildSystem(SessionConfig{System: sys, ILPWindow: w}.runConfig(), WorkloadSpec{})
		},
	}
	for path, build := range builds {
		for _, sys := range []SystemID{SysBlaze, SysBlazeMem, SysBlazeNoProfile} {
			t.Run(path+"/"+string(sys), func(t *testing.T) {
				for _, c := range []struct{ window, want int }{{ILPWindowDefault, 1}, {ILPWindowCurrentJobOnly, 0}, {3, 3}} {
					s, err := build(sys, c.window)
					if err != nil {
						t.Fatal(err)
					}
					if got := s.ctl.(*core.Controller).Window(); got != c.want {
						t.Errorf("ILPWindow %d reached the controller as %d, want %d", c.window, got, c.want)
					}
				}
			})
		}
	}
}

// TestRunRemovesBlockFilesOnEveryExit: a RealBytes run's block-file
// directory must not outlive Run, whichever way Run returns — validation
// error, refused submission, failed session or success.
func TestRunRemovesBlockFilesOnEveryExit(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	storageDirs := func() []string {
		dirs, err := filepath.Glob(filepath.Join(tmp, "blaze-storage-*"))
		if err != nil {
			t.Fatal(err)
		}
		return dirs
	}
	// The driver spills a cached dataset through the real stores, notes
	// that the directory exists while it runs, and fails on request.
	var sawDir, fail bool
	const id WorkloadID = "realbytes-exit-paths"
	if err := RegisterWorkload(WorkloadSpec{ID: id, SerFactor: 1, Plain: func(ctx *dataflow.Context, _ float64) {
		ds := ctx.Source("big", 4, func(part int) []dataflow.Record {
			out := make([]dataflow.Record, 200)
			for i := range out {
				out[i] = dataflow.Record{Key: int64(part*200 + i), Value: float64(i)}
			}
			return out
		})
		ds.Cache()
		ds.Count()
		files, _ := filepath.Glob(filepath.Join(tmp, "blaze-storage-*", "exec-*", "rdd_*"))
		sawDir = len(files) > 0
		if fail {
			ds.Map("explode", func(dataflow.Record) dataflow.Record { panic("driver failed") }).Count()
		}
	}}); err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{System: SysSparkMemDisk, Workload: id, Executors: 2, MemoryPerExecutor: 2 << 10, RealBytes: true}

	check := func(exit string, wantErr bool, err error) {
		t.Helper()
		if (err != nil) != wantErr {
			t.Fatalf("%s: err = %v", exit, err)
		}
		if left := storageDirs(); len(left) != 0 {
			t.Fatalf("%s: block-file directory survived Run: %v", exit, left)
		}
	}

	bad := cfg
	bad.System = "no-such-system"
	_, err := Run(bad)
	check("validation error", true, err)

	p, err := planRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.sys.ctl = nil // the server refuses a submission without a controller
	_, err = p.run()
	check("failed submit", true, err)

	for _, fail = range []bool{true, false} {
		sawDir = false
		_, err = Run(cfg)
		check(map[bool]string{true: "failed session", false: "success"}[fail], fail, err)
		if !sawDir {
			t.Fatalf("fail=%v: the run wrote no block file under TMPDIR; the check is vacuous", fail)
		}
	}
}

// TestResumeKilledBeforeWALRenameResumesAgain kills a resume between the
// two steps that replace the WAL — the new one seeded beside the old,
// and its rename over it. The old WAL is the only copy of the events
// both retained checkpoints count on (a resume that truncated it in
// place and died re-seeding it would leave neither loadable), so it must
// be untouched, and a second resume must finish the stream bit-identical
// to one that never crashed.
func TestResumeKilledBeforeWALRenameResumesAgain(t *testing.T) {
	config := func(dir string, crashWindow int, log *EventLog) StreamConfig {
		return StreamConfig{Workload: StreamPR, Windows: 4, Scale: 0.25, Executors: 4, Parallelism: 1,
			MemoryPerExecutor: 1 << 20, EventLog: log, CheckpointDir: dir, CrashWindow: crashWindow}
	}
	baseLog := NewEventLog()
	base, err := RunStream(config("", 0, baseLog))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := RunStream(config(dir, 3, NewEventLog())); !errors.Is(err, ErrSessionCrashed) {
		t.Fatalf("crash run: got err %v, want ErrSessionCrashed", err)
	}
	walBefore, err := os.ReadFile(checkpoint.WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	// The first resume: checkpoint loaded, new WAL seeded — killed.
	rs, _, err := checkpoint.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	wal, err := seedWAL(dir, rs.Events)
	if err != nil {
		t.Fatal(err)
	}
	wal.Close()
	if walAfter, err := os.ReadFile(checkpoint.WALPath(dir)); err != nil || !bytes.Equal(walAfter, walBefore) {
		t.Fatalf("seeding the new WAL touched the old one (err %v, %d -> %d bytes)", err, len(walBefore), len(walAfter))
	}

	resLog := NewEventLog()
	res, err := ResumeStream(config(dir, 0, resLog))
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if !MetricsEqualDeterministic(base.Metrics, res.Metrics) {
		t.Errorf("resumed metrics differ from the uninterrupted run\nbase: %+v\nres:  %+v", base.Metrics, res.Metrics)
	}
	be, re := baseLog.Events(), resLog.Events()
	if len(be) != len(re) {
		t.Fatalf("event counts differ: base=%d resumed=%d", len(be), len(re))
	}
	for i := range be {
		if be[i] != re[i] {
			t.Fatalf("event %d differs:\nbase: %+v\nres:  %+v", i, be[i], re[i])
		}
	}
	for i := range base.Windows {
		if !base.Windows[i].EqualDeterministic(res.Windows[i]) {
			t.Errorf("window %d stats differ:\nbase: %+v\nres:  %+v", i+1, base.Windows[i], res.Windows[i])
		}
	}
	if _, err := os.Stat(checkpoint.WALPath(dir) + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the seeded WAL was not renamed into place: stat err %v", err)
	}
}
