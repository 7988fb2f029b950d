package job

import (
	"math"
	"testing"
)

func TestUtilAtTraceIndexing(t *testing.T) {
	j := New(1, "t", 4, 60, 0)
	j.CPUTrace = []float64{0.1, 0.2, 0.3}
	j.GPUTrace = []float64{0.5, 0.6, 0.7}
	cpu, gpu := j.UtilAt(0)
	if cpu != 0.1 || gpu != 0.5 {
		t.Errorf("t=0: %v/%v", cpu, gpu)
	}
	cpu, gpu = j.UtilAt(16) // second quantum
	if cpu != 0.2 || gpu != 0.6 {
		t.Errorf("t=16: %v/%v", cpu, gpu)
	}
	cpu, gpu = j.UtilAt(1e6) // past the end holds last
	if cpu != 0.3 || gpu != 0.7 {
		t.Errorf("past end: %v/%v", cpu, gpu)
	}
	cpu, gpu = j.UtilAt(-5)
	if cpu != 0.1 || gpu != 0.5 {
		t.Errorf("before start: %v/%v", cpu, gpu)
	}
}

func TestUtilAtEmptyTrace(t *testing.T) {
	j := New(1, "t", 4, 60, 0)
	cpu, gpu := j.UtilAt(10)
	if cpu != 0 || gpu != 0 {
		t.Error("empty trace should read zero")
	}
}

func TestTraceLen(t *testing.T) {
	if TraceLen(0) != 1 {
		t.Errorf("zero wall = %d quanta", TraceLen(0))
	}
	if TraceLen(15) != 2 {
		t.Errorf("15 s = %d quanta", TraceLen(15))
	}
	if TraceLen(3600) != 241 {
		t.Errorf("1 h = %d quanta, want 241", TraceLen(3600))
	}
}

func TestFlatTrace(t *testing.T) {
	tr := FlatTrace(0.42, 120)
	if len(tr) != TraceLen(120) {
		t.Fatalf("len = %d", len(tr))
	}
	for _, v := range tr {
		if v != 0.42 {
			t.Fatal("trace not flat")
		}
	}
}

func TestFingerprintHPLPhases(t *testing.T) {
	j := New(1, "x", 9216, 3600, 0)
	if err := j.ApplyFingerprint(FPHPL); err != nil {
		t.Fatal(err)
	}
	if j.Name != "hpl" {
		t.Errorf("name = %q", j.Name)
	}
	// Mid-run must be in the core phase at the §IV-2 utilizations.
	cpu, gpu := j.UtilAt(1800)
	if cpu != 0.33 || gpu != 0.79 {
		t.Errorf("core phase = %v/%v, want 0.33/0.79", cpu, gpu)
	}
	// The start is not the core phase.
	cpu0, gpu0 := j.UtilAt(0)
	if cpu0 == 0.33 && gpu0 == 0.79 {
		t.Error("ramp phase missing")
	}
	// The tail drops GPU utilization.
	_, gpuEnd := j.UtilAt(3595)
	if gpuEnd >= 0.79 {
		t.Errorf("tail GPU = %v, want < core", gpuEnd)
	}
}

func TestFingerprintOpenMxPHotterGPU(t *testing.T) {
	hpl := New(1, "", 9216, 3600, 0)
	if err := hpl.ApplyFingerprint(FPHPL); err != nil {
		t.Fatal(err)
	}
	mxp := New(2, "", 9216, 3600, 0)
	if err := mxp.ApplyFingerprint(FPOpenMxP); err != nil {
		t.Fatal(err)
	}
	_, gHPL := hpl.UtilAt(1800)
	_, gMxP := mxp.UtilAt(1800)
	if gMxP <= gHPL {
		t.Errorf("OpenMxP core GPU %v should exceed HPL %v", gMxP, gHPL)
	}
}

func TestFingerprintIdleMaxUnknown(t *testing.T) {
	j := New(1, "", 8, 300, 0)
	if err := j.ApplyFingerprint(FPIdle); err != nil {
		t.Fatal(err)
	}
	if c, g := j.UtilAt(100); c != 0 || g != 0 {
		t.Error("idle fingerprint not zero")
	}
	if err := j.ApplyFingerprint(FPMax); err != nil {
		t.Fatal(err)
	}
	if c, g := j.UtilAt(100); c != 1 || g != 1 {
		t.Error("max fingerprint not one")
	}
	if err := j.ApplyFingerprint(Fingerprint("nope")); err == nil {
		t.Error("unknown fingerprint should error")
	}
}

func TestGeneratorArrivalStatistics(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	g := NewGenerator(cfg)
	jobs := g.GenerateHorizon(7 * 86400)
	if len(jobs) < 3000 {
		t.Fatalf("only %d jobs in a week", len(jobs))
	}
	// Mean inter-arrival ≈ 138 s.
	var gaps []float64
	for i := 1; i < len(jobs); i++ {
		d := jobs[i].SubmitTime - jobs[i-1].SubmitTime
		if d < 0 {
			t.Fatal("submit times must be non-decreasing")
		}
		gaps = append(gaps, d)
	}
	mean := 0.0
	for _, d := range gaps {
		mean += d
	}
	mean /= float64(len(gaps))
	if math.Abs(mean-138)/138 > 0.1 {
		t.Errorf("mean inter-arrival = %v, want ≈138", mean)
	}
}

func TestGeneratorJobShapes(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	g := NewGenerator(cfg)
	jobs := g.GenerateHorizon(3 * 86400)
	singles := 0
	for _, j := range jobs {
		if j.NodeCount < 1 || j.NodeCount > cfg.MaxNodes {
			t.Fatalf("job %d nodes = %d", j.ID, j.NodeCount)
		}
		if j.WallTimeSec < cfg.WallMinSec || j.WallTimeSec > cfg.WallMaxSec {
			t.Fatalf("job %d wall = %v", j.ID, j.WallTimeSec)
		}
		if len(j.CPUTrace) != TraceLen(j.WallTimeSec) {
			t.Fatalf("job %d trace len %d != %d", j.ID, len(j.CPUTrace), TraceLen(j.WallTimeSec))
		}
		for k := range j.CPUTrace {
			if j.CPUTrace[k] < 0 || j.CPUTrace[k] > 1 || j.GPUTrace[k] < 0 || j.GPUTrace[k] > 1 {
				t.Fatalf("job %d utilization outside [0,1]", j.ID)
			}
		}
		if j.NodeCount == 1 {
			singles++
		}
	}
	frac := float64(singles) / float64(len(jobs))
	if frac < 0.25 || frac > 0.45 {
		t.Errorf("single-node fraction = %v, want ≈0.32 (Fig. 9)", frac)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(DefaultGeneratorConfig()).GenerateHorizon(86400)
	b := NewGenerator(DefaultGeneratorConfig()).GenerateHorizon(86400)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].SubmitTime != b[i].SubmitTime || a[i].NodeCount != b[i].NodeCount {
			t.Fatal("same seed must reproduce the stream")
		}
	}
}

func TestGeneratorNextContinuesClock(t *testing.T) {
	g := NewGenerator(DefaultGeneratorConfig())
	first := g.GenerateHorizon(3600)
	next := g.GenerateHorizon(7200)
	if len(first) == 0 || len(next) == 0 {
		t.Fatalf("empty batches: %d then %d jobs", len(first), len(next))
	}
	j1, j2 := first[len(first)-1], next[0]
	if j2.SubmitTime <= j1.SubmitTime {
		t.Error("the next batch must continue the arrival clock")
	}
	if j1.ID == j2.ID {
		t.Error("IDs must be unique")
	}
}

func TestNewHPLAndOpenMxP(t *testing.T) {
	h := NewHPL(7, 100, 5400)
	if h.NodeCount != 9216 || h.Name != "hpl" || h.SubmitTime != 100 {
		t.Errorf("HPL job = %+v", h)
	}
	m := NewOpenMxP(8, 0, 3600)
	if m.NodeCount != 9216 || m.Name != "openmxp" {
		t.Errorf("OpenMxP job = %+v", m)
	}
}

func TestStateString(t *testing.T) {
	if Pending.String() != "pending" || Running.String() != "running" || Completed.String() != "completed" {
		t.Error("state names")
	}
	if State(42).String() == "" {
		t.Error("unknown state should have a name")
	}
}

func TestReplayStartDefault(t *testing.T) {
	j := New(1, "x", 2, 10, 0)
	if j.ReplayStart >= 0 {
		t.Error("fresh jobs must not be pinned to a replay start")
	}
}

func TestTraceConstSuffix(t *testing.T) {
	j := New(1, "t", 4, 120, 0)
	// Empty traces: trivially constant.
	if got := j.TraceConstSuffix(); got != 0 {
		t.Errorf("empty traces: suffix %d, want 0", got)
	}
	// Flat traces: constant from the start.
	j.CPUTrace = FlatTrace(0.5, 120)
	j.GPUTrace = FlatTrace(0.8, 120)
	if got := j.TraceConstSuffix(); got != 0 {
		t.Errorf("flat traces: suffix %d, want 0", got)
	}
	// Plateau: varies for 3 quanta, then constant.
	j.CPUTrace = []float64{0.1, 0.2, 0.3, 0.7, 0.7, 0.7, 0.7}
	j.GPUTrace = FlatTrace(0.9, 120)[:7]
	if got := j.TraceConstSuffix(); got != 3 {
		t.Errorf("plateau: suffix %d, want 3", got)
	}
	// The later-varying trace dominates.
	j.GPUTrace = []float64{0.9, 0.9, 0.9, 0.9, 0.9, 0.4, 0.4}
	if got := j.TraceConstSuffix(); got != 5 {
		t.Errorf("mixed: suffix %d, want 5", got)
	}
	// Fully varying: suffix is the final sample.
	j.CPUTrace = []float64{0.1, 0.2, 0.3}
	j.GPUTrace = []float64{0.4, 0.5, 0.6}
	if got := j.TraceConstSuffix(); got != 2 {
		t.Errorf("varying: suffix %d, want 2", got)
	}
	// Consistency with TraceFrozenAt: frozen implies inside the suffix.
	for idx := 0; idx < 5; idx++ {
		if j.TraceFrozenAt(idx) && idx < j.TraceConstSuffix() {
			t.Errorf("idx %d frozen but before const suffix %d", idx, j.TraceConstSuffix())
		}
	}
}
