package telemetry

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"exadigit/internal/job"
)

func TestUtilPowerRoundTrip(t *testing.T) {
	for _, u := range []float64{0, 0.25, 0.5, 0.79, 1} {
		p := PowerFromUtil(u, 88, 560)
		back := UtilFromPower(p, 88, 560)
		if math.Abs(back-u) > 1e-12 {
			t.Errorf("u=%v → p=%v → %v", u, p, back)
		}
	}
}

func TestUtilFromPowerClamps(t *testing.T) {
	if UtilFromPower(50, 88, 560) != 0 {
		t.Error("below idle should clamp to 0")
	}
	if UtilFromPower(999, 88, 560) != 1 {
		t.Error("above max should clamp to 1")
	}
	if UtilFromPower(100, 100, 100) != 0 {
		t.Error("degenerate range should return 0")
	}
	if PowerFromUtil(-1, 88, 560) != 88 || PowerFromUtil(2, 88, 560) != 560 {
		t.Error("PowerFromUtil should clamp utilization")
	}
}

func TestJobRecordConversionRoundTrip(t *testing.T) {
	j := job.New(42, "hpl", 9216, 3600, 100)
	if err := j.ApplyFingerprint(job.FPHPL); err != nil {
		t.Fatal(err)
	}
	j.StartTime = 150
	rec := FromJob(j, 90, 280, 88, 560)
	if rec.JobID != 42 || rec.NodeCount != 9216 || rec.WallTime != 3600 {
		t.Errorf("record = %+v", rec)
	}
	back := rec.ToJob(90, 280, 88, 560)
	if back.ReplayStart != 150 {
		t.Errorf("replay start = %v", back.ReplayStart)
	}
	if len(back.CPUTrace) != len(j.CPUTrace) {
		t.Fatalf("trace lengths differ")
	}
	for i := range j.CPUTrace {
		if math.Abs(back.CPUTrace[i]-j.CPUTrace[i]) > 1e-12 {
			t.Fatalf("cpu trace diverged at %d: %v vs %v", i, back.CPUTrace[i], j.CPUTrace[i])
		}
		if math.Abs(back.GPUTrace[i]-j.GPUTrace[i]) > 1e-12 {
			t.Fatalf("gpu trace diverged at %d", i)
		}
	}
}

// saveLoad round-trips a dataset through Save and Load in a fresh
// directory.
func saveLoad(t *testing.T, d *Dataset) (*Dataset, error) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "capture")
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	return Load(dir)
}

func TestJobsJSONLRoundTrip(t *testing.T) {
	d := &Dataset{Jobs: []JobRecord{
		{JobName: "a", JobID: 1, NodeCount: 4, SubmitTime: 0, StartTime: 5, WallTime: 60,
			CPUPowerW: []float64{100, 150}, GPUPowerW: []float64{200, 300}},
		{JobName: "b", JobID: 2, NodeCount: 9216, SubmitTime: 10, StartTime: 20, WallTime: 120,
			CPUPowerW: []float64{152.7}, GPUPowerW: []float64{460.9}},
	}}
	got, err := saveLoad(t, d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Jobs, d.Jobs) {
		t.Errorf("round trip = %+v", got.Jobs)
	}
}

func TestLoadRejectsBadRecords(t *testing.T) {
	for name, body := range map[string]string{
		"zero node count": `{"type":"job","job_id":1,"node_count":0}`,
		"malformed JSON":  `{garbage`,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, datasetFile), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDatasetSaveLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "capture")
	d := &Dataset{
		Epoch:       "2024-01-18",
		SeriesDtSec: 15,
		Jobs: []JobRecord{{JobName: "x", JobID: 1, NodeCount: 2, WallTime: 30,
			CPUPowerW: []float64{100}, GPUPowerW: []float64{200}}},
		Series: []SeriesPoint{
			{TimeSec: 0, MeasuredPowerW: 17e6, WetBulbC: 18.5},
			{TimeSec: 15, MeasuredPowerW: 17.2e6, WetBulbC: 18.6, PartPowerW: []float64{5e6, 12.2e6}},
		},
	}
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, d)
	}
	if _, err := Load(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing dir should fail")
	}
}

func TestAddSensorNoise(t *testing.T) {
	mk := func() *Dataset {
		d := &Dataset{SeriesDtSec: 15}
		for i := 0; i < 1000; i++ {
			d.Series = append(d.Series, SeriesPoint{TimeSec: float64(i) * 15, MeasuredPowerW: 17e6})
		}
		return d
	}
	a := mk()
	a.AddSensorNoise(0.01, 7)
	var sum, sumSq float64
	for _, p := range a.Series {
		rel := p.MeasuredPowerW/17e6 - 1
		sum += rel
		sumSq += rel * rel
	}
	mean := sum / 1000
	std := math.Sqrt(sumSq/1000 - mean*mean)
	if math.Abs(mean) > 0.002 {
		t.Errorf("noise mean = %v", mean)
	}
	if math.Abs(std-0.01) > 0.002 {
		t.Errorf("noise std = %v, want 0.01", std)
	}
	// Determinism.
	b := mk()
	b.AddSensorNoise(0.01, 7)
	for i := range a.Series {
		if a.Series[i].MeasuredPowerW != b.Series[i].MeasuredPowerW {
			t.Fatal("noise must be deterministic per seed")
		}
	}
}

func TestJobsJSONLRoundTripProperty(t *testing.T) {
	// Arbitrary job records survive Save then Load bit-exactly.
	f := func(id int, nodes uint8, submit, wall float64, cpu, gpu []float64) bool {
		rec := JobRecord{
			JobName:    "prop",
			JobID:      id,
			NodeCount:  int(nodes%200) + 1,
			SubmitTime: math.Mod(math.Abs(submit), 1e6),
			WallTime:   math.Mod(math.Abs(wall), 1e5),
			CPUPowerW:  sanitize(cpu),
			GPUPowerW:  sanitize(gpu),
		}
		got, err := saveLoad(t, &Dataset{Jobs: []JobRecord{rec}})
		return err == nil && len(got.Jobs) == 1 && reflect.DeepEqual(got.Jobs[0], rec)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sanitize strips non-finite values (JSON cannot carry them) and bounds
// length; the telemetry schema only ever holds finite watts.
func sanitize(vals []float64) []float64 {
	out := make([]float64, 0, len(vals))
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		out = append(out, math.Mod(math.Abs(v), 1e4))
		if len(out) == 64 {
			break
		}
	}
	return out
}
