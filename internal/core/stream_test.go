package core

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"exadigit/internal/config"
	"exadigit/internal/job"
	"exadigit/internal/telemetry"
)

// TestStreamedTelemetryMatchesExport: the NDJSON stream written
// incrementally during a run must reassemble into exactly the dataset
// the in-memory ExportTelemetry materializes after it — bit-for-bit
// (JSON float64 encoding round-trips exactly).
func TestStreamedTelemetryMatchesExport(t *testing.T) {
	gen := job.DefaultGeneratorConfig()
	gen.Seed = 9
	var buf bytes.Buffer
	sc := Scenario{
		Name:       "stream-equiv",
		Workload:   WorkloadSynthetic,
		HorizonSec: 2 * 3600,
		TickSec:    15,
		Generator:  gen,
		// WetBulbC deliberately unset: the stream and the export each
		// evaluate the seasonal weather series at every sample.
		WeatherSeed: 3,
		TelemetryTo: &buf,
	}
	tw, err := NewFromSpec(config.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tw.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dataset == nil {
		t.Fatal("export missing (NoExport unset)")
	}
	if len(res.Dataset.Series) == 0 || len(res.Dataset.Jobs) == 0 {
		t.Fatal("export is empty; test needs real content")
	}

	streamed, err := telemetry.ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Epoch != res.Dataset.Epoch || streamed.SeriesDtSec != res.Dataset.SeriesDtSec {
		t.Errorf("meta diverges: %q/%v vs %q/%v",
			streamed.Epoch, streamed.SeriesDtSec, res.Dataset.Epoch, res.Dataset.SeriesDtSec)
	}
	if len(streamed.Jobs) != len(res.Dataset.Jobs) {
		t.Fatalf("streamed %d jobs, export has %d", len(streamed.Jobs), len(res.Dataset.Jobs))
	}
	for i := range streamed.Jobs {
		if !reflect.DeepEqual(streamed.Jobs[i], res.Dataset.Jobs[i]) {
			t.Fatalf("job record %d diverges:\nstream: %+v\nexport: %+v",
				i, streamed.Jobs[i], res.Dataset.Jobs[i])
		}
	}
	if len(streamed.Series) != len(res.Dataset.Series) {
		t.Fatalf("streamed %d series points, export has %d",
			len(streamed.Series), len(res.Dataset.Series))
	}
	for i := range streamed.Series {
		if !reflect.DeepEqual(streamed.Series[i], res.Dataset.Series[i]) {
			t.Fatalf("series point %d diverges: stream %+v vs export %+v",
				i, streamed.Series[i], res.Dataset.Series[i])
		}
	}
}

// TestTelemetrySinkDoesNotPerturbResults: attaching a streaming sink
// must be invisible to the simulation — in particular the sink's
// wet-bulb queries must not move what the cooling coupling reads from
// the same weather series (that would change PUE and the report).
func TestTelemetrySinkDoesNotPerturbResults(t *testing.T) {
	run := func(streamed bool) *Result {
		gen := job.DefaultGeneratorConfig()
		gen.Seed = 12
		sc := Scenario{
			Workload: WorkloadSynthetic, HorizonSec: 1800, TickSec: 15,
			Generator: gen, Cooling: true, WeatherSeed: 5,
			NoExport: true,
		}
		if streamed {
			sc.TelemetryTo = &bytes.Buffer{}
		}
		tw, err := NewFromSpec(config.Frontier())
		if err != nil {
			t.Fatal(err)
		}
		res, err := tw.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, streamed := run(false), run(true)
	if plain.Report.EnergyMWh != streamed.Report.EnergyMWh {
		t.Errorf("energy changed by attaching a sink: %v vs %v",
			plain.Report.EnergyMWh, streamed.Report.EnergyMWh)
	}
	if plain.Report.AvgPUE != streamed.Report.AvgPUE {
		t.Errorf("PUE changed by attaching a sink: %v vs %v",
			plain.Report.AvgPUE, streamed.Report.AvgPUE)
	}
}

// TestCooledExportMatchesStream: under the seasonal weather series, a
// cooled run's exported series is the streamed one bit for bit — also
// when the run exports without a stream, where the export evaluates the
// weather after the plant has queried it through the whole run.
func TestCooledExportMatchesStream(t *testing.T) {
	run := func(to *bytes.Buffer) *Result {
		gen := job.DefaultGeneratorConfig()
		gen.Seed = 4
		sc := Scenario{
			Workload: WorkloadSynthetic, HorizonSec: 3600, TickSec: 15,
			Generator: gen, Cooling: true, WeatherSeed: 7,
		}
		if to != nil {
			sc.TelemetryTo = to
		}
		tw, err := NewFromSpec(config.Frontier())
		if err != nil {
			t.Fatal(err)
		}
		res, err := tw.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var buf bytes.Buffer
	streamedRun := run(&buf)
	streamed, err := telemetry.ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed.Series) != 240 {
		t.Fatalf("streamed %d samples, want 240", len(streamed.Series))
	}
	for name, res := range map[string]*Result{"with stream": streamedRun, "without stream": run(nil)} {
		if !reflect.DeepEqual(res.Dataset.Series, streamed.Series) {
			diff := 0
			for i := range streamed.Series {
				if i >= len(res.Dataset.Series) || !reflect.DeepEqual(res.Dataset.Series[i], streamed.Series[i]) {
					diff++
				}
			}
			t.Errorf("%s: %d of %d exported samples differ from the stream", name, diff, len(streamed.Series))
		}
	}
}

// TestSetonixExportSaveLoadRoundTrip: a two-partition export, per-
// partition power split included, survives Save then Load unchanged.
func TestSetonixExportSaveLoadRoundTrip(t *testing.T) {
	tw, err := NewFromSpec(config.SetonixLike())
	if err != nil {
		t.Fatal(err)
	}
	gen := job.DefaultGeneratorConfig()
	gen.Seed = 11
	res, err := tw.Run(Scenario{
		HorizonSec: 1800, TickSec: 15,
		Partitions: []PartitionScenario{
			{Workload: WorkloadSynthetic, Generator: gen},
			{Workload: WorkloadPeak},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dataset.Series) == 0 || len(res.Dataset.Series[0].PartPowerW) != 2 {
		t.Fatal("export carries no per-partition split; the test needs one")
	}
	dir := filepath.Join(t.TempDir(), "setonix")
	if err := res.Dataset.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := telemetry.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, res.Dataset) {
		t.Errorf("Save then Load changed the dataset: first sample %+v, was %+v",
			back.Series[0], res.Dataset.Series[0])
	}
}

// TestSyntheticJobBoundRejectsRunaway: a near-zero arrival mean (HTTP
// reachable through the sweep service) must be rejected, not generate
// horizon/mean jobs.
func TestSyntheticJobBoundRejectsRunaway(t *testing.T) {
	tw, err := NewFromSpec(config.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	gen := job.DefaultGeneratorConfig()
	gen.ArrivalMeanSec = 1e-9
	if _, err := tw.Run(Scenario{
		Workload: WorkloadSynthetic, HorizonSec: 86400, TickSec: 15, Generator: gen,
	}); err == nil {
		t.Fatal("near-zero arrival mean must be rejected")
	}
	gen.ArrivalMeanSec = -1
	if _, err := tw.Run(Scenario{
		Workload: WorkloadSynthetic, HorizonSec: 3600, TickSec: 15, Generator: gen,
	}); err == nil {
		t.Fatal("negative arrival mean must be rejected")
	}
}

// TestNoHistoryLeanMode: NoHistory drops the in-memory series from the
// result while the report and any streaming sink stay intact.
func TestNoHistoryLeanMode(t *testing.T) {
	gen := job.DefaultGeneratorConfig()
	gen.Seed = 4
	var buf bytes.Buffer
	tw, err := NewFromSpec(config.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tw.Run(Scenario{
		Workload: WorkloadSynthetic, HorizonSec: 1800, TickSec: 15,
		Generator: gen, WetBulbC: 20,
		NoExport: true, NoHistory: true, TelemetryTo: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 0 {
		t.Errorf("NoHistory run retained %d samples", len(res.History))
	}
	if res.Report == nil || res.Report.EnergyMWh <= 0 {
		t.Error("report missing under NoHistory")
	}
	streamed, err := telemetry.ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(1800 / 15); len(streamed.Series) != want {
		t.Errorf("stream carried %d series points under NoHistory, want %d",
			len(streamed.Series), want)
	}
}

// TestCompiledSpecSharesModelsAcrossModes: one compiled spec serves each
// power mode from cache and shares the instance across twins.
func TestCompiledSpecSharesModelsAcrossModes(t *testing.T) {
	cs, err := Compile(config.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	base1, err := cs.Models("")
	if err != nil {
		t.Fatal(err)
	}
	base2, err := cs.Models("ac-baseline")
	if err != nil {
		t.Fatal(err)
	}
	if base1[0] != base2[0] {
		t.Error("default mode and explicit ac-baseline should share one model")
	}
	dc, err := cs.Models("dc380")
	if err != nil {
		t.Fatal(err)
	}
	if dc[0] == base1[0] {
		t.Error("dc380 must be a distinct model")
	}
	if dc2, _ := cs.Models("dc380"); dc2[0] != dc[0] {
		t.Error("dc380 model not cached")
	}
	if _, err := cs.Models("warp-drive"); err == nil {
		t.Error("unknown mode should fail")
	}
	d1, err := cs.CoolingDesign()
	if err != nil {
		t.Fatal(err)
	}
	if d2, _ := cs.CoolingDesign(); d2 != d1 {
		t.Error("cooling design not cached")
	}
	if len(cs.Hash()) != 64 {
		t.Errorf("bad spec hash %q", cs.Hash())
	}
}
