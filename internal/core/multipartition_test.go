package core

import (
	"bytes"
	"math"
	"testing"

	"exadigit/internal/config"
	"exadigit/internal/job"
	"exadigit/internal/telemetry"
)

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	m := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1e-12)
	return d / m
}

// TestSetonixLikeTwoPartitionDay runs the §V generalization end to end:
// a Setonix-like two-partition spec simulates one cooled stretch through
// Twin.Run with heterogeneous per-partition workloads, producing a
// per-partition report, per-partition telemetry, and a shared-plant PUE.
func TestSetonixLikeTwoPartitionDay(t *testing.T) {
	tw, err := NewFromSpec(config.SetonixLike())
	if err != nil {
		t.Fatal(err)
	}
	gen := job.DefaultGeneratorConfig()
	gen.Seed = 11
	var buf bytes.Buffer
	res, err := tw.Run(Scenario{
		HorizonSec: 2 * 3600, TickSec: 15,
		Cooling: true, WetBulbC: 20,
		Partitions: []PartitionScenario{
			{Workload: WorkloadSynthetic, Generator: gen},
			{Workload: WorkloadPeak},
		},
		TelemetryTo: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if len(rep.Partitions) != 2 {
		t.Fatalf("report has %d partition entries, want 2", len(rep.Partitions))
	}
	if rep.Partitions[0].Name != "cpu" || rep.Partitions[1].Name != "gpu" {
		t.Fatalf("partition names = %q, %q", rep.Partitions[0].Name, rep.Partitions[1].Name)
	}
	var sum float64
	for _, p := range rep.Partitions {
		if p.EnergyMWh <= 0 {
			t.Fatalf("partition %q consumed no energy: %+v", p.Name, p)
		}
		sum += p.EnergyMWh
	}
	if relDiff(sum, rep.EnergyMWh) > 1e-9 {
		t.Errorf("partition energies sum to %v MWh, report says %v MWh", sum, rep.EnergyMWh)
	}
	// The GPU partition runs pinned at peak, so its utilization must sit
	// at 1 while the synthetic CPU partition fluctuates below.
	if rep.Partitions[1].AvgUtilization < 0.99 {
		t.Errorf("peak GPU partition utilization = %v", rep.Partitions[1].AvgUtilization)
	}
	if rep.AvgPUE <= 1 {
		t.Errorf("shared plant PUE = %v", rep.AvgPUE)
	}
	// History and the NDJSON stream both carry the per-partition split.
	if len(res.History) == 0 {
		t.Fatal("no history")
	}
	for _, smp := range res.History {
		if len(smp.PartPowerW) != 2 {
			t.Fatalf("sample t=%v lacks the partition split: %+v", smp.TimeSec, smp.PartPowerW)
		}
		if got := smp.PartPowerW[0] + smp.PartPowerW[1]; got != smp.PowerW {
			t.Fatalf("sample t=%v: partition powers sum to %v, total %v", smp.TimeSec, got, smp.PowerW)
		}
	}
	streamed, err := telemetry.ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed.Series) == 0 {
		t.Fatal("stream carried no series")
	}
	for _, p := range streamed.Series {
		if len(p.PartPowerW) != 2 {
			t.Fatalf("streamed point t=%v lacks part_power_w", p.TimeSec)
		}
	}
	// The dashboard series exposes the same split in MW.
	series := tw.Series()
	if len(series) == 0 || len(series[0].PartMW) != 2 {
		t.Fatal("viz series lacks the per-partition channel")
	}
	if st := tw.Status(); len(st.PartPowerMW) != 2 {
		t.Fatalf("viz status lacks the per-partition channel: %+v", st)
	}
}

// TestSetonixLikeRunBatch drives the two-partition spec through the
// parallel batch runner: heterogeneous scenarios share one CompiledSpec
// (per-partition models built once) and return per-partition reports.
func TestSetonixLikeRunBatch(t *testing.T) {
	gen := job.DefaultGeneratorConfig()
	gen.Seed = 3
	scenarios := []Scenario{
		{
			HorizonSec: 1800, TickSec: 15, Cooling: true, WetBulbC: 19,
			Partitions: []PartitionScenario{
				{Workload: WorkloadSynthetic, Generator: gen},
				{Workload: WorkloadIdle},
			},
		},
		{
			HorizonSec: 1800, TickSec: 15, Cooling: true, WetBulbC: 19,
			Partitions: []PartitionScenario{
				{Workload: WorkloadIdle},
				{Workload: WorkloadPeak},
			},
		},
	}
	results, err := RunBatch(config.SetonixLike(), scenarios, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if len(res.Report.Partitions) != 2 {
			t.Fatalf("scenario %d: %d partition entries", i, len(res.Report.Partitions))
		}
	}
	// Scenario 0 loads the CPU partition, scenario 1 the GPU partition.
	if !(results[0].Report.Partitions[0].AvgPowerMW > results[0].Report.Partitions[1].AvgPowerMW*0.2) {
		t.Errorf("scenario 0 partition powers: %+v", results[0].Report.Partitions)
	}
	if results[1].Report.Partitions[1].AvgUtilization < 0.99 {
		t.Errorf("scenario 1 GPU partition not at peak: %+v", results[1].Report.Partitions)
	}
}

// TestScenarioPartitionsValidation pins the failure modes: a partition
// list that does not cover the spec, and per-partition replay, are clear
// errors before any simulation runs.
func TestScenarioPartitionsValidation(t *testing.T) {
	tw, err := NewFromSpec(config.SetonixLike())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Run(Scenario{
		HorizonSec: 60, TickSec: 15,
		Partitions: []PartitionScenario{{Workload: WorkloadIdle}},
	}); err == nil {
		t.Error("short partition list accepted")
	}
	if _, err := tw.Run(Scenario{
		HorizonSec: 60, TickSec: 15,
		Partitions: []PartitionScenario{
			{Workload: WorkloadReplay}, {Workload: WorkloadIdle},
		},
	}); err == nil {
		t.Error("per-partition replay accepted")
	}
}

// TestDefaultWorkloadReplicatesAcrossPartitions pins the fallback: with
// no explicit partition list, the scenario-level workload runs on every
// partition (each sized to its own topology).
func TestDefaultWorkloadReplicatesAcrossPartitions(t *testing.T) {
	tw, err := NewFromSpec(config.SetonixLike())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tw.Run(Scenario{
		Workload: WorkloadPeak, HorizonSec: 600, TickSec: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Partitions) != 2 {
		t.Fatalf("%d partition entries", len(res.Report.Partitions))
	}
	for _, p := range res.Report.Partitions {
		if p.AvgUtilization < 0.99 {
			t.Errorf("partition %q not at peak: %+v", p.Name, p)
		}
	}
}

// BenchmarkTwinDaySetonix measures the multi-partition twin: one full
// cooled day of a Setonix-like system — synthetic jobs on the CPU
// partition, a pinned-peak GPU partition — with both partitions' heat
// coupled into the shared plant. The per-partition power split rides
// along as cpuMW/gpuMW.
func BenchmarkTwinDaySetonix(b *testing.B) {
	spec := config.SetonixLike()
	gen := job.DefaultGeneratorConfig()
	gen.Seed = 99
	day := Scenario{
		HorizonSec: 86400, TickSec: 15,
		Cooling: true, WetBulbC: 21, NoExport: true,
		Partitions: []PartitionScenario{
			{Workload: WorkloadSynthetic, Generator: gen},
			{Workload: WorkloadPeak},
		},
	}
	for i := 0; i < b.N; i++ {
		tw, err := NewFromSpec(spec)
		if err != nil {
			b.Fatal(err)
		}
		res, err := tw.Run(day)
		if err != nil {
			b.Fatal(err)
		}
		rep := res.Report
		if len(rep.Partitions) != 2 {
			b.Fatalf("expected 2 partition reports, got %d", len(rep.Partitions))
		}
		b.ReportMetric(rep.AvgPUE, "pue")
		b.ReportMetric(rep.Partitions[0].AvgPowerMW, "cpuMW")
		b.ReportMetric(rep.Partitions[1].AvgPowerMW, "gpuMW")
	}
}
