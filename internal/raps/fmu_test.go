package raps

import (
	"fmt"
	"testing"

	"exadigit/internal/cooling"
	"exadigit/internal/fmu"
)

// TestFMUReplayMatchesCoupledRun pins that the two routes to the plant
// agree: RAPS steps it directly, the FMU through SetReal/DoStep/GetReal.
// An FMU instance driven with a cooled rk4 run's per-coupling inputs —
// the recorded CDU heat, the IT power and the same wet bulb — must read
// the run's HTW return, HTW supply and maximum secondary-supply
// temperatures bit for bit at every coupling.
func TestFMUReplayMatchesCoupledRun(t *testing.T) {
	const wetBulb = 19.0
	design, err := fmu.NewDesign(cooling.Frontier()) // 25 loops ≥ the 4 coupled
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TickSec = 15 // every sample is a coupling boundary
	cfg.EnableCooling = true
	cfg.CoolingDesign = design
	cfg.RecordCDUHeat = true
	cfg.WetBulbC = func(float64) float64 { return wetBulb }
	sim, err := NewMulti(cfg, twoTestPartitions(7, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(2 * 3600); err != nil {
		t.Fatal(err)
	}

	inst, err := design.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.SetupExperiment(0); err != nil {
		t.Fatal(err)
	}
	d := inst.Description()
	ref := func(name string) fmu.ValueRef {
		r, err := d.RefByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	hist := sim.History()
	coupled := len(hist[0].CDUHeatW)
	var in, out []fmu.ValueRef
	for i := 1; i <= coupled; i++ {
		in = append(in, ref(fmt.Sprintf("cdu[%d].heat_w", i)))
	}
	in = append(in, ref("wetbulb_temp_c"), ref("it_power_w"))
	out = append(out, ref("facility.return_temp_c"), ref("facility.supply_temp_c"))
	for i := 1; i <= coupled; i++ {
		out = append(out, ref(fmt.Sprintf("cdu[%d].secondary_supply_temp_c", i)))
	}
	vals := make([]float64, len(in))
	got := make([]float64, len(out))
	for _, smp := range hist {
		copy(vals, smp.CDUHeatW)
		vals[coupled], vals[coupled+1] = wetBulb, smp.PowerW
		if err := inst.SetReal(in, vals); err != nil {
			t.Fatal(err)
		}
		if err := inst.DoStep(coolingDtSec); err != nil {
			t.Fatal(err)
		}
		if err := inst.GetReal(out, got); err != nil {
			t.Fatal(err)
		}
		secMax := 0.0
		for _, v := range got[2:] {
			if v > secMax {
				secMax = v
			}
		}
		if got[0] != smp.HTWReturnC || got[1] != smp.HTWSupplyC || secMax != smp.SecSupplyMaxC {
			t.Fatalf("t=%v: FMU reads return %v, supply %v, secondary max %v; the run sampled %v, %v, %v",
				smp.TimeSec, got[0], got[1], secMax, smp.HTWReturnC, smp.HTWSupplyC, smp.SecSupplyMaxC)
		}
	}
	if len(hist) != 2*3600/15 {
		t.Fatalf("%d samples, want one per coupling", len(hist))
	}
}
