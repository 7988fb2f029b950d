package exp

import (
	"fmt"
	"time"

	"exadigit/internal/cooling"
	"exadigit/internal/job"
	"exadigit/internal/power"
	"exadigit/internal/raps"
	"exadigit/internal/stats"
	"exadigit/internal/thermal"
	"exadigit/internal/weather"
)

// ExpansionResult reports the virtual-prototyping study of §III-A's
// second use case: "virtually extending the cooling system to support a
// secondary HPC system in the future, and evaluating its impact on
// cooling performance of the current system."
type ExpansionResult struct {
	SecondaryCDUs int
	// Loads evaluated (secondary system heat, MW) and the resulting
	// operating points.
	Points []ExpansionPoint
	// MaxSupportableMW is the largest evaluated secondary load that kept
	// the primary system's secondary-supply temperature within spec.
	MaxSupportableMW float64
}

// ExpansionPoint is one evaluated secondary-system load.
type ExpansionPoint struct {
	SecondaryMW float64
	HTWSupplyC  float64
	SecSupplyC  float64 // hottest CDU supply of the *existing* system
	PUE         float64
	CellsStaged int
	WithinSpec  bool
}

// VirtualExpansion attaches a secondary system (extra CDU loops sharing
// Frontier's Central Energy Plant — same pumps, EHXs, and towers) and
// sweeps its heat load while Frontier runs at its typical 16 MW. The
// study answers the stakeholder question directly: how much future load
// can the existing CEP absorb before the current machine's cooling spec
// breaks?
func VirtualExpansion(secondaryCDUs int, secondaryLoadsMW []float64, maxSecSupplyC float64) (*Table, *ExpansionResult, error) {
	if secondaryCDUs <= 0 {
		secondaryCDUs = 8
	}
	if len(secondaryLoadsMW) == 0 {
		secondaryLoadsMW = []float64{0, 2, 4, 6, 8}
	}
	if maxSecSupplyC <= 0 {
		maxSecSupplyC = 33.0
	}
	// Same CEP, more CDU branches: only the loop count grows.
	cfg := cooling.Frontier()
	base := cfg.NumCDUs
	cfg.NumCDUs = base + secondaryCDUs

	res := &ExpansionResult{SecondaryCDUs: secondaryCDUs}
	for _, sec := range secondaryLoadsMW {
		plant, err := cooling.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		heat := make([]float64, cfg.NumCDUs)
		for i := 0; i < base; i++ {
			heat[i] = 16e6 / float64(base)
		}
		for i := base; i < cfg.NumCDUs; i++ {
			heat[i] = sec * 1e6 / float64(secondaryCDUs)
		}
		in := cooling.Inputs{
			CDUHeatW: heat, WetBulbC: 20,
			ITPowerW: (16 + sec) * 1e6 / 0.945,
		}
		if err := plant.SettleToSteadyState(in, 3*3600); err != nil {
			return nil, nil, err
		}
		o := plant.Snapshot()
		pt := ExpansionPoint{SecondaryMW: sec, HTWSupplyC: o.FacilitySupplyC, PUE: o.PUE,
			CellsStaged: o.NumCellsStaged}
		for i := 0; i < base; i++ {
			if o.CDUs[i].SecSupplyTempC > pt.SecSupplyC {
				pt.SecSupplyC = o.CDUs[i].SecSupplyTempC
			}
		}
		pt.WithinSpec = pt.SecSupplyC <= maxSecSupplyC
		if pt.WithinSpec && sec > res.MaxSupportableMW {
			res.MaxSupportableMW = sec
		}
		res.Points = append(res.Points, pt)
	}

	t := &Table{
		Title: fmt.Sprintf(
			"Virtual prototyping — secondary system on Frontier's CEP (%d extra CDUs, §III-A)",
			secondaryCDUs),
		Columns: []string{"Secondary load (MW)", "HTW supply (degC)", "Frontier sec supply (degC)", "PUE", "Cells", "Within spec"},
		Notes: []string{
			fmt.Sprintf("max supportable secondary load at ≤%.1f degC supply: %.0f MW",
				maxSecSupplyC, res.MaxSupportableMW),
		},
	}
	for _, pt := range res.Points {
		t.AddRow(f1(pt.SecondaryMW), f2(pt.HTWSupplyC), f2(pt.SecSupplyC),
			f3(pt.PUE), fmt.Sprint(pt.CellsStaged), fmt.Sprint(pt.WithinSpec))
	}
	return t, res, nil
}

// WeatherCorrelation reruns §III-A's weather use case ("understanding
// how weather correlates to GPU temperatures on the system"): a multi-day
// constant workload under the seasonal weather generator, correlating the
// wet bulb against the cooling loop and estimated GPU temperatures.
func WeatherCorrelation(days int, seed int64) (*Table, float64, error) {
	if days <= 0 {
		days = 7
	}
	horizon := float64(days) * 86400

	// Heavy steady load so the CDU valves run near saturation and the
	// blade coolant genuinely feels the weather. The weather is
	// noise-free (pure seasonal + diurnal).
	j := job.New(1, "steady", 9000, horizon+1, 0)
	j.CPUTrace = job.FlatTrace(0.6, 3600)
	j.GPUTrace = job.FlatTrace(0.92, 3600)
	wcfg := weather.DefaultConfig()
	wcfg.Seed = seed
	wcfg.NoiseStdC = 0
	wb := weather.NewSource(wcfg, time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)).At

	rcfg := raps.DefaultConfig()
	rcfg.TickSec = 15
	rcfg.EnableCooling = true
	rcfg.WetBulbC = wb
	sim, err := raps.New(rcfg, power.NewFrontierModel(), []*job.Job{j})
	if err != nil {
		return nil, 0, err
	}
	if _, err := sim.Run(horizon); err != nil {
		return nil, 0, err
	}

	// Correlate hourly samples: wet bulb vs the primary supply (the CEP
	// channel weather drives directly) and vs the estimated GPU
	// temperature behind a cold plate fed by the hottest CDU's secondary
	// supply (which floats above setpoint when the valves saturate).
	plate := thermal.ColdPlate{RConduction: 0.010, RConvNom: 0.012, QNominal: 1.2e-5}
	gpuPower := 0.92*560 + 0.08*88
	var wbs, sups, gpus []float64
	for _, smp := range sim.History() {
		if int(smp.TimeSec)%3600 != 0 {
			continue
		}
		wbs = append(wbs, wb(smp.TimeSec))
		sups = append(sups, smp.HTWSupplyC)
		gpus = append(gpus, plate.DeviceTemp(gpuPower, smp.SecSupplyMaxC, 1.2e-5))
	}
	rSup, err := stats.Pearson(wbs, sups)
	if err != nil {
		return nil, 0, err
	}
	rGPU, err := stats.Pearson(wbs, gpus)
	if err != nil {
		return nil, 0, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Weather correlation over %d days (§III-A use case)", days),
		Columns: []string{"Pair", "Pearson r"},
	}
	t.AddRow("wet bulb vs HTW supply temp", f3(rSup))
	t.AddRow("wet bulb vs estimated GPU temp", f3(rGPU))
	return t, rGPU, nil
}
