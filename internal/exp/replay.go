package exp

import (
	"fmt"

	"exadigit/internal/job"
	"exadigit/internal/power"
	"exadigit/internal/raps"
	"exadigit/internal/stats"
)

// Fig9Config parameterizes the 24-hour replay validation.
type Fig9Config struct {
	Seed int64
	// HorizonSec is the replay window (24 h in the paper).
	HorizonSec float64
	// SensorNoiseRel is the meter noise applied to the synthetic
	// "measured" power channel (default 1 %).
	SensorNoiseRel float64
}

// Fig9Data carries the replayed day's series and comparison metrics.
type Fig9Data struct {
	TimeSec      []float64
	PredictedMW  []float64
	MeasuredMW   []float64
	EtaSystem    []float64
	EtaCooling   []float64
	Utilization  []float64
	TotalJobs    int
	SingleNode   int
	HPLJobs      int
	MAPEPercent  float64
	AvgPowerMW   float64
	MaxPowerMW   float64
	AvgEtaSystem float64
}

// Fig9 reruns the §IV-3 24-hour telemetry-replay validation: a day with
// ≈1238 jobs (≈400 single-node) including four back-to-back 9216-node HPL
// runs, replayed through RAPS; predicted power is compared against the
// noisy "measured" channel, alongside η_system, η_cooling, and
// utilization — the four series of Fig. 9.
func Fig9(cfg Fig9Config) (*Table, *Fig9Data, error) {
	if cfg.HorizonSec <= 0 {
		cfg.HorizonSec = 24 * 3600
	}
	if cfg.SensorNoiseRel == 0 {
		cfg.SensorNoiseRel = 0.01
	}

	// Build the day: Poisson background tuned for ≈1238 jobs/day with
	// the paper's single-node share, plus four HPL runs back-to-back.
	gen := job.DefaultGeneratorConfig()
	gen.Seed = cfg.Seed + 10
	gen.ArrivalMeanSec = cfg.HorizonSec / 1234
	gen.NodesMean = 180
	gen.NodesStd = 400
	gen.WallMeanSec = 39 * 60
	gen.WallStdSec = 14 * 60
	jobs := job.NewGenerator(gen).GenerateHorizon(cfg.HorizonSec)
	// Four HPL runs submitted together: FCFS drains the machine for the
	// first and then runs them back-to-back (consecutive IDs break the
	// submit-time tie), as the physical day did.
	hplWall := 0.045 * cfg.HorizonSec
	for i := 0; i < 4; i++ {
		jobs = append(jobs, job.NewHPL(100000+i, 0.3*cfg.HorizonSec, hplWall))
	}

	rcfg := raps.DefaultConfig()
	rcfg.TickSec = 15
	sim, err := raps.New(rcfg, power.NewFrontierModel(), jobs)
	if err != nil {
		return nil, nil, err
	}
	rep, err := sim.Run(cfg.HorizonSec)
	if err != nil {
		return nil, nil, err
	}

	// The "measured" channel: exported telemetry with sensor noise.
	ds := sim.ExportTelemetry("fig9-day")
	ds.AddSensorNoise(cfg.SensorNoiseRel, cfg.Seed+11)

	data := &Fig9Data{
		TotalJobs:    rep.JobsCompleted,
		AvgPowerMW:   rep.AvgPowerMW,
		MaxPowerMW:   rep.MaxPowerMW,
		AvgEtaSystem: rep.EtaSystem,
	}
	for _, j := range sim.History() {
		data.TimeSec = append(data.TimeSec, j.TimeSec)
		data.PredictedMW = append(data.PredictedMW, j.PowerW/1e6)
		data.EtaSystem = append(data.EtaSystem, j.EtaSystem)
		data.EtaCooling = append(data.EtaCooling, j.EtaCooling)
		data.Utilization = append(data.Utilization, j.Utilization)
	}
	for _, p := range ds.Series {
		data.MeasuredMW = append(data.MeasuredMW, p.MeasuredPowerW/1e6)
	}
	for _, jr := range ds.Jobs {
		if jr.NodeCount == 1 {
			data.SingleNode++
		}
		if jr.NodeCount == 9216 {
			data.HPLJobs++
		}
	}
	if data.MAPEPercent, err = stats.MAPE(data.PredictedMW, data.MeasuredMW); err != nil {
		return nil, nil, err
	}

	t := &Table{
		Title:   "Fig. 9 — Telemetry replay validation of a 24-hour period",
		Columns: []string{"Quantity", "Value"},
		Notes: []string{
			"paper's day: 1238 jobs, 400 single-node, four 9216-node HPL runs",
		},
	}
	t.AddRow("Jobs completed", fmt.Sprint(data.TotalJobs))
	t.AddRow("Single-node jobs", fmt.Sprint(data.SingleNode))
	t.AddRow("9216-node HPL jobs", fmt.Sprint(data.HPLJobs))
	t.AddRow("Avg power (MW)", f2(data.AvgPowerMW))
	t.AddRow("Max power (MW)", f2(data.MaxPowerMW))
	t.AddRow("Avg eta_system", f3(data.AvgEtaSystem))
	t.AddRow("Avg eta_cooling", f3(stats.Mean(data.EtaCooling)))
	t.AddRow("Avg utilization", f3(stats.Mean(data.Utilization)))
	t.AddRow("Pred vs measured MAPE (%)", f2(data.MAPEPercent))
	return t, data, nil
}
