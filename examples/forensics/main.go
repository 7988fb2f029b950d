// Forensic diagnostics (§III-A): the operational use cases the twin was
// built for — per-job energy attribution, coolant-blockage detection via
// failure injection, blade-level thermal-throttle early warning, and an
// uncertainty-quantified power prediction.
package main

import (
	"fmt"
	"log"

	"exadigit"
	"exadigit/internal/anomaly"
	"exadigit/internal/cooling"
	"exadigit/internal/job"
	"exadigit/internal/power"
	"exadigit/internal/raps"
)

func main() {
	log.SetFlags(0)

	// --- Use case 1: per-job energy attribution -----------------------
	fmt.Println("— per-job energy attribution —")
	gen := job.NewGenerator(job.DefaultGeneratorConfig())
	jobs := gen.GenerateHorizon(2 * 3600)
	rcfg := raps.DefaultConfig()
	rcfg.TickSec = 15
	sim, err := raps.New(rcfg, power.NewFrontierModel(), jobs)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sim.Run(3 * 3600); err != nil {
		log.Fatal(err)
	}
	for _, je := range sim.TopConsumers(5) {
		fmt.Printf("  job %-6d %-14s %5d nodes  %7.3f MWh facility  %6.3f t CO2  $%.0f\n",
			je.JobID, je.Name, je.NodeCount, je.FacilityEnergyMWh, je.CO2Tons, je.CostUSD)
	}

	// --- Use case 2: blockage injection + detection -------------------
	fmt.Println("\n— coolant blockage detection (water-quality use case) —")
	plant, err := cooling.New(cooling.Frontier())
	if err != nil {
		log.Fatal(err)
	}
	heat := make([]float64, 25)
	for i := range heat {
		heat[i] = 16e6 / 25
	}
	in := cooling.Inputs{CDUHeatW: heat, WetBulbC: 20, ITPowerW: 16.9e6}
	if err := plant.SettleToSteadyState(in, 2*3600); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  injecting 2.5x fouling into CDU 12's blade loops...")
	if err := plant.InjectSecondaryFouling(11, 2.5); err != nil {
		log.Fatal(err)
	}
	if err := plant.Step(600, in); err != nil {
		log.Fatal(err)
	}
	det := anomaly.NewDetector()
	for _, a := range det.CheckCooling(plant.Snapshot(), plant.Time()) {
		fmt.Printf("  ALARM %s\n", a)
	}

	// --- Use case 3: thermal-throttle early warning -------------------
	fmt.Println("\n— thermal-throttle early detection —")
	o := plant.Snapshot()
	blocked := o.CDUs[11]
	perDevice := 1.2e-5 * (blocked.SecondaryFlowM3s / o.CDUs[0].SecondaryFlowM3s) * 0.12
	if a, hit := det.CheckThrottle("cdu[12]/worst-blade/gpu", 560, blocked.SecSupplyTempC, perDevice, plant.Time()); hit {
		fmt.Printf("  ALARM %s\n", a)
	} else {
		fmt.Println("  no throttle risk at current load")
	}

	// --- Use case 4: uncertainty-quantified prediction ----------------
	fmt.Println("\n— UQ ensemble on the power prediction (VVUQ, §IV) —")
	res, err := exadigit.RunUQ(exadigit.UQConfig{
		Members: 16, Seed: 4, HorizonSec: 900, TickSec: 15,
	}, func() []*exadigit.Job {
		j := exadigit.NewJob(1, "steady", 7000, 900, 0)
		j.CPUTrace = exadigit.FlatTrace(0.8, 900)
		j.GPUTrace = exadigit.FlatTrace(0.8, 900)
		return []*exadigit.Job{j}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  power  %6.2f MW  [%6.2f, %6.2f] 5-95%%\n",
		res.PowerMW.Mean, res.PowerMW.P05, res.PowerMW.P95)
	fmt.Printf("  eta    %6.4f     [%6.4f, %6.4f]\n",
		res.EtaSystem.Mean, res.EtaSystem.P05, res.EtaSystem.P95)
	fmt.Printf("  CO2    %6.2f t   [%6.2f, %6.2f]\n",
		res.CO2Tons.Mean, res.CO2Tons.P05, res.CO2Tons.P95)
}
