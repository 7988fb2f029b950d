// Telemetry replay: the paper's central V&V workflow (§IV, Finding 8) —
// capture a day of system telemetry, persist it in the Table II schema,
// load it back, and replay it through the digital twin, comparing the
// twin's power prediction against the measured channel.
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	"exadigit"
)

func main() {
	log.SetFlags(0)

	tw, err := exadigit.NewFrontierTwin()
	if err != nil {
		log.Fatal(err)
	}

	// 1. "Capture" a day: run synthetic workload and export its
	//    telemetry (our substitute for Frontier's production telemetry).
	gen := exadigit.DefaultGeneratorConfig()
	gen.Seed = 2024
	captured, err := tw.Run(exadigit.Scenario{
		Workload:   exadigit.WorkloadSynthetic,
		Generator:  gen,
		HorizonSec: 6 * 3600,
		TickSec:    15,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured: %d jobs, %.2f MW avg\n",
		captured.Report.JobsCompleted, captured.Report.AvgPowerMW)

	// 2. Persist and reload the dataset (one dataset.ndjson file).
	ds, err := saveAndLoad(captured.Dataset)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Replay through the twin with pinned start times.
	replayed, err := tw.Run(exadigit.Scenario{
		Workload:   exadigit.WorkloadReplay,
		Dataset:    ds,
		HorizonSec: 6 * 3600,
		TickSec:    15,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Compare predicted vs captured power.
	diff := math.Abs(replayed.Report.AvgPowerMW - captured.Report.AvgPowerMW)
	fmt.Printf("replayed: %d jobs, %.2f MW avg (Δ %.3f MW vs capture, %.2f %%)\n",
		replayed.Report.JobsCompleted, replayed.Report.AvgPowerMW,
		diff, 100*diff/captured.Report.AvgPowerMW)
}

// saveAndLoad persists the dataset to a fresh temporary directory,
// reads it back, and removes the directory again.
func saveAndLoad(d *exadigit.Dataset) (*exadigit.Dataset, error) {
	dir, err := os.MkdirTemp("", "exadigit-replay-demo-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := d.Save(dir); err != nil {
		return nil, err
	}
	ds, err := exadigit.LoadTelemetry(dir)
	if err != nil {
		return nil, err
	}
	fmt.Printf("persisted to %s and reloaded: %d job records, %d series samples\n",
		dir, len(ds.Jobs), len(ds.Series))
	return ds, nil
}
