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
	"path/filepath"

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
	dir := filepath.Join(os.TempDir(), "exadigit-replay-demo")
	if err := captured.Dataset.Save(dir); err != nil {
		log.Fatal(err)
	}
	ds, err := exadigit.LoadTelemetry(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("persisted to %s and reloaded: %d job records, %d series samples\n",
		dir, len(ds.Jobs), len(ds.Series))

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
