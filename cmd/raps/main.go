// Command raps runs the Resource Allocator and Power Simulator from the
// terminal — the paper's primary console interface (§III-B, Fig. 6
// top-right). It simulates synthetic or benchmark workloads on the
// Frontier twin, optionally coupled to the cooling model, and prints the
// §III-B5 statistics report. -export-dir writes the run's telemetry
// dataset as DIR/dataset.ndjson (the NDJSON stream format);
// -replay-dir replays a directory written that way.
//
// Usage:
//
//	raps [-workload synthetic|idle|peak|hpl|openmxp|replay]
//	     [-horizon 24h] [-tick 15s] [-policy fcfs|sjf|easy]
//	     [-cooling] [-mode ac-baseline|smart-rectifier|dc380]
//	     [-replay-dir DIR] [-export-dir DIR] [-seed N] [-spec FILE]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"exadigit"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("raps: ")

	var (
		workload  = flag.String("workload", "synthetic", "workload kind: synthetic, idle, peak, hpl, openmxp, replay")
		horizon   = flag.Duration("horizon", 24*time.Hour, "simulated duration")
		tick      = flag.Duration("tick", 15*time.Second, "simulation tick")
		policy    = flag.String("policy", "fcfs", "scheduling policy: fcfs, sjf, easy")
		cool      = flag.Bool("cooling", false, "couple the thermo-fluid cooling model")
		mode      = flag.String("mode", "", "power architecture: ac-baseline, smart-rectifier, dc380")
		replayDir = flag.String("replay-dir", "", "telemetry dataset directory to replay")
		exportDir = flag.String("export-dir", "", "write the run's telemetry dataset here")
		seed      = flag.Int64("seed", 1, "workload random seed")
		specFile  = flag.String("spec", "", "system spec JSON (default: built-in Frontier)")
		dashboard = flag.Bool("dashboard", false, "print a terminal dashboard frame at the end")
	)
	flag.Parse()

	spec := exadigit.FrontierSpec()
	if *specFile != "" {
		s, err := exadigit.LoadSpec(*specFile)
		if err != nil {
			log.Fatal(err)
		}
		spec = *s
	}
	tw, err := exadigit.NewTwin(spec)
	if err != nil {
		log.Fatal(err)
	}

	gen := exadigit.DefaultGeneratorConfig()
	gen.Seed = *seed
	sc := exadigit.Scenario{
		Workload:   exadigit.WorkloadKind(*workload),
		HorizonSec: horizon.Seconds(),
		TickSec:    tick.Seconds(),
		Policy:     *policy,
		Cooling:    *cool,
		PowerMode:  *mode,
		Generator:  gen,
	}
	if *replayDir != "" {
		ds, err := exadigit.LoadTelemetry(*replayDir)
		if err != nil {
			log.Fatal(err)
		}
		sc.Workload = exadigit.WorkloadReplay
		sc.Dataset = ds
	}

	start := time.Now()
	res, err := tw.Run(sc)
	if err != nil {
		log.Fatal(err)
	}
	printReport(res.Report, time.Since(start))

	if *exportDir != "" {
		if err := res.Dataset.Save(*exportDir); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("telemetry written to %s (%d jobs, %d samples)\n",
			*exportDir, len(res.Dataset.Jobs), len(res.Dataset.Series))
	}
	if *dashboard {
		fmt.Println()
		fmt.Print(exadigit.RenderStatus(tw))
	}
}

func printReport(r *exadigit.Report, wall time.Duration) {
	w := os.Stdout
	fmt.Fprintf(w, "simulated %.0f s in %v\n\n", r.SimSeconds, wall.Round(time.Millisecond))
	fmt.Fprintf(w, "jobs completed        %d\n", r.JobsCompleted)
	fmt.Fprintf(w, "throughput            %.1f jobs/hr\n", r.ThroughputPerHr)
	fmt.Fprintf(w, "avg power             %.2f MW (min %.2f, max %.2f)\n", r.AvgPowerMW, r.MinPowerMW, r.MaxPowerMW)
	fmt.Fprintf(w, "total energy          %.1f MW-hr\n", r.EnergyMWh)
	fmt.Fprintf(w, "conversion losses     %.2f MW avg, %.2f MW max (%.2f %%)\n", r.AvgLossMW, r.MaxLossMW, r.LossPercent)
	fmt.Fprintf(w, "eta_system            %.3f\n", r.EtaSystem)
	fmt.Fprintf(w, "CO2 emissions         %.1f metric tons\n", r.CO2Tons)
	fmt.Fprintf(w, "energy cost           $%.0f\n", r.CostUSD)
	fmt.Fprintf(w, "avg utilization       %.1f %%\n", 100*r.AvgUtilization)
	if r.AvgPUE > 0 {
		fmt.Fprintf(w, "avg PUE               %.3f\n", r.AvgPUE)
	}
}
