package service

// The dispatch seam. A Service normally computes cache-missing scenarios
// on its own worker pool; installing a ScenarioRunner (Options.Runner)
// replaces that compute tier with an external one — the cluster
// coordinator installs its worker client pool here, so the whole sweep
// lifecycle (admission, single-flight, retries, spans, streaming) stays
// in this package while the simulation itself happens on another node.

import (
	"context"
	"fmt"

	"exadigit/internal/config"
	"exadigit/internal/core"
)

// RunRequest identifies one scenario attempt to a ScenarioRunner. The
// hashes are the coordinator's content-addressed cache key halves;
// runners that re-submit over the sweep HTTP API should verify the
// remote side derives the same scenario hash (a mismatch means the wire
// round-trip was lossy and shared-store dedup would silently break).
type RunRequest struct {
	Spec         config.SystemSpec
	SpecHash     string
	Scenario     core.Scenario
	ScenarioHash string
	// Index is the scenario's position within its sweep; Attempt is the
	// 1-based service retry attempt dispatching this request.
	Index   int
	Attempt int
}

// ScenarioRunner computes one scenario somewhere other than the local
// worker pool. Errors are retried under the sweep's normal attempt
// budget; a returned context error cancels the scenario like a local
// cancellation would.
type ScenarioRunner interface {
	RunScenario(ctx context.Context, req RunRequest) (*core.Result, error)
}

// ScenarioRequestFrom converts a core scenario back to its wire form —
// the inverse of ScenarioRequest.Scenario, used by the cluster client to
// re-submit a coordinator's scenario to a worker. The round trip must be
// hash-lossless (HashScenario of the reconstructed scenario equals the
// original's), which is what keeps the shared store's dedup key stable
// across nodes. Scenarios that cannot cross the wire — replay datasets,
// telemetry writers — are rejected.
func ScenarioRequestFrom(sc core.Scenario) (ScenarioRequest, error) {
	if sc.Dataset != nil || sc.Workload == core.WorkloadReplay {
		return ScenarioRequest{}, fmt.Errorf("service: replay scenarios cannot be dispatched over the wire")
	}
	if sc.TelemetryTo != nil {
		return ScenarioRequest{}, fmt.Errorf("service: scenarios with telemetry writers cannot be dispatched over the wire")
	}
	noExport, noHistory, gen := sc.NoExport, sc.NoHistory, sc.Generator
	return ScenarioRequest{
		Name:             sc.Name,
		Workload:         string(sc.Workload),
		HorizonSec:       sc.HorizonSec,
		TickSec:          sc.TickSec,
		Policy:           sc.Policy,
		Cooling:          sc.Cooling,
		CoolingSpec:      sc.CoolingSpec,
		PowerMode:        sc.PowerMode,
		Partitions:       sc.Partitions,
		BenchmarkWallSec: sc.BenchmarkWallSec,
		WetBulbC:         sc.WetBulbC,
		WeatherStart:     sc.WeatherStart,
		WeatherSeed:      sc.WeatherSeed,
		Engine:           sc.Engine,
		NoExport:         &noExport,
		NoHistory:        &noHistory,
		// Always sent, even when zero: a zero test would treat a -0
		// field as absent, and the worker's +0 would hash differently.
		Generator: &gen,
	}, nil
}
