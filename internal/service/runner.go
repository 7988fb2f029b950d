package service

// The dispatch seam. A Service normally computes cache-missing scenarios
// on its own worker pool; installing a ScenarioRunner (Options.Runner)
// replaces that compute tier with an external one — the cluster
// coordinator installs its worker client pool here, so the whole sweep
// lifecycle (admission, single-flight, retries, spans, streaming) stays
// in this package while the simulation itself happens on another node.

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

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

// leaseOwnerID derives this service's cross-node lease identity:
// host + pid disambiguate nodes and processes, the random suffix
// disambiguates services within one process (tests run several).
func leaseOwnerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "node"
	}
	var b [4]byte
	_, _ = cryptorand.Read(b[:])
	return fmt.Sprintf("%s-%d-%s", host, os.Getpid(), hex.EncodeToString(b[:]))
}

// drainTau is the EWMA time constant of the queue drain-rate estimate —
// long enough to smooth per-scenario noise, short enough that an
// operator-visible slowdown moves the Retry-After hint within a minute.
const drainTau = 30 * time.Second

// drainRate estimates the service's scenario completion rate as an
// irregular-interval EWMA. Each release of queue capacity feeds it; the
// saturated-queue Retry-After hint divides the pending count by this
// rate, so the hint tracks what the service is actually draining instead
// of a fixed per-worker guess.
type drainRate struct {
	mu   sync.Mutex
	rate float64 // scenarios/sec
	last time.Time
}

func (d *drainRate) note(n int, now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.last.IsZero() {
		d.last = now
		return
	}
	dt := now.Sub(d.last).Seconds()
	if dt <= 0 {
		// Same-instant completions: treat as an impulse. alpha*sample
		// degenerates to n/tau, so the contribution stays bounded.
		dt = 1e-9
	}
	sample := float64(n) / dt
	alpha := 1 - math.Exp(-dt/drainTau.Seconds())
	d.rate += alpha * (sample - d.rate)
	d.last = now
}

func (d *drainRate) value() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rate
}

// retryAfterSec derives the saturated-queue Retry-After hint from the
// observed drain rate: pending scenarios divided by scenarios/sec, with
// ±25% jitter so a burst of throttled clients does not resubmit in
// lockstep, clamped to a sane header range. Before any drain has been
// observed it falls back to assuming ~1 scenario/sec/worker.
func (s *Service) retryAfterSec() int {
	rate := s.drain.value()
	if rate <= 0 {
		rate = float64(s.workers)
	}
	sec := float64(s.pending.Load()) / rate
	sec *= 0.75 + 0.5*rand.Float64()
	switch {
	case sec < 1:
		return 1
	case sec > 60:
		return 60
	}
	return int(sec)
}
