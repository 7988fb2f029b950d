// Package core assembles the ExaDigiT digital twin: the RAPS power and
// resource simulator, the cooling plant behind its FMU interface, the
// telemetry pipeline, and the visual-analytics data source. It is the
// integration layer the paper's Fig. 1 architecture diagram describes,
// exposed to downstream users through the root exadigit package.
package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/cooling"
	"exadigit/internal/job"
	"exadigit/internal/power"
	"exadigit/internal/raps"
	"exadigit/internal/telemetry"
	"exadigit/internal/viz"
	"exadigit/internal/weather"
)

// WorkloadKind selects how a scenario's jobs are produced.
type WorkloadKind string

// Workload kinds.
const (
	// WorkloadIdle runs no jobs (Table III idle verification).
	WorkloadIdle WorkloadKind = "idle"
	// WorkloadPeak pins every node at 100 % (Table III peak).
	WorkloadPeak WorkloadKind = "peak"
	// WorkloadHPL runs the 9216-node HPL benchmark (Table III, Fig. 8).
	WorkloadHPL WorkloadKind = "hpl"
	// WorkloadOpenMxP runs the OpenMxP benchmark (Fig. 8).
	WorkloadOpenMxP WorkloadKind = "openmxp"
	// WorkloadSynthetic draws jobs from the Poisson generator (§III-B3).
	WorkloadSynthetic WorkloadKind = "synthetic"
	// WorkloadReplay replays a telemetry dataset (§IV).
	WorkloadReplay WorkloadKind = "replay"
)

// PartitionScenario configures one partition's workload in a
// multi-partition scenario (§V's Setonix-style systems): which jobs the
// partition runs and how they are generated. The zero value (empty
// Workload) leaves the partition idle. JSON tags double as the HTTP wire
// schema and the canonical hash encoding.
type PartitionScenario struct {
	// Workload selects the partition's job source ("" = idle). Replay is
	// not valid per-partition (a dataset describes one machine).
	Workload WorkloadKind `json:"workload"`
	// Generator configures synthetic workloads (zero value → defaults
	// sized to the partition).
	Generator job.GeneratorConfig `json:"generator"`
	// BenchmarkWallSec is the duration of HPL/OpenMxP jobs (default 2 h).
	BenchmarkWallSec float64 `json:"benchmark_wall_sec,omitempty"`
	// MaxJobs caps the partition's job count (0 = unlimited) — the
	// per-partition job-count knob for heterogeneous sweeps.
	MaxJobs int `json:"max_jobs,omitempty"`
}

// Scenario describes one what-if run.
type Scenario struct {
	Name     string
	Workload WorkloadKind
	// HorizonSec is the simulated duration (at most a century).
	HorizonSec float64
	// TickSec overrides the simulation tick (default 1 s; 15 s is a
	// faithful speed-up).
	TickSec float64
	// Policy names the scheduler ("fcfs" default, "sjf", "easy").
	Policy string
	// Cooling couples the thermo-fluid plant.
	Cooling bool
	// CoolingSpec overrides the system spec's plant for this scenario —
	// compiled through AutoCSM (or resolved as a preset) exactly like
	// SystemSpec.Cooling — so a single sweep can mix cooling variants
	// against the same compute spec. nil cools with the spec's own
	// plant; implies Cooling when set.
	CoolingSpec *config.CoolingSpec
	// PowerMode selects the conversion architecture ("ac-baseline",
	// "smart-rectifier", "dc380").
	PowerMode string
	// Generator configures synthetic workloads (zero value → defaults).
	Generator job.GeneratorConfig
	// Partitions configures each partition's workload individually,
	// indexed like the spec's partitions (all must be listed). When
	// empty, the scenario-level Workload/Generator/BenchmarkWallSec are
	// replicated onto every partition — on a single-partition spec that
	// is exactly the pre-partition behavior, and a replay workload runs
	// on the first partition only (a dataset describes one machine).
	Partitions []PartitionScenario
	// Dataset supplies jobs for replay scenarios.
	Dataset *telemetry.Dataset
	// BenchmarkWallSec is the duration of HPL/OpenMxP jobs (default 2 h).
	BenchmarkWallSec float64
	// WetBulbC fixes the outdoor wet bulb; 0 uses the seasonal weather
	// series (weather.Source, seeded by WeatherSeed) starting at
	// WeatherStart.
	WetBulbC     float64
	WeatherStart time.Time
	WeatherSeed  int64
	// Engine selects the power-evaluation strategy: "" or "event" for
	// the event-driven incremental engine (the default), "dense" for the
	// reference per-tick sweep kept for verification and baselining.
	Engine string
	// NoExport skips the telemetry-dataset export in the Result — the
	// lean mode batch sweeps use when only the report matters.
	NoExport bool
	// NoHistory additionally skips storing the recorded series, so the
	// Result carries only the report — huge sweeps stop pinning ~0.6 MB
	// of samples per simulated day in result caches. Combine with
	// NoExport: an export after a NoHistory run has no series, with or
	// without TelemetryTo, which still streams every sample.
	NoHistory bool
	// TelemetryTo, when non-nil, streams the run's telemetry as NDJSON
	// to the writer incrementally — series samples as they are recorded
	// during the run, job records at the end. Without NoHistory the
	// stream reads back (telemetry.ReadStream) as exactly the run's
	// Result.Dataset. Combine with NoExport for long replays that should
	// never hold the dense export in memory.
	TelemetryTo io.Writer
}

// maxHorizonSec bounds a scenario's horizon at one Julian century. Far
// past it the weather calendar time (start + t, in nanoseconds) would
// wrap, near 9.2e9 s.
const maxHorizonSec = 100 * 365.25 * 86400

// Validate checks the scenario's own bounds, the part of
// CompiledSpec.Check that needs no spec: a positive horizon of at most a
// century, a finite non-negative tick (0 keeps the default), and a known
// engine. Callers that hold a compiled spec call Check, which runs
// Validate first.
func (sc *Scenario) Validate() error {
	if !(sc.HorizonSec > 0 && sc.HorizonSec <= maxHorizonSec) {
		return fmt.Errorf("core: scenario horizon_sec must be positive and at most %g (a century), got %v", float64(maxHorizonSec), sc.HorizonSec)
	}
	if !(sc.TickSec >= 0) || math.IsInf(sc.TickSec, 1) {
		return fmt.Errorf("core: scenario tick_sec must be finite and non-negative, got %v", sc.TickSec)
	}
	switch sc.Engine {
	case "", "event", "dense":
		return nil
	}
	return fmt.Errorf("core: unknown engine %q (want \"event\" or \"dense\")", sc.Engine)
}

// Result carries everything a scenario produced.
type Result struct {
	Scenario Scenario
	Report   *raps.Report
	History  []raps.Sample
	// Dataset is the exported telemetry of the run.
	Dataset *telemetry.Dataset
	// WallSec is the wall-clock cost of the run in seconds — the
	// per-scenario timing batch sweeps and ablations report.
	WallSec float64
}

// Twin is a live digital twin of one system.
type Twin struct {
	Spec config.SystemSpec

	compiled *CompiledSpec

	// mu guards the most recent run: the dashboard's viz endpoints read
	// it from HTTP goroutines while a library caller may drive a new run
	// on the same Twin.
	mu  sync.Mutex
	sim *raps.Simulation
}

// setRun publishes a run. It is called once the simulation has stopped
// ticking (completed, failed, or aborted), so viz readers never observe
// a live simulation's mutating internals.
func (tw *Twin) setRun(sim *raps.Simulation) {
	tw.mu.Lock()
	tw.sim = sim
	tw.mu.Unlock()
}

// NewFrontier builds a twin of Frontier.
func NewFrontier() (*Twin, error) { return NewFromSpec(config.Frontier()) }

// NewFromSpec builds a twin from a machine specification. The twin owns
// a private CompiledSpec, so repeated Run calls (including across power
// modes) reuse the same power models and cooling design; batch sweeps
// share one CompiledSpec across every worker instead.
func NewFromSpec(spec config.SystemSpec) (*Twin, error) {
	cs, err := Compile(spec)
	if err != nil {
		return nil, err
	}
	return cs.Twin(), nil
}

// partIDStride separates the job-ID namespaces of different partitions
// in merged telemetry: partition i's generated jobs are offset by
// i·partIDStride (partition 0 keeps its IDs, so single-partition runs
// are unchanged).
const partIDStride = 10_000_000

// partitionWorkloads resolves the scenario to one workload config for
// each of n spec partitions. An explicit Scenario.Partitions list is used
// as given (CompiledSpec.Check has matched its length to the spec); an
// empty list replicates the scenario-level workload onto all of them
// (replay runs on the first partition only — a dataset describes one
// machine's job stream).
func partitionWorkloads(sc *Scenario, n int) []PartitionScenario {
	if len(sc.Partitions) != 0 {
		return sc.Partitions
	}
	ps := make([]PartitionScenario, n)
	for i := range ps {
		ps[i] = PartitionScenario{
			Workload:         sc.Workload,
			Generator:        sc.Generator,
			BenchmarkWallSec: sc.BenchmarkWallSec,
		}
		if sc.Workload == WorkloadReplay && i > 0 {
			ps[i].Workload = WorkloadIdle
		}
	}
	return ps
}

// buildJobs realizes one partition's workload, which CompiledSpec.Check
// has accepted.
func buildJobs(sc *Scenario, ps *PartitionScenario, model *power.Model) ([]*job.Job, error) {
	wall := ps.BenchmarkWallSec
	if wall <= 0 {
		wall = 2 * 3600
	}
	var jobs []*job.Job
	switch ps.Workload {
	case WorkloadPeak:
		j := job.New(1, "peak", model.Topo.NodesTotal, sc.HorizonSec+1, 0)
		if err := j.ApplyFingerprint(job.FPMax); err != nil {
			return nil, err
		}
		jobs = []*job.Job{j}
	case WorkloadHPL:
		jobs = []*job.Job{job.NewHPL(1, 0, wall)}
	case WorkloadOpenMxP:
		jobs = []*job.Job{job.NewOpenMxP(1, 0, wall)}
	case WorkloadSynthetic:
		cfg := ps.Generator
		if cfg.ArrivalMeanSec == 0 {
			cfg = job.DefaultGeneratorConfig()
		}
		// Clamp the node cap to the partition: an uncapped or
		// over-sized generator (MaxNodes 0 or above the partition's node
		// count — e.g. the Frontier-calibrated defaults against a small
		// partition) would emit jobs no scheduler can ever place, and
		// one infeasible job head-of-line blocks FCFS for the rest of
		// the run.
		if cfg.MaxNodes <= 0 || cfg.MaxNodes > model.Topo.NodesTotal {
			cfg.MaxNodes = model.Topo.NodesTotal
		}
		jobs = job.NewGenerator(cfg).GenerateHorizon(sc.HorizonSec)
	case WorkloadReplay:
		jobs = raps.JobsFromDataset(sc.Dataset, model.Spec)
	}
	if ps.MaxJobs > 0 && len(jobs) > ps.MaxJobs {
		jobs = jobs[:ps.MaxJobs]
	}
	return jobs, nil
}

// buildPartitions assembles the raps partitions for a scenario: one per
// spec partition, each with its own power model and realized job stream.
// Generated job IDs of partition i > 0 are offset into their own
// namespace so merged telemetry stays unambiguous.
func (tw *Twin) buildPartitions(sc *Scenario, models []*power.Model) ([]raps.Partition, error) {
	workloads := partitionWorkloads(sc, len(models))
	parts := make([]raps.Partition, len(models))
	for i := range models {
		jobs, err := buildJobs(sc, &workloads[i], models[i])
		if err != nil {
			return nil, fmt.Errorf("core: partition %q: %w", tw.Spec.Partitions[i].Name, err)
		}
		if i > 0 {
			for _, j := range jobs {
				j.ID += i * partIDStride
			}
		}
		parts[i] = raps.Partition{
			Name:  tw.Spec.Partitions[i].Name,
			Model: models[i],
			Jobs:  jobs,
		}
	}
	return parts, nil
}

// Run executes a scenario to completion and returns its result.
func (tw *Twin) Run(sc Scenario) (*Result, error) {
	return tw.RunContext(context.Background(), sc)
}

// RunContext executes a scenario under a context: cancellation aborts
// the simulation at the next tick boundary (mid-day, not between
// scenarios) and returns the context's error. This is the run path the
// sweep service drives, so a cancelled sweep stops paying for its
// in-flight days. A scenario CompiledSpec.Check refuses fails before any
// work, with Check's error. It is RunLockstep of the one scenario.
func (tw *Twin) RunContext(ctx context.Context, sc Scenario) (*Result, error) {
	res, err := tw.RunLockstep(ctx, []Scenario{sc})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// CanLockstep reports whether sc may share a lockstep run with its
// power-mode siblings: an uncooled event-engine scenario with no
// telemetry writer whose result is its report alone (NoExport and
// NoHistory). The plant's heat, the samples and the export differ by
// power mode, and the dense engine is the reference path.
func (sc *Scenario) CanLockstep() bool {
	return !sc.Cooling && sc.CoolingSpec == nil && sc.Engine != "dense" &&
		sc.TelemetryTo == nil && sc.NoExport && sc.NoHistory
}

// ModeSiblings reports whether a and b can run in lockstep: both
// CanLockstep and they differ at most in power mode and name, which
// labels a result but does not change the run.
func ModeSiblings(a, b *Scenario) bool {
	if !a.CanLockstep() || !b.CanLockstep() {
		return false
	}
	x, y := *a, *b
	x.Name, x.PowerMode = "", ""
	y.Name, y.PowerMode = "", ""
	return reflect.DeepEqual(x, y)
}

// RunLockstep executes scenarios that are ModeSiblings of the first as
// one run: one job stream, one schedule and one event loop, with each
// scenario's power mode evaluated as its own conversion chain over the
// shared power slots. It returns one Result per scenario, in order, each
// with the Report its own RunContext would give bit for bit; WallSec is
// the whole run's. Cancellation and refusals are as for RunContext.
func (tw *Twin) RunLockstep(ctx context.Context, scs []Scenario) ([]*Result, error) {
	if len(scs) == 0 {
		return nil, fmt.Errorf("core: lockstep run needs a scenario")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if tw.compiled == nil {
		// Twin built as a literal rather than through NewFromSpec /
		// CompiledSpec.Twin: compile its spec on first use.
		cs, err := Compile(tw.Spec)
		if err != nil {
			return nil, err
		}
		tw.compiled = cs
	}
	start := time.Now()
	sc := &scs[0]
	design, err := tw.compiled.check(sc)
	if err != nil {
		return nil, err
	}
	models, err := tw.compiled.Models(sc.PowerMode)
	if err != nil {
		return nil, err
	}
	parts, err := tw.buildPartitions(sc, models)
	if err != nil {
		return nil, err
	}
	for k := 1; k < len(scs); k++ {
		if !ModeSiblings(sc, &scs[k]) {
			return nil, fmt.Errorf("core: lockstep scenario %d is not a power-mode sibling of scenario 0", k)
		}
		mk, err := tw.compiled.Models(scs[k].PowerMode)
		if err != nil {
			return nil, err
		}
		for p := range parts {
			if k == 1 {
				parts[p].Chains = []power.ConversionChain{models[p].Chain}
			}
			parts[p].Chains = append(parts[p].Chains, mk[p].Chain)
		}
	}
	rcfg := raps.DefaultConfig()
	if sc.TickSec > 0 {
		rcfg.TickSec = sc.TickSec
	}
	if sc.Policy != "" {
		rcfg.Policy = sc.Policy
	}
	rcfg.Engine = raps.EngineEvent
	if sc.Engine == "dense" {
		rcfg.Engine = raps.EngineDense
	}
	rcfg.NoHistory = sc.NoHistory
	rcfg.EnableCooling = design != nil
	rcfg.CoolingDesign = design
	rcfg.WetBulbC = tw.wetBulbFunc(sc)

	name := sc.Name
	if name == "" {
		name = string(sc.Workload)
	}
	// Streaming sink: series samples leave through the writer as the run
	// records them; job records follow once the run is over. The sink
	// and ExportTelemetry convert samples through the same
	// SeriesPointAt, so stream and export agree bit for bit.
	var stream *telemetry.StreamWriter
	var sim *raps.Simulation
	if sc.TelemetryTo != nil {
		stream = telemetry.NewStreamWriter(sc.TelemetryTo, name, raps.HistoryDtSec)
		rcfg.OnSample = func(smp raps.Sample) { stream.Series(sim.SeriesPointAt(smp)) }
	}

	sim, err = raps.NewMulti(rcfg, parts)
	if err != nil {
		return nil, err
	}
	_, err = sim.RunContext(ctx, sc.HorizonSec)
	// Publish after the tick loop stops (even on error/abort): the
	// dashboard serves the most recent settled run, and partial state of
	// an aborted run stays inspectable via Simulation().
	tw.setRun(sim)
	if err != nil {
		return nil, err
	}
	if stream != nil {
		sim.ForEachJobRecord(func(r telemetry.JobRecord) { stream.Job(r) })
		if err := stream.Flush(); err != nil {
			return nil, fmt.Errorf("core: telemetry stream: %w", err)
		}
	}
	reports := sim.Reports()
	out := make([]*Result, len(scs))
	for k := range scs {
		out[k] = &Result{Scenario: scs[k], Report: reports[k], History: sim.History()}
	}
	if !sc.NoExport {
		out[0].Dataset = sim.ExportTelemetry(name)
	}
	wall := time.Since(start).Seconds()
	for _, res := range out {
		res.WallSec = wall
	}
	return out, nil
}

func (tw *Twin) wetBulbFunc(sc *Scenario) func(float64) float64 {
	if sc.WetBulbC != 0 {
		wb := sc.WetBulbC
		return func(float64) float64 { return wb }
	}
	start := sc.WeatherStart
	if start.IsZero() {
		start = time.Date(2024, 4, 7, 0, 0, 0, 0, time.UTC)
	}
	wcfg := weather.DefaultConfig()
	if sc.WeatherSeed != 0 {
		wcfg.Seed = sc.WeatherSeed
	}
	return weather.NewSource(wcfg, start).At
}

// Simulation exposes the most recent run's simulation (nil before any
// run), for white-box inspection by experiments.
func (tw *Twin) Simulation() *raps.Simulation {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return tw.sim
}

// Status implements viz.Source over the most recent run.
func (tw *Twin) Status() viz.Status {
	sim := tw.Simulation()
	if sim == nil {
		return viz.Status{}
	}
	hist := sim.History()
	if len(hist) == 0 {
		return viz.Status{}
	}
	last := hist[len(hist)-1]
	st := viz.Status{
		TimeSec:     last.TimeSec,
		PowerMW:     last.PowerW / 1e6,
		LossMW:      last.LossW / 1e6,
		Utilization: last.Utilization,
		PUE:         last.PUE,
		JobsRunning: last.JobsRunning,
		JobsPending: last.JobsPending,
	}
	st.PartPowerMW = partMW(last.PartPowerW)
	return st
}

// partMW converts a per-partition watt vector to MW (nil in → nil out,
// keeping single-partition JSON documents unchanged).
func partMW(partW []float64) []float64 {
	if len(partW) == 0 {
		return nil
	}
	out := make([]float64, len(partW))
	for i, w := range partW {
		out[i] = w / 1e6
	}
	return out
}

// Series implements viz.Source.
func (tw *Twin) Series() []viz.SeriesPoint {
	sim := tw.Simulation()
	if sim == nil {
		return nil
	}
	hist := sim.History()
	out := make([]viz.SeriesPoint, len(hist))
	for i, smp := range hist {
		out[i] = viz.SeriesPoint{
			TimeSec: smp.TimeSec,
			PowerMW: smp.PowerW / 1e6,
			PUE:     smp.PUE,
			Util:    smp.Utilization,
			PartMW:  partMW(smp.PartPowerW),
		}
	}
	return out
}

// CoolingOutputs implements viz.Source: the named per-channel snapshot
// of the most recent cooled run's plant (317 channels on Frontier), or
// nil. Names come from the coupled plant's config, so dashboard labels
// follow SystemSpec.Cooling (or the scenario's override) instead of
// assuming a Frontier-shaped plant.
func (tw *Twin) CoolingOutputs() map[string]float64 {
	sim := tw.Simulation()
	if sim == nil {
		return nil
	}
	plant := sim.CoolingPlant()
	if plant == nil {
		return nil
	}
	vec := plant.Snapshot().Vector()
	names := cooling.OutputNames(plant.Config())
	out := make(map[string]float64, len(vec))
	for i, n := range names {
		out[n] = vec[i]
	}
	return out
}
