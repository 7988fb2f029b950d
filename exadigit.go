// Package exadigit is a Go reproduction of ExaDigiT — the open-source
// digital-twin framework for liquid-cooled supercomputers presented in
// "A Digital Twin Framework for Liquid-cooled Supercomputers as
// Demonstrated at Exascale" (SC 2024) — demonstrated, as in the paper, on
// a full-scale model of the Frontier exascale system.
//
// The twin couples three subsystems:
//
//   - RAPS, the Resource Allocator and Power Simulator: job scheduling
//     (FCFS/SJF/EASY-backfill), per-node dynamic power from CPU/GPU
//     utilization traces, and the AC→DC rectification / DC-DC SIVOC
//     conversion-loss chain;
//   - a transient thermo-fluid model of the cooling plant (25 CDU loops,
//     the primary high-temperature-water loop, and the cooling-tower
//     loop with its PID + staging control system), which RAPS steps
//     directly every 15 s and which outside co-simulation drivers reach
//     through an FMI-style interface (NewCoolingFMU);
//   - telemetry and visual analytics: Table II-schema datasets for
//     replay-based verification and validation, an ASCII dashboard, and
//     an HTTP/JSON API.
//
// Quick start:
//
//	tw, err := exadigit.NewFrontierTwin()
//	if err != nil { ... }
//	res, err := tw.Run(exadigit.Scenario{
//		Workload:   exadigit.WorkloadSynthetic,
//		HorizonSec: 4 * 3600,
//		TickSec:    15,
//		Cooling:    true,
//	})
//	fmt.Printf("avg power %.1f MW, PUE %.3f\n",
//		res.Report.AvgPowerMW, res.Report.AvgPUE)
//
// Every table and figure of the paper's evaluation can be regenerated
// with cmd/experiments, which prints each result in the paper's format.
package exadigit

import (
	"net/http"

	"exadigit/internal/anomaly"
	"exadigit/internal/autocsm"
	"exadigit/internal/cluster"
	"exadigit/internal/config"
	"exadigit/internal/cooling"
	"exadigit/internal/core"
	"exadigit/internal/fmu"
	"exadigit/internal/httpmw"
	"exadigit/internal/job"
	"exadigit/internal/obs"
	"exadigit/internal/optimize"
	"exadigit/internal/raps"
	"exadigit/internal/service"
	"exadigit/internal/store"
	"exadigit/internal/surrogate"
	"exadigit/internal/telemetry"
	"exadigit/internal/uq"
	"exadigit/internal/viz"
)

// Core twin types.
type (
	// Twin is a live digital twin of one system (Fig. 1's architecture).
	Twin = core.Twin
	// Scenario describes one simulation or what-if run.
	Scenario = core.Scenario
	// PartitionScenario configures one partition's workload in a
	// multi-partition scenario (Scenario.Partitions) — the §V
	// heterogeneous-system axis.
	PartitionScenario = core.PartitionScenario
	// Result carries a scenario's report, history, and telemetry export.
	Result = core.Result
	// WorkloadKind selects how a scenario's jobs are produced.
	WorkloadKind = core.WorkloadKind
	// Report is the §III-B5 end-of-run summary.
	Report = raps.Report
	// PartitionReport is one partition's share of a multi-partition
	// run's report (Report.Partitions).
	PartitionReport = raps.PartitionReport
	// Sample is one recorded history point (Fig. 9's series).
	Sample = raps.Sample
)

// Configuration types (§V's JSON generalization).
type (
	// SystemSpec is the machine description consumed from JSON.
	SystemSpec = config.SystemSpec
	// PartitionSpec describes one scheduling partition.
	PartitionSpec = config.PartitionSpec
	// CoolingSpec is the AutoCSM input.
	CoolingSpec = config.CoolingSpec
	// CoolingConfig is a fully sized cooling-plant model.
	CoolingConfig = cooling.Config
	// CoolingSolverStats is the plant thermal-solver work accounting
	// (adaptive step counts, control updates, quiescent time); read it
	// from Twin.Simulation().CoolingSolverStats() after a cooled run.
	CoolingSolverStats = cooling.SolverStats
	// SpecFieldError is the structured validation/feasibility error
	// (field, violated constraint, suggested fix) that spec compilation
	// and the sweep service surface for malformed or unsizable plants.
	SpecFieldError = config.FieldError
)

// Telemetry and workload types (Table II, §III-B).
type (
	// Dataset is a replayable telemetry capture.
	Dataset = telemetry.Dataset
	// JobRecord is the Table II job schema with 15 s power traces.
	JobRecord = telemetry.JobRecord
	// GeneratorConfig tunes the synthetic workload generator.
	GeneratorConfig = job.GeneratorConfig
	// Job is one schedulable unit of work with utilization traces.
	Job = job.Job
)

// NewJob constructs a pending job; fill its traces with FlatTrace or a
// fingerprint before running.
func NewJob(id int, name string, nodes int, wallSec, submit float64) *Job {
	return job.New(id, name, nodes, wallSec, submit)
}

// FlatTrace builds a constant-utilization trace covering wallSec.
func FlatTrace(util, wallSec float64) []float64 { return job.FlatTrace(util, wallSec) }

// FMU co-simulation types (§III-C6).
type (
	// FMU is the cooling model behind the FMI-style interface, for
	// co-simulation drivers outside the twin (RAPS steps the plant
	// directly).
	FMU = fmu.Instance
	// ValueRef identifies an FMU variable.
	ValueRef = fmu.ValueRef
)

// Workload kinds.
const (
	WorkloadIdle      = core.WorkloadIdle
	WorkloadPeak      = core.WorkloadPeak
	WorkloadHPL       = core.WorkloadHPL
	WorkloadOpenMxP   = core.WorkloadOpenMxP
	WorkloadSynthetic = core.WorkloadSynthetic
	WorkloadReplay    = core.WorkloadReplay
)

// NewFrontierTwin builds a digital twin of Frontier with the published
// Table I configuration.
func NewFrontierTwin() (*Twin, error) { return core.NewFrontier() }

// RunBatch executes a battery of scenarios against one machine
// specification across a worker pool (runtime.NumCPU() when workers ≤ 0)
// — the fan-out behind multi-day replays and what-if sweeps. Results are
// indexed like the input scenarios.
func RunBatch(spec SystemSpec, scenarios []Scenario, workers int) ([]*Result, error) {
	return core.RunBatch(spec, scenarios, workers)
}

// NewTwin builds a twin from a machine specification.
func NewTwin(spec SystemSpec) (*Twin, error) { return core.NewFromSpec(spec) }

// Twin-as-a-service types (§III-B6): the long-running scenario-sweep
// backend with a shared worker pool, per-spec compiled state, and a
// content-addressed result cache.
type (
	// SweepService is the concurrent scenario-sweep server.
	SweepService = service.Service
	// SweepServiceOptions sizes the worker pool and result cache.
	SweepServiceOptions = service.Options
	// Sweep is one submitted battery of scenarios.
	Sweep = service.Sweep
	// SweepOptions parameterizes one submission.
	SweepOptions = service.SweepOptions
	// SweepStatus is a point-in-time sweep snapshot.
	SweepStatus = service.SweepStatus
	// SweepRecoverStats summarizes a SweepService.Recover pass: the
	// durable sweep journal (written into the result store's directory)
	// lets a restarted service re-adopt interrupted sweeps instead of
	// losing them — `exadigit serve -store DIR -resume`.
	SweepRecoverStats = service.RecoverStats
	// CompiledSpec shares per-spec power models and the cooling FMU
	// design read-only across scenario runs.
	CompiledSpec = core.CompiledSpec
	// ResultStore is the durable content-addressed result store layered
	// under the sweep service's in-memory cache: completed scenario
	// results persist to disk keyed by (spec hash, scenario hash) and
	// survive process restarts (`exadigit serve -store DIR`).
	ResultStore = store.Store
	// ResultStoreMetrics is the store's observability snapshot (hits,
	// misses, puts, quarantined-corrupt entries, resident bytes).
	ResultStoreMetrics = store.Metrics
)

// OpenResultStore opens (or creates) a durable result store rooted at
// dir, rebuilding its index by scanning existing entries. Truncated or
// unreadable entries are quarantined, never served. Pass the store to
// SweepServiceOptions.Store to make a sweep service crash-safe.
func OpenResultStore(dir string) (*ResultStore, error) { return store.Open(dir) }

// ResultStoreOptions tunes OpenResultStoreOptions: QuarantineTTL ages
// out *.corrupt quarantine files at open.
type ResultStoreOptions = store.Options

// OpenResultStoreOptions is OpenResultStore with maintenance options —
// `exadigit serve -quarantine-ttl` routes here so corrupt-entry
// forensics don't accumulate forever on long-lived nodes.
func OpenResultStoreOptions(dir string, opts ResultStoreOptions) (*ResultStore, error) {
	return store.OpenOptions(dir, opts)
}

// Distributed sweep fabric (the coordinator side): a ClusterPool fans a
// sweep's scenarios out to remote worker `exadigit serve` instances over
// the same /api/sweeps API and streams results back. Install one as
// SweepServiceOptions.Runner to turn a sweep service into a coordinator;
// exactly-once compute across nodes comes from the shared store's leases
// (SweepServiceOptions.LeaseTTL on the workers), not from the pool.
type (
	// ClusterPool is the coordinator's worker client pool; it implements
	// the sweep service's ScenarioRunner dispatch seam.
	ClusterPool = cluster.Pool
	// ClusterOptions configures a ClusterPool (worker URLs, bearer
	// token, shared store, health probing); the backpressure bounds
	// are fixed.
	ClusterOptions = cluster.Options
)

// NewClusterPool builds the coordinator's worker client pool from the
// worker base URLs in opts. At least one worker is required.
func NewClusterPool(opts ClusterOptions) (*ClusterPool, error) { return cluster.New(opts) }

// NewSweepService builds the scenario-sweep server. Mount its Handler()
// under /api/sweeps (see cmd/exadigit serve) or drive it directly with
// Submit.
func NewSweepService(opts SweepServiceOptions) *SweepService { return service.New(opts) }

// CompileSpec validates a spec and precompiles its shared artifacts —
// power models and cooling FMU design — for reuse across every scenario
// run against it (CompiledSpec.RunBatch, CompiledSpec.Twin).
func CompileSpec(spec SystemSpec) (*CompiledSpec, error) { return core.Compile(spec) }

// HashScenario returns a scenario's canonical content hash — the
// scenario half of the sweep service's (spec, scenario) cache key.
func HashScenario(sc Scenario) (string, error) { return service.HashScenario(sc) }

// FrontierSpec returns the built-in Frontier system specification.
func FrontierSpec() SystemSpec { return config.Frontier() }

// SetonixLikeSpec returns a two-partition (CPU + GPU) machine in the
// style of Pawsey's Setonix, demonstrating the §V generalization.
func SetonixLikeSpec() SystemSpec { return config.SetonixLike() }

// LoadSpec reads a system specification from a JSON file.
func LoadSpec(path string) (*SystemSpec, error) { return config.LoadFile(path) }

// LoadTelemetry reads a telemetry dataset directory written by
// Dataset.Save: one dataset.ndjson file in the NDJSON stream format.
func LoadTelemetry(dir string) (*Dataset, error) { return telemetry.Load(dir) }

// DefaultGeneratorConfig returns the Table IV-calibrated synthetic
// workload parameters.
func DefaultGeneratorConfig() GeneratorConfig { return job.DefaultGeneratorConfig() }

// GenerateCoolingModel sizes a complete cooling plant from a high-level
// specification (the paper's AutoCSM, §V).
func GenerateCoolingModel(spec CoolingSpec) (CoolingConfig, error) { return autocsm.Generate(spec) }

// CompileCoolingSpec resolves a CoolingSpec the way the twin's cooling
// pipeline does: a preset name yields its hand-calibrated plant
// verbatim, anything else is synthesized by AutoCSM. This is the
// function behind CompiledSpec.CoolingDesign and per-scenario cooling
// overrides.
func CompileCoolingSpec(spec CoolingSpec) (CoolingConfig, error) { return autocsm.Compile(spec) }

// FrontierCoolingModel returns the hand-calibrated Frontier plant (the
// "frontier" cooling preset).
func FrontierCoolingModel() CoolingConfig { return cooling.Frontier() }

// RegisterCoolingPreset installs a named plant configuration in the
// runtime preset registry, resolved by the spec pipeline before the
// built-in presets — calibrated plants ship as data, not rebuilds.
func RegisterCoolingPreset(name string, cfg CoolingConfig) error {
	return cooling.RegisterPreset(name, cfg)
}

// RegisterCoolingPresetsFromJSON registers every plant in a
// {"name": {plant config}} JSON document, returning the names.
func RegisterCoolingPresetsFromJSON(data []byte) ([]string, error) {
	return cooling.RegisterPresetsFromJSON(data)
}

// RegisterCoolingPresetsFromFile loads a preset registry JSON file (see
// RegisterCoolingPresetsFromJSON); `exadigit serve -presets` calls this
// at startup.
func RegisterCoolingPresetsFromFile(path string) ([]string, error) {
	return cooling.RegisterPresetsFromFile(path)
}

// Observability types: the unified metric registry behind the
// Prometheus-format /metrics exposition and the per-scenario lifecycle
// tracer behind /api/sweeps/trace (`exadigit serve` wires both).
type (
	// MetricsRegistry is the dependency-free metric registry. The sweep
	// service reports into one (SweepServiceOptions.Registry, or a
	// private one reachable via SweepService.Registry()); mount its
	// Handler() as /metrics.
	MetricsRegistry = obs.Registry
	// ScenarioTracer is the bounded ring buffer of scenario lifecycle
	// spans (SweepService.Tracer()); SetSink attaches an NDJSON file.
	ScenarioTracer = obs.Tracer
	// ScenarioSpan is one scenario's recorded lifecycle: queue wait,
	// per-attempt wait/run/outcome, cache tier, and terminal state.
	ScenarioSpan = obs.Span
	// MetricsExposition is a parsed Prometheus text exposition — the
	// strict validator behind scripts/metrics_lint.sh.
	MetricsExposition = obs.Exposition
)

// NewMetricsRegistry builds an empty metric registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// RegisterGoMetrics attaches Go runtime series (goroutines, heap/stack
// bytes, GC cycles and pause time) to the registry.
func RegisterGoMetrics(reg *MetricsRegistry) { obs.RegisterGoCollector(reg) }

// RegisterTwinMetrics attaches the live twin's last-run gauges (power,
// per-partition power, PUE, utilization, queue depth, cooling-solver
// work) to the registry — collected at scrape time, zero cost on the
// simulation tick path.
func RegisterTwinMetrics(reg *MetricsRegistry, tw *Twin) { core.RegisterTwinMetrics(reg, tw) }

// ParseMetricsExposition runs the strict text-exposition validator:
// HELP/TYPE discipline, family contiguity, duplicate-series and
// counter-monotonicity checks, histogram bucket invariants.
func ParseMetricsExposition(data []byte) (*MetricsExposition, error) {
	return obs.ParseExposition(data)
}

// ValidateMetricsConventions enforces the repo's metric naming rules on
// a parsed exposition: every family carries the prefix, counters end in
// _total, histograms in _seconds or _bytes.
func ValidateMetricsConventions(e *MetricsExposition, prefix string) error {
	return obs.ValidateConventions(e, prefix)
}

// RequireBearerToken wraps an HTTP handler with bearer-token auth
// (httpmw.RequireBearer): every request must carry
// "Authorization: Bearer <token>" or is rejected with a 401. An empty
// token disables enforcement — the opt-in knob behind
// `exadigit serve -token` / EXADIGIT_TOKEN.
func RequireBearerToken(token string, h http.Handler) http.Handler {
	return httpmw.RequireBearer(token, h)
}

// NewCoolingFMU instantiates the cooling model behind the FMI-style
// co-simulation interface (SetReal / DoStep / GetReal). It is the
// public co-simulation surface: its DoStep advances the same plant, under
// the same inputs, that a cooled twin run steps at each 15 s coupling.
func NewCoolingFMU(cfg CoolingConfig) (*FMU, error) { return fmu.Instantiate(cfg) }

// DashboardServer is the viz REST backend; expose it (rather than just
// its Handler) to enable request logging or read the middleware metrics.
type DashboardServer = viz.Server

// NewDashboardServer builds the dashboard REST backend over the twin.
// Its Handler serves the read-only /api/status, /api/series and
// /api/cooling behind the shared middleware stack (panic recovery,
// request metrics, optional logging via SetLogf); its request counters
// reach /metrics through RegisterMetrics. What-if experiments are
// sweeps: submit them to a SweepService.
func NewDashboardServer(tw *Twin) *DashboardServer {
	return viz.NewServer(tw)
}

// DashboardHandler returns the HTTP handler serving the twin's REST API
// (/api/status, /api/series, /api/cooling) — the data source the
// paper's web dashboard consumes.
func DashboardHandler(tw *Twin) http.Handler {
	return NewDashboardServer(tw).Handler()
}

// RenderStatus draws a terminal dashboard frame for the twin's most
// recent run.
func RenderStatus(tw *Twin) string {
	st := tw.Status()
	panel := viz.StatusPanel{
		TimeSec:     st.TimeSec,
		PowerMW:     st.PowerMW,
		LossMW:      st.LossMW,
		Utilization: st.Utilization,
		PUE:         st.PUE,
		JobsRunning: st.JobsRunning,
		JobsPending: st.JobsPending,
	}
	for _, p := range tw.Series() {
		panel.PowerSeriesMW = append(panel.PowerSeriesMW, p.PowerMW)
	}
	if sim := tw.Simulation(); sim != nil {
		for _, w := range sim.PerRackPowerW() {
			panel.RackPowerKW = append(panel.RackPowerKW, w/1e3)
		}
		if plant := sim.CoolingPlant(); plant != nil {
			o := plant.Snapshot()
			panel.HTWSupplyC = o.FacilitySupplyC
			panel.HTWReturnC = o.FacilityReturnC
			panel.CellsStaged = o.NumCellsStaged
			panel.TotalCells = len(o.FanPowerW)
		}
	}
	return panel.Render()
}

// Diagnostics, uncertainty quantification, and higher twin levels.

// AnomalyDetector evaluates the rule-based health monitors of §III-A
// (blockage, thermal-throttle risk, sustained temperature excursions,
// PUE degradation) against cooling snapshots.
type AnomalyDetector = anomaly.Detector

// AnomalyAlarm is one detected condition.
type AnomalyAlarm = anomaly.Alarm

// NewAnomalyDetector builds a detector with fixed Frontier-appropriate
// thresholds: a CDU's secondary flow 15 % below its peers' median, a
// secondary supply 2 °C over its 32 °C setpoint for 8 consecutive
// steps, a PUE above 1.10, and a device estimate within 5 °C of its
// 95 °C throttling limit. The thresholds are not configurable.
func NewAnomalyDetector() *AnomalyDetector { return anomaly.NewDetector() }

// UQConfig parameterizes an uncertainty-quantification ensemble (§IV's
// VVUQ requirement).
type UQConfig = uq.Config

// UQResult carries ensemble confidence intervals on power, energy,
// losses, efficiency, and carbon.
type UQResult = uq.Result

// RunUQ executes an ensemble of perturbed-model simulations over the
// same workload; jobsFactory may be nil for an idle study.
func RunUQ(cfg UQConfig, jobsFactory func() []*job.Job) (*UQResult, error) {
	return uq.Run(cfg, jobsFactory)
}

// PUESurrogate is the L3 data-driven model trained on L4 simulation
// sweeps (Fig. 2's predictive-twin level).
type PUESurrogate = surrogate.PUESurrogate

// TrainPUESurrogate sweeps the cooling plant over the given heat-load and
// wet-bulb grids and fits a real-time PUE/aux-power surrogate.
func TrainPUESurrogate(cfg CoolingConfig, heatsMW, wetBulbsC []float64) (*PUESurrogate, error) {
	return surrogate.TrainPUESurrogate(cfg, heatsMW, wetBulbsC)
}

// Closed-loop co-design optimizer (the L5 autonomous level run against
// the full twin): a multi-objective search over design and control
// knobs whose outer loop evaluates candidates as sweep-service
// scenarios and whose inner loop screens them on an online-trained,
// conformal-gated surrogate. Submit studies programmatically via
// SweepService.SubmitStudy or over HTTP at POST /api/optimize. A
// steady-state setpoint study searches cooling.ct_supply_set_c and
// cooling.htw_header_set_pa with the objective aux_mw.
type (
	// OptimizeKnob is one search dimension (see OptimizeKnobNames).
	OptimizeKnob = optimize.Knob
	// OptimizeObjective is one report metric to minimize or maximize.
	OptimizeObjective = optimize.Objective
	// OptimizeConstraint bounds a report metric for feasibility.
	OptimizeConstraint = optimize.Constraint
	// OptimizeStudySpec configures a study: knobs, objectives,
	// constraints, population, generations, surrogate/UQ settings.
	OptimizeStudySpec = optimize.StudySpec
	// OptimizeCandidate is one twin-evaluated design point.
	OptimizeCandidate = optimize.Candidate
	// OptimizeStudyResult is the completed study: baseline, best,
	// twin-exact Pareto frontier, and evaluation accounting.
	OptimizeStudyResult = optimize.StudyResult
	// OptimizeProgress is one generation's cumulative study snapshot.
	OptimizeProgress = optimize.Progress
	// Study is a running or finished study handle (SweepService.SubmitStudy).
	Study = service.Study
	// StudyOptions names a study and opts into surrogate warm-starting.
	StudyOptions = service.StudyOptions
	// StudyStatus is a study's observable snapshot.
	StudyStatus = service.StudyStatus
)

// OptimizeKnobNames lists every knob the co-design search space
// supports: plant setpoints, AutoCSM design quantities, solver choice,
// scenario timing/weather, and workload mix.
func OptimizeKnobNames() []string {
	return optimize.KnobNames()
}
