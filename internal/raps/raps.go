// Package raps implements the Resource Allocator and Power Simulator —
// the paper's core module (§III-B, Algorithm 1). A Simulation advances
// one-second ticks: arriving jobs enter the pending queue, the scheduler
// assigns nodes, per-node power follows the CPU/GPU utilization traces
// through the Eq. 3 component model with Eq. 1-2 conversion losses, and
// every 15 s the aggregated per-CDU heat steps the cooling plant (the
// paper couples the same 15 s exchange through an FMU, §III-C6; here RAPS
// calls the plant directly, and the fmu package keeps the FMI-shaped
// surface for outside co-simulation drivers). At the end of a run the
// §III-B5 report is produced:
// jobs completed, throughput, average power, energy, losses, CO₂
// emissions (Eq. 6), and electricity cost.
//
// A Simulation couples one or more partitions (§V's multi-partition
// generalization, Setonix-style): each partition owns its scheduler, job
// stream, and power engine, while all partitions share the simulation
// clock and feed their heat into the single cooling plant — partition
// p's CDU loops occupy the contiguous index range after partition p-1's
// in the plant coupling. Single-partition callers use New; NewMulti
// takes the explicit partition list.
//
// A run can also evaluate several conversion chains — the power modes of
// §IV-3 — in lockstep over its one job stream and schedule
// (Partition.Chains): the jobs, the scheduler, the event loop and the
// per-job energy are shared, and each chain keeps its own report
// accumulators, a view whose Report is bit-identical to a run under
// that chain alone (Reports).
//
// Utilization is piecewise-constant — it changes only when a job starts,
// ends, or crosses a 15 s trace quantum — so the default EngineEvent
// evaluates power incrementally (power.Incremental dirty-chassis deltas)
// and Run integrates the accumulators analytically across event-free tick
// gaps. A gap is only skippable when every partition is quiet: any
// partition's arrival, completion, quantum crossing, or pinned start is
// an event for the whole machine. EngineDense keeps the original dense
// sweep as the reference implementation; equivalence is pinned by
// TestEventEngineMatchesDense.
package raps

import (
	"context"
	"fmt"
	"math"
	"sort"

	"exadigit/internal/cooling"
	"exadigit/internal/fmu"
	"exadigit/internal/job"
	"exadigit/internal/power"
	"exadigit/internal/sched"
	"exadigit/internal/telemetry"
	"exadigit/internal/units"
)

// Engine selects the power-evaluation strategy.
type Engine int

const (
	// EngineEvent (the default) tracks dirty chassis through
	// power.Incremental and skips event-free tick gaps analytically.
	// Results match EngineDense bit-for-bit on the report accumulators
	// for chassis-aligned topologies (and to ≲1e-12 otherwise).
	EngineEvent Engine = iota
	// EngineDense re-evaluates every node every tick through
	// Model.Compute — the reference implementation, kept for
	// verification and as the baseline in perf comparisons.
	EngineDense
)

// HistoryDtSec is the sampling period of the recorded series (15 s):
// History, OnSample and ExportTelemetry all see one sample per period.
const HistoryDtSec = 15.0

// The run's fixed physical and economic settings.
const (
	// coolingDtSec is the cooling-model coupling period (15 s, §III-B).
	coolingDtSec = 15.0
	// emissionIntensity is EI in Eq. 6, lb CO₂ per MWh.
	emissionIntensity float64 = 852.3
	// electricityUSDPerMWh prices energy for the cost report; 91.5 $/MWh
	// reproduces the paper's ≈$900k/yr for 1.14 MW of losses.
	electricityUSDPerMWh float64 = 91.5
)

// Config parameterizes a simulation run: the scheduling policy, the
// tick, the engine, the cooling coupling and the telemetry hooks. The
// coupling and sampling periods (15 s), the Eq. 6 emission intensity
// and the electricity price are fixed constants of the model.
type Config struct {
	// Policy names the scheduling policy ("fcfs", "sjf", "easy").
	Policy string
	// TickSec is the simulation tick (Algorithm 1 uses 1 s; 15 s is a
	// faithful speed-up because utilization traces advance at 15 s
	// quanta anyway).
	TickSec float64
	// EnableCooling couples the cooling plant (≈3× slower, §IV-3).
	EnableCooling bool
	// CoolingDesign, when set, names the plant to couple by its compiled
	// FMU design, which sweeps compile once per spec and share across
	// scenarios; the run builds its own plant from the design's config.
	// nil couples the Frontier plant.
	CoolingDesign *fmu.Design
	// Engine selects the power-evaluation strategy; the zero value is
	// the event-driven incremental engine.
	Engine Engine
	// WetBulbC supplies the outdoor wet-bulb temperature over simulation
	// time; nil means a constant 20 °C. It must be a pure function of
	// time: the cooling coupling, an OnSample sink and ExportTelemetry
	// each query it, in no fixed order (core passes a weather.Source).
	WetBulbC func(tSec float64) float64
	// NoHistory skips storing the recorded series in memory — the lean
	// mode for huge sweeps and streamed long replays where only the
	// report (and any OnSample sink) matters. OnSample still fires per
	// sample; History() stays empty and ExportTelemetry carries no
	// series.
	NoHistory bool
	// RecordCDUHeat stores the per-CDU heat vector in each history
	// sample (needed by the Fig. 7 cooling-validation experiment). In a
	// multi-partition run the vector spans all partitions' CDUs in
	// partition order.
	RecordCDUHeat bool
	// OnSample, when set, is invoked synchronously for every recorded
	// history sample as it is taken — the hook streaming telemetry sinks
	// attach to so samples leave the process incrementally instead of
	// being materialized by ExportTelemetry after the run. The Sample is
	// passed by value; its CDUHeatW slice (if recorded) must not be
	// retained.
	OnSample func(Sample)
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		Policy:  "fcfs",
		TickSec: 1,
	}
}

// Partition couples one partition's power model and job stream into a
// simulation — the unit of §V's multi-partition generalization. The
// Model must not be mutated after NewMulti (the event engine caches its
// parameters); Jobs may arrive in any order.
type Partition struct {
	// Name labels the partition in reports and telemetry ("cpu",
	// "gpu", ...); empty names are allowed for single-partition runs.
	Name string
	// Model is the partition's power model; its topology sizes the
	// partition's scheduler and its CDU count claims the next contiguous
	// range of the shared plant's loops.
	Model *power.Model
	// Jobs is the partition's workload.
	Jobs []*job.Job
	// Chains, when set, are the conversion chains the run evaluates in
	// lockstep, one report view each (Reports); view 0 is the run's own
	// (ReportNow, history, cooling). Empty evaluates Model.Chain alone.
	// Every partition must list the same number of chains, and a run of
	// more than one needs the event engine, no cooling and no sample
	// consumer: the plant's heat and the samples are per chain.
	Chains []power.ConversionChain
}

// Sample is one entry of the recorded history (Fig. 9's plotted series).
type Sample struct {
	TimeSec       float64
	PowerW        float64 // predicted instantaneous system power
	LossW         float64 // rectification + conversion losses
	Utilization   float64 // active nodes / total nodes
	EtaSystem     float64 // Eq. 1 conversion efficiency
	EtaCooling    float64 // H / P_system (§IV-2)
	PUE           float64 // 0 when cooling disabled
	HTWReturnC    float64 // primary return temperature (Fig. 8); 0 if disabled
	HTWSupplyC    float64 // primary supply temperature; 0 if disabled
	SecSupplyMaxC float64 // hottest CDU secondary supply; 0 if disabled
	JobsRunning   int
	JobsPending   int
	// PartPowerW is the per-partition input power, indexed like the
	// simulation's partitions; nil on single-partition runs (whose
	// telemetry predates the partition dimension and stays bit-stable).
	PartPowerW []float64
	// CDUHeatW is the per-CDU heat load fed to the cooling model (all
	// partitions, in partition order); only populated when
	// Config.RecordCDUHeat is set.
	CDUHeatW []float64
}

// PartitionReport is one partition's share of a multi-partition run.
type PartitionReport struct {
	Name           string  `json:"name"`
	JobsCompleted  int     `json:"jobs_completed"`
	AvgPowerMW     float64 `json:"avg_power_mw"`
	MaxPowerMW     float64 `json:"max_power_mw"`
	EnergyMWh      float64 `json:"energy_mwh"`
	AvgUtilization float64 `json:"avg_utilization"`
}

// Report is the §III-B5 end-of-run summary.
type Report struct {
	JobsCompleted   int
	ThroughputPerHr float64
	AvgPowerMW      float64
	MaxPowerMW      float64
	MinPowerMW      float64
	EnergyMWh       float64
	AvgLossMW       float64
	MaxLossMW       float64
	LossPercent     float64 // average loss / average power
	EtaSystem       float64 // energy-weighted Eq. 1 efficiency
	CO2Tons         float64 // Eq. 6
	CostUSD         float64
	AvgUtilization  float64
	AvgPUE          float64 // 0 when cooling disabled
	SimSeconds      float64
	// Workload statistics for Table IV.
	AvgArrivalSec  float64
	AvgNodesPerJob float64
	AvgRuntimeMin  float64
	// Partitions breaks the run down per partition; nil on
	// single-partition runs (keeping their report JSON unchanged).
	Partitions []PartitionReport `json:"Partitions,omitempty"`
}

// runState caches the event-engine view of one running job: its current
// trace quantum, its value slot in the partition's power engine (which
// also holds the per-node power at that quantum), and the node
// allocation (retained past Reap, which nils the job's own slice).
type runState struct {
	j      *job.Job
	nodes  []int
	slot   power.Slot
	idx    int  // current trace-quantum index
	frozen bool // utilization can no longer change
	// constFrom is the first index of the traces' constant suffix
	// (computed once at job start): once idx reaches it the remaining
	// samples are all equal, so the job is frozen early — FlatTrace jobs
	// and replay plateaus stop forcing per-quantum events and tick-gap
	// skipping stays enabled for much larger gaps.
	constFrom int
}

// freezeAt reports whether the job's utilization is pinned from trace
// index idx onward — either the trace is exhausted or idx has entered
// the constant suffix.
func (rs *runState) freezeAt(idx int) bool {
	return idx >= rs.constFrom || rs.j.TraceFrozenAt(idx)
}

// partSim is the per-partition simulation state: scheduler, job stream,
// power engine, and the partition's slice of the shared plant coupling.
type partSim struct {
	name  string
	model *power.Model
	sch   *sched.Scheduler

	pending []*job.Job // future arrivals, sorted by submit time
	nextArr int

	// Dense-engine state: per-node utilization arrays rebuilt each tick.
	nodeCPU []float64
	nodeGPU []float64

	// Event-engine state.
	inc       *power.Incremental
	runStates map[int]*runState

	// sps holds the partition's power under each view's chain; sps[0]
	// is the run's own.
	sps       []*power.SystemPower
	completed []*job.Job

	// cduOff is the partition's first CDU index in the shared plant
	// coupling (partitions occupy contiguous loop ranges in order).
	cduOff int

	jobEnergyJ map[int]float64

	// utilSum accumulates the partition's utilization for its report;
	// its energy and peak power are per view.
	utilSum float64
}

// util returns the partition's node utilization.
func (pt *partSim) util() float64 {
	return float64(pt.sch.Pool.InUse()) / float64(pt.sch.Pool.Total())
}

// Simulation is one RAPS run in progress.
type Simulation struct {
	cfg   Config
	parts []*partSim

	// plant is the coupled cooling plant (nil when cooling is off) and
	// coolIn the inputs of its most recent step. coolIn owns its CDU
	// heat buffer: the plant keeps the last inputs it stepped under, so
	// the buffer must not be the live heatBuf.
	plant  *cooling.Plant
	coolIn cooling.Inputs
	// coolOut is the sample path's snapshot scratch.
	coolOut cooling.Outputs
	// lastCoolT is the sim time of the last plant step; coasting across
	// quiet boundaries leaves it behind s.now until the plant is stepped
	// across the whole gap at once. coolCoastS is the plant's coast
	// window (0 for the fixed-step solver: every boundary steps).
	lastCoolT  float64
	coolCoastS float64

	now     float64
	history []Sample

	// totalCDUs is the summed CDU count across partitions — the width of
	// the shared plant coupling.
	totalCDUs int

	// Cached per-CDU heat (all partitions, partition order) derived from
	// the partitions' power state; invalidated whenever power changes so
	// history sampling and cooling coupling never recompute (or
	// reallocate) it redundantly.
	heatBuf   []float64
	heatSum   float64
	heatValid bool

	// views holds each conversion chain's power accumulators; the rest
	// are shared by every view.
	views        []view
	utilSum      float64
	pueSum       float64
	pueCount     int
	ticks        int
	quietTicks   int
	lastHistoryT float64
}

// view is one conversion chain's report accumulators. Everything here
// depends on the chain; a one-chain run has a single view.
type view struct {
	energyJ   float64
	lossJ     float64
	nodeOutJ  float64
	convInJ   float64
	maxPowerW float64
	minPowerW float64
	maxLossW  float64
	// weightedEIJ integrates P·EI·dt for the Eq. 6 carbon accounting
	// (J·lb/MWh).
	weightedEIJ float64
	// partEnergyJ and partMaxW are each partition's energy and peak
	// power, indexed like the partitions.
	partEnergyJ []float64
	partMaxW    []float64
}

// New builds a single-partition simulation over the given power model —
// the Frontier-shaped entry point. jobs may arrive in any order; they
// are sorted by submit time internally. The model must not be mutated
// after New — the event engine caches its parameters.
func New(cfg Config, model *power.Model, jobs []*job.Job) (*Simulation, error) {
	return NewMulti(cfg, []Partition{{Model: model, Jobs: jobs}})
}

// NewMulti builds a simulation over one or more partitions sharing the
// simulation clock and the cooling plant. Partition p's CDU loops couple
// to the plant's loops starting where partition p-1's end, so the plant
// must expose at least the summed CDU count.
func NewMulti(cfg Config, partitions []Partition) (*Simulation, error) {
	if cfg.TickSec <= 0 {
		return nil, fmt.Errorf("raps: TickSec must be positive")
	}
	if cfg.Engine != EngineEvent && cfg.Engine != EngineDense {
		return nil, fmt.Errorf("raps: unknown engine %d", cfg.Engine)
	}
	if len(partitions) == 0 {
		return nil, fmt.Errorf("raps: at least one partition required")
	}
	policy, err := sched.PolicyByName(cfg.Policy)
	if err != nil {
		return nil, err
	}
	k := max(1, len(partitions[0].Chains))
	if k > 1 && (cfg.Engine != EngineEvent || cfg.EnableCooling || !cfg.NoHistory || cfg.OnSample != nil || cfg.RecordCDUHeat) {
		return nil, fmt.Errorf("raps: a run of %d conversion chains needs the event engine, no cooling and no history or sample hook", k)
	}
	s := &Simulation{cfg: cfg, views: make([]view, k)}
	for v := range s.views {
		s.views[v] = view{
			minPowerW:   math.Inf(1),
			partEnergyJ: make([]float64, len(partitions)),
			partMaxW:    make([]float64, len(partitions)),
		}
	}
	for i := range partitions {
		p := &partitions[i]
		if p.Model == nil {
			return nil, fmt.Errorf("raps: partition %d has no power model", i)
		}
		if err := p.Model.Topo.Validate(); err != nil {
			return nil, err
		}
		if max(1, len(p.Chains)) != k {
			return nil, fmt.Errorf("raps: partition %d lists %d conversion chains, partition 0 %d", i, len(p.Chains), k)
		}
		pt := &partSim{
			name:   p.Name,
			model:  p.Model,
			sch:    sched.NewScheduler(p.Model.Topo.NodesTotal, policy),
			cduOff: s.totalCDUs,
		}
		if cfg.Engine == EngineDense {
			pt.nodeCPU = make([]float64, p.Model.Topo.NodesTotal)
			pt.nodeGPU = make([]float64, p.Model.Topo.NodesTotal)
			pt.sps = []*power.SystemPower{{}}
		} else {
			pt.inc = p.Model.NewIncrementalChains(p.Chains)
			for v := 0; v < k; v++ {
				pt.sps = append(pt.sps, pt.inc.PowerOf(v))
			}
			pt.runStates = make(map[int]*runState)
		}
		pt.pending = append(pt.pending, p.Jobs...)
		sortJobsBySubmit(pt.pending)
		s.totalCDUs += p.Model.Topo.NumCDUs
		s.parts = append(s.parts, pt)
	}

	if cfg.EnableCooling {
		pcfg := cooling.Frontier()
		if cfg.CoolingDesign != nil {
			pcfg = cfg.CoolingDesign.Config()
		}
		if pcfg.NumCDUs < s.totalCDUs {
			return nil, fmt.Errorf("raps: partitions couple %d CDU loops, the plant has %d", s.totalCDUs, pcfg.NumCDUs)
		}
		if s.plant, err = cooling.New(pcfg); err != nil {
			return nil, err
		}
		s.coolIn.CDUHeatW = make([]float64, pcfg.NumCDUs)
		s.coolCoastS = s.plant.CoastWindowS()
	}
	return s, nil
}

func sortJobsBySubmit(jobs []*job.Job) {
	// Stable sort by (submit, id); synthetic multi-day workloads reach
	// thousands of jobs, so the old insertion sort's O(n²) worst case
	// mattered.
	sort.SliceStable(jobs, func(i, k int) bool { return less(jobs[i], jobs[k]) })
}

func less(a, b *job.Job) bool {
	if a.SubmitTime != b.SubmitTime {
		return a.SubmitTime < b.SubmitTime
	}
	return a.ID < b.ID
}

// Now returns the current simulation time in seconds.
func (s *Simulation) Now() float64 { return s.now }

// QuietTicks returns how many ticks were integrated analytically inside
// event-free gaps rather than simulated — the event engine's skipping
// effectiveness (observability for the constant-trace freeze and gap
// analysis; 0 under EngineDense).
func (s *Simulation) QuietTicks() int { return s.quietTicks }

// History returns the recorded series.
func (s *Simulation) History() []Sample { return s.history }

// Partitions returns how many partitions the simulation couples.
func (s *Simulation) Partitions() int { return len(s.parts) }

// PartitionNames returns the partition labels in coupling order.
func (s *Simulation) PartitionNames() []string {
	names := make([]string, len(s.parts))
	for i, pt := range s.parts {
		names[i] = pt.name
	}
	return names
}

// PartitionPowerW returns the current per-partition input power, indexed
// like the partitions.
func (s *Simulation) PartitionPowerW() []float64 {
	out := make([]float64, len(s.parts))
	for i, pt := range s.parts {
		out[i] = pt.sps[0].TotalW
	}
	return out
}

// PerRackPowerW returns the most recent per-rack input power (the
// §III-A heat-map channel), concatenated across partitions in partition
// order. On a single partition the slice is live simulation state
// (callers must copy it if they retain it); the multi-partition
// concatenation is freshly allocated per call, so concurrent readers of
// a settled run stay race-free.
func (s *Simulation) PerRackPowerW() []float64 {
	if len(s.parts) == 1 {
		return s.parts[0].sps[0].PerRackInputW
	}
	var out []float64
	for _, pt := range s.parts {
		out = append(out, pt.sps[0].PerRackInputW...)
	}
	return out
}

// CoolingPlant exposes the coupled plant (nil when cooling is disabled).
func (s *Simulation) CoolingPlant() *cooling.Plant { return s.plant }

// CoolingSolverStats returns the coupled plant's thermal-solver
// accounting — the quiescent-fraction observability for the adaptive
// cooling fast path (zero when cooling is disabled).
func (s *Simulation) CoolingSolverStats() cooling.SolverStats {
	if s.plant == nil {
		return cooling.SolverStats{}
	}
	return s.plant.SolverStats()
}

// Run advances the simulation for the given horizon (Algorithm 1's
// RUNSIMULATION) and returns the end-of-run report. Under EngineEvent,
// tick gaps containing no event — no arrival, completion, trace-quantum
// crossing, pinned replay start, or cooling boundary on any partition —
// are integrated analytically in one pass instead of being simulated
// tick by tick.
func (s *Simulation) Run(horizonSec float64) (*Report, error) {
	return s.RunContext(context.Background(), horizonSec)
}

// RunContext is Run under a context: cancellation is observed at every
// tick boundary, so an abort stops a running day within one tick (one
// analytic gap at most under EngineEvent) instead of letting the horizon
// play out. The context error is returned; partial accumulators remain
// inspectable through ReportNow and Now.
func (s *Simulation) RunContext(ctx context.Context, horizonSec float64) (*Report, error) {
	done := ctx.Done()
	steps := int(math.Round(horizonSec / s.cfg.TickSec))
	for i := 0; i < steps; {
		if done != nil {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		if k := s.skippableTicks(steps - i); k > 0 {
			s.advanceQuiet(k)
			i += k
			continue
		}
		if err := s.Tick(); err != nil {
			return nil, err
		}
		i++
	}
	return s.ReportNow(), nil
}

// Tick advances one simulation tick (Algorithm 1's TICK) across every
// partition.
func (s *Simulation) Tick() error {
	dt := s.cfg.TickSec
	s.now += dt

	for _, pt := range s.parts {
		// Release completed jobs (lines 15-20); their nodes read as idle
		// when utilizations are refreshed below.
		done := pt.sch.Reap(s.now)
		pt.completed = append(pt.completed, done...)

		// Admit newly arrived jobs (line 8).
		for pt.nextArr < len(pt.pending) && pt.pending[pt.nextArr].SubmitTime <= s.now {
			pt.sch.Submit(pt.pending[pt.nextArr])
			pt.nextArr++
		}
		// Schedule (line 9).
		started := pt.sch.Schedule(s.now)

		// Recalculate power and apply losses (lines 21-22).
		if pt.inc != nil {
			s.applyDeltas(pt, done, started)
		} else {
			pt.denseRefresh(s.now)
			pt.model.Compute(pt.nodeCPU, pt.nodeGPU, pt.sps[0])
			s.heatValid = false
		}
	}
	s.accumulate(dt)
	for _, pt := range s.parts {
		s.trackJobEnergy(pt, dt)
	}

	// Couple the cooling model every 15 s (lines 23-26).
	if s.plant != nil && s.onBoundary(coolingDtSec) {
		if err := s.stepCooling(); err != nil {
			return err
		}
	}
	if s.now-s.lastHistoryT >= HistoryDtSec-1e-9 {
		s.recordSample()
		s.lastHistoryT = s.now
	}
	s.ticks++
	return nil
}

// denseRefresh rebuilds the partition's per-node utilization arrays from
// the running jobs' traces — the reference path's full sweep.
func (pt *partSim) denseRefresh(now float64) {
	for i := range pt.nodeCPU {
		pt.nodeCPU[i] = 0
		pt.nodeGPU[i] = 0
	}
	for _, r := range pt.sch.Running() {
		cu, gu := r.UtilAt(now - r.StartTime)
		for _, n := range r.Nodes {
			pt.nodeCPU[n] = cu
			pt.nodeGPU[n] = gu
		}
	}
}

// applyDeltas feeds one partition's utilization changes — completions,
// starts, and trace-quantum crossings — into its incremental engine.
func (s *Simulation) applyDeltas(pt *partSim, done, started []*job.Job) {
	for _, j := range done {
		if rs, ok := pt.runStates[j.ID]; ok {
			pt.inc.SetNodesIdle(rs.nodes)
			delete(pt.runStates, j.ID)
		}
	}
	for _, j := range started {
		t := s.now - j.StartTime
		idx := int(t / job.TraceQuantaSec)
		cu, gu := j.UtilAt(t)
		rs := &runState{
			j: j, nodes: j.Nodes, idx: idx,
			slot:      pt.inc.Assign(j.Nodes, cu, gu),
			constFrom: j.TraceConstSuffix(),
		}
		rs.frozen = rs.freezeAt(idx)
		pt.runStates[j.ID] = rs
	}
	for _, j := range pt.sch.Running() {
		rs, ok := pt.runStates[j.ID]
		if !ok || rs.frozen {
			continue
		}
		t := s.now - j.StartTime
		idx := int(t / job.TraceQuantaSec)
		if idx == rs.idx {
			continue
		}
		rs.idx = idx
		rs.frozen = rs.freezeAt(idx)
		cu, gu := j.UtilAt(t)
		pt.inc.Update(rs.slot, cu, gu)
	}
	if pt.inc.Dirty() {
		s.heatValid = false
	}
	pt.inc.ComputeDelta()
}

// skippableTicks returns how many upcoming ticks are guaranteed
// event-free — no arrival, completion, trace-quantum crossing, pinned
// replay start, or cooling boundary falls on them, on any partition —
// and may therefore be integrated analytically. Returns 0 under
// EngineDense (the reference path simulates every tick) and 0 when the
// next tick may carry an event. Scheduler state cannot change between
// events: queued jobs only start when a completion or arrival frees
// resources, and EASY-backfill eligibility (now + walltime ≤ shadow)
// only shrinks as time advances.
func (s *Simulation) skippableTicks(maxTicks int) int {
	if s.cfg.Engine == EngineDense || maxTicks <= 0 {
		return 0
	}
	dt := s.cfg.TickSec
	next := math.Inf(1)
	consider := func(t float64) {
		if t < next {
			next = t
		}
	}
	for _, pt := range s.parts {
		if pt.nextArr < len(pt.pending) {
			consider(pt.pending[pt.nextArr].SubmitTime)
		}
		for _, rs := range pt.runStates {
			consider(rs.j.StartTime + rs.j.WallTimeSec)
			if !rs.frozen {
				consider(rs.j.StartTime + float64(rs.idx+1)*job.TraceQuantaSec)
			}
		}
		if t := pt.sch.NextPinnedStart(s.now); t >= 0 {
			consider(t)
		}
	}
	if s.plant != nil {
		period := coolingDtSec
		next := (math.Floor((s.now+1e-6)/period) + 1) * period
		if s.coolCoastS > 0 {
			if limit := s.lastCoolT + s.coolCoastS; limit > next && s.plant.CanCoast(s.cduHeat()) {
				// The plant is settled and would hold at the upcoming
				// boundaries under the gap's (constant) heat: coast — the
				// next cooling event is the end of the coast window,
				// snapped onto the boundary grid. stepCooling integrates
				// the plant across the whole deferred gap at once.
				next = math.Floor(limit/period) * period
			}
		}
		consider(next)
	}
	if math.IsInf(next, 1) {
		return maxTicks
	}
	// The event triggers on the first tick whose time reaches `next`;
	// everything strictly before it is skippable. The epsilon keeps
	// exact-multiple gaps robust against float noise (conservative: at
	// worst one extra full Tick runs).
	k := int(math.Ceil((next-s.now)/dt-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k > maxTicks {
		k = maxTicks
	}
	return k
}

// advanceQuiet integrates k event-free ticks. Power, utilization, and
// job state are constant across the gap on every partition, so the
// per-tick model sweep and scheduler pass are elided; the accumulator
// arithmetic is kept per-tick-identical to Tick so results match the
// dense path. History samples falling inside the gap are still recorded
// at their exact times (from the cached power state).
func (s *Simulation) advanceQuiet(k int) {
	dt := s.cfg.TickSec
	a := s.aggregate(0)
	util := a.util()
	for v := range s.views {
		if v > 0 {
			a = s.aggregate(v)
		}
		s.views[v].add(a, s.parts, v, k, dt)
	}
	pue := 0.0
	if s.plant != nil {
		pue = s.plant.PUE()
	}
	for i := 0; i < k; i++ {
		s.now += dt
		s.utilSum += util * dt
		if s.plant != nil && pue > 0 {
			s.pueSum += pue
			s.pueCount++
		}
		if s.now-s.lastHistoryT >= HistoryDtSec-1e-9 {
			s.recordSample()
			s.lastHistoryT = s.now
		}
		s.ticks++
		s.quietTicks++
	}
	gap := dt * float64(k)
	for _, pt := range s.parts {
		pt.utilSum += pt.util() * gap
		if len(pt.runStates) > 0 {
			if pt.jobEnergyJ == nil {
				pt.jobEnergyJ = make(map[int]float64)
			}
			for id, rs := range pt.runStates {
				pt.jobEnergyJ[id] += pt.inc.NodePower(rs.slot) * float64(rs.j.NodeCount) * gap
			}
		}
	}
}

// add accumulates k ticks of dt at view v's power a — one simulated
// tick, or an event-free gap integrated per tick so it matches ticking
// bit for bit.
func (w *view) add(a agg, parts []*partSim, v, k int, dt float64) {
	p, loss, nodeOut := a.totalW, a.lossW(), a.nodeOutW
	for i := 0; i < k; i++ {
		e := p * dt
		w.energyJ += e
		w.weightedEIJ += e * emissionIntensity
		w.lossJ += loss * dt
		w.nodeOutJ += nodeOut * dt
		w.convInJ += (nodeOut + loss) * dt
	}
	w.peak(p, loss)
	gap := dt * float64(k)
	for i, pt := range parts {
		tw := pt.sps[v].TotalW
		w.partEnergyJ[i] += tw * gap
		if tw > w.partMaxW[i] {
			w.partMaxW[i] = tw
		}
	}
}

// peak folds a power and loss reading into the view's extremes.
func (w *view) peak(p, loss float64) {
	if p > w.maxPowerW {
		w.maxPowerW = p
	}
	if p < w.minPowerW {
		w.minPowerW = p
	}
	if loss > w.maxLossW {
		w.maxLossW = loss
	}
}

// agg is the cross-partition power/scheduler aggregate of one view.
// Every summation starts at zero and adds in partition order, so a
// single-partition aggregate is bit-identical to that partition's own
// accounting — the invariant the dense/event and tick/quiet-gap
// equivalences (and the single-partition telemetry goldens) rest on. All four consumers
// (accumulate, advanceQuiet, recordSample, stepCooling) share this one
// implementation so the arithmetic cannot drift between them.
type agg struct {
	totalW, rectW, sivocW, nodeOutW float64
	inUse, total                    int
	running, pending                int
}

func (s *Simulation) aggregate(v int) agg {
	var a agg
	for _, pt := range s.parts {
		sp := pt.sps[v]
		a.totalW += sp.TotalW
		a.rectW += sp.RectLossW
		a.sivocW += sp.SivocLossW
		a.nodeOutW += sp.NodeOutW
		a.inUse += pt.sch.Pool.InUse()
		a.total += pt.sch.Pool.Total()
		a.running += len(pt.sch.Running())
		a.pending += pt.sch.Pending()
	}
	return a
}

// lossW mirrors power.SystemPower.LossW over the aggregate.
func (a agg) lossW() float64 { return a.rectW + a.sivocW }

// util is the machine-wide node utilization.
func (a agg) util() float64 { return float64(a.inUse) / float64(a.total) }

// etaSystem mirrors power.SystemPower.Efficiency (Eq. 1) over the
// aggregate conversion chain, in the same summation order.
func (a agg) etaSystem() float64 {
	in := a.nodeOutW + a.rectW + a.sivocW
	if in <= 0 {
		return 0
	}
	return a.nodeOutW / in
}

// onBoundary reports whether the current time is a multiple of period.
func (s *Simulation) onBoundary(period float64) bool {
	m := math.Mod(s.now+1e-9, period)
	return m < s.cfg.TickSec-1e-9 || period-m < 1e-6
}

// cduHeat returns the cached per-CDU heat vector — every partition's
// CDUs concatenated in partition order — for the current power state,
// recomputing it only after the power changed.
func (s *Simulation) cduHeat() []float64 {
	if !s.heatValid {
		if s.heatBuf == nil {
			s.heatBuf = make([]float64, s.totalCDUs)
		}
		for _, pt := range s.parts {
			n := pt.model.Topo.NumCDUs
			seg := s.heatBuf[pt.cduOff : pt.cduOff+n : pt.cduOff+n]
			pt.model.CDUHeatInto(pt.sps[0], seg)
		}
		s.heatSum = 0
		for _, h := range s.heatBuf {
			s.heatSum += h
		}
		s.heatValid = true
	}
	return s.heatBuf
}

// stepCooling advances the plant to s.now. The common case steps one
// coupling interval exactly (bit-identical to the pre-coasting path).
// After a coasted gap the deferred stretch is fast-forwarded first under
// the inputs it was quiescent under — those of the previous step — and
// only the final coupling interval sees the fresh inputs, so a coast
// never back-applies a new transient over held time.
func (s *Simulation) stepCooling() error {
	period := coolingDtSec
	dt := s.now - s.lastCoolT
	if dt <= 0 {
		return nil
	}
	if math.Abs(dt-period) < 1e-6 {
		dt = period
	} else if dt > period {
		if err := s.plant.Step(dt-period, s.coolIn); err != nil {
			return err
		}
		dt = period
	}
	copy(s.coolIn.CDUHeatW, s.cduHeat())
	s.coolIn.WetBulbC = 20.0
	if s.cfg.WetBulbC != nil {
		s.coolIn.WetBulbC = s.cfg.WetBulbC(s.now)
	}
	s.coolIn.ITPowerW = s.aggregate(0).totalW
	if err := s.plant.Step(dt, s.coolIn); err != nil {
		return err
	}
	s.lastCoolT = s.now
	return nil
}

func (s *Simulation) accumulate(dt float64) {
	a := s.aggregate(0)
	s.utilSum += a.util() * dt
	for v := range s.views {
		if v > 0 {
			a = s.aggregate(v)
		}
		s.views[v].add(a, s.parts, v, 1, dt)
	}
	for _, pt := range s.parts {
		pt.utilSum += pt.util() * dt
	}
	if s.plant != nil {
		if pue := s.plant.PUE(); pue > 0 {
			s.pueSum += pue
			s.pueCount++
		}
	}
}

func (s *Simulation) recordSample() {
	if s.cfg.NoHistory && s.cfg.OnSample == nil {
		return // no consumer: skip building the sample entirely
	}
	a := s.aggregate(0)
	p := a.totalW
	smp := Sample{
		TimeSec:     s.now,
		PowerW:      p,
		LossW:       a.lossW(),
		Utilization: a.util(),
		EtaSystem:   a.etaSystem(),
		JobsRunning: a.running,
		JobsPending: a.pending,
	}
	if len(s.parts) > 1 {
		smp.PartPowerW = make([]float64, len(s.parts))
		for i, pt := range s.parts {
			smp.PartPowerW[i] = pt.sps[0].TotalW
		}
	}
	if p > 0 {
		s.cduHeat()
		smp.EtaCooling = s.heatSum / p
	}
	if s.plant != nil {
		smp.PUE = s.plant.PUE()
		if s.plant.Time() > 0 { // loop temperatures exist once stepped
			s.plant.SnapshotInto(&s.coolOut)
			smp.HTWReturnC = s.coolOut.FacilityReturnC
			smp.HTWSupplyC = s.coolOut.FacilitySupplyC
			for _, c := range s.coolOut.CDUs[:s.totalCDUs] {
				if c.SecSupplyTempC > smp.SecSupplyMaxC {
					smp.SecSupplyMaxC = c.SecSupplyTempC
				}
			}
		}
	}
	if s.cfg.RecordCDUHeat {
		smp.CDUHeatW = append([]float64(nil), s.cduHeat()...)
	}
	if !s.cfg.NoHistory {
		s.history = append(s.history, smp)
	}
	if s.cfg.OnSample != nil {
		s.cfg.OnSample(smp)
	}
}

// ReportNow summarizes the run so far (§III-B5's output statistics)
// under its own conversion chain, view 0.
func (s *Simulation) ReportNow() *Report { return s.report(0) }

// Reports summarizes the run so far under every conversion chain, one
// Report per view in Partition.Chains order; a one-chain run returns
// ReportNow's alone.
func (s *Simulation) Reports() []*Report {
	out := make([]*Report, len(s.views))
	for v := range out {
		out[v] = s.report(v)
	}
	return out
}

// report summarizes view v.
func (s *Simulation) report(v int) *Report {
	w := &s.views[v]
	completed := 0
	for _, pt := range s.parts {
		completed += len(pt.completed)
	}
	r := &Report{
		JobsCompleted: completed,
		SimSeconds:    s.now,
	}
	if s.now <= 0 {
		return r
	}
	hours := s.now / 3600
	r.ThroughputPerHr = float64(r.JobsCompleted) / hours
	r.AvgPowerMW = units.WToMW(w.energyJ / s.now)
	r.MaxPowerMW = units.WToMW(w.maxPowerW)
	if !math.IsInf(w.minPowerW, 1) {
		r.MinPowerMW = units.WToMW(w.minPowerW)
	}
	r.EnergyMWh = w.energyJ / 3.6e9
	r.AvgLossMW = units.WToMW(w.lossJ / s.now)
	r.MaxLossMW = units.WToMW(w.maxLossW)
	if r.AvgPowerMW > 0 {
		r.LossPercent = 100 * r.AvgLossMW / r.AvgPowerMW
	}
	if w.convInJ > 0 {
		r.EtaSystem = w.nodeOutJ / w.convInJ
	}
	// Eq. 6: Ef = EI × (1 ton / 2204.6 lb) × 1/η_system, with EI the
	// energy-weighted average of the accumulated P·EI·dt.
	if r.EtaSystem > 0 && w.energyJ > 0 {
		avgEI := w.weightedEIJ / w.energyJ
		ef := avgEI * units.LbToMetricTon / r.EtaSystem
		r.CO2Tons = r.EnergyMWh * ef
	}
	r.CostUSD = r.EnergyMWh * electricityUSDPerMWh
	r.AvgUtilization = s.utilSum / s.now
	if s.pueCount > 0 {
		r.AvgPUE = s.pueSum / float64(s.pueCount)
	}
	// Workload statistics. The arrival span uses the single partition's
	// first/last completed job (completion order) exactly as before the
	// partition refactor — bit-stable — while multi-partition runs take
	// the global min/max submit time: partitions complete independently,
	// so concatenation-order endpoints would compare unrelated streams
	// (a later partition's t=0 job would zero the statistic).
	var nodes, runtime float64
	first, last := math.Inf(1), math.Inf(-1)
	seen := 0
	for _, pt := range s.parts {
		for _, j := range pt.completed {
			if j.SubmitTime < first {
				first = j.SubmitTime
			}
			if j.SubmitTime > last {
				last = j.SubmitTime
			}
			nodes += float64(j.NodeCount)
			runtime += j.WallTimeSec
			seen++
		}
	}
	if len(s.parts) == 1 && seen > 0 {
		first = s.parts[0].completed[0].SubmitTime
		last = s.parts[0].completed[seen-1].SubmitTime
	}
	if seen > 0 {
		r.AvgNodesPerJob = nodes / float64(seen)
		r.AvgRuntimeMin = runtime / float64(seen) / 60
		if seen > 1 && last > first {
			r.AvgArrivalSec = (last - first) / float64(seen-1)
		}
	}
	if len(s.parts) > 1 {
		r.Partitions = make([]PartitionReport, len(s.parts))
		for i, pt := range s.parts {
			r.Partitions[i] = PartitionReport{
				Name:           pt.name,
				JobsCompleted:  len(pt.completed),
				AvgPowerMW:     units.WToMW(w.partEnergyJ[i] / s.now),
				MaxPowerMW:     units.WToMW(w.partMaxW[i]),
				EnergyMWh:      w.partEnergyJ[i] / 3.6e9,
				AvgUtilization: pt.utilSum / s.now,
			}
		}
	}
	return r
}

// ForEachJobRecord visits every job that has started — all partitions'
// completed jobs first (partition order), then still-running jobs — as a
// Table II telemetry record, each converted with its own partition's
// component power ranges. This is the shared iteration behind
// ExportTelemetry and the streaming NDJSON sink, so both emit identical
// records in identical order.
func (s *Simulation) ForEachJobRecord(fn func(telemetry.JobRecord)) {
	for _, pt := range s.parts {
		spec := pt.model.Spec
		for _, j := range pt.completed {
			fn(telemetry.FromJob(j, spec.CPUIdle, spec.CPUMax, spec.GPUIdle, spec.GPUMax))
		}
	}
	for _, pt := range s.parts {
		spec := pt.model.Spec
		for _, j := range pt.sch.Running() {
			fn(telemetry.FromJob(j, spec.CPUIdle, spec.CPUMax, spec.GPUIdle, spec.GPUMax))
		}
	}
}

// SeriesPointAt converts one recorded sample into the system-level
// telemetry series schema, evaluating the run's wet-bulb source at the
// sample time — the one conversion behind ExportTelemetry and core's
// streaming sink.
func (s *Simulation) SeriesPointAt(smp Sample) telemetry.SeriesPoint {
	wb := 20.0
	if s.cfg.WetBulbC != nil {
		wb = s.cfg.WetBulbC(smp.TimeSec)
	}
	return telemetry.SeriesPoint{
		TimeSec: smp.TimeSec, MeasuredPowerW: smp.PowerW, WetBulbC: wb,
		PartPowerW: smp.PartPowerW,
	}
}

// ExportTelemetry converts the run so far into a Table II-style dataset:
// every job that has started (completed or still running) with its power
// traces, plus the predicted power series as the "measured" channel (our
// substitute for production telemetry).
func (s *Simulation) ExportTelemetry(epoch string) *telemetry.Dataset {
	d := &telemetry.Dataset{Epoch: epoch, SeriesDtSec: HistoryDtSec}
	s.ForEachJobRecord(func(r telemetry.JobRecord) { d.Jobs = append(d.Jobs, r) })
	for _, smp := range s.history {
		d.Series = append(d.Series, s.SeriesPointAt(smp))
	}
	return d
}

// JobsFromDataset converts telemetry job records into replay-pinned jobs
// using the model's component power ranges (telemetry carries power, the
// simulator needs utilization — footnote 1).
func JobsFromDataset(d *telemetry.Dataset, spec power.ComponentSpec) []*job.Job {
	jobs := make([]*job.Job, 0, len(d.Jobs))
	for i := range d.Jobs {
		jobs = append(jobs, d.Jobs[i].ToJob(spec.CPUIdle, spec.CPUMax, spec.GPUIdle, spec.GPUMax))
	}
	return jobs
}
