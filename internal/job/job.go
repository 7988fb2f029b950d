// Package job models HPC jobs the way RAPS consumes them (§III-B,
// Table II): each job carries a node count, a wall time, and CPU/GPU
// utilization traces sampled at the trace quanta (15 s, chosen to match
// Frontier's telemetry cadence). Jobs are either replayed from telemetry
// or generated synthetically from a Poisson arrival process (Eq. 5) with
// distributions fitted to the Table IV daily statistics. The package also
// provides application fingerprints — canned utilization profiles for
// HPL and OpenMxP used in the paper's verification runs (§IV-2, Fig. 8).
package job

import (
	"fmt"
	"math/rand"

	"exadigit/internal/dist"
)

// TraceQuantaSec is the utilization-trace sampling period (§III-B: "set
// to 15s in this work to correspond with system telemetry data").
const TraceQuantaSec = 15.0

// State tracks a job through the scheduler.
type State int

const (
	// Pending jobs are queued awaiting nodes.
	Pending State = iota
	// Running jobs hold nodes.
	Running
	// Completed jobs have finished and released their nodes.
	Completed
)

// String names the state.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Completed:
		return "completed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Job is one schedulable unit of work.
type Job struct {
	ID        int
	Name      string
	NodeCount int
	// WallTimeSec is the job's actual duration once started.
	WallTimeSec float64
	// SubmitTime is the simulation time (s) the job enters the queue.
	SubmitTime float64
	// CPUTrace and GPUTrace are utilizations in [0,1] per TraceQuantaSec.
	// A job past the end of its trace holds the last sample.
	CPUTrace []float64
	GPUTrace []float64

	// ReplayStart, when ≥ 0, pins the start time for telemetry replay
	// (using "the physical twin's scheduling policy", §III-B).
	ReplayStart float64

	// Scheduler-managed fields.
	State     State
	StartTime float64
	EndTime   float64
	Nodes     []int
}

// New constructs a pending job with sane defaults.
func New(id int, name string, nodes int, wallSec, submit float64) *Job {
	return &Job{
		ID: id, Name: name, NodeCount: nodes,
		WallTimeSec: wallSec, SubmitTime: submit,
		ReplayStart: -1,
	}
}

// UtilAt returns the CPU and GPU utilization at tSinceStart seconds into
// the job. Before the first sample it returns the first; past the end it
// holds the last. Empty traces read as zero.
func (j *Job) UtilAt(tSinceStart float64) (cpu, gpu float64) {
	idx := int(tSinceStart / TraceQuantaSec)
	cpu = sampleTrace(j.CPUTrace, idx)
	gpu = sampleTrace(j.GPUTrace, idx)
	return cpu, gpu
}

func sampleTrace(tr []float64, idx int) float64 {
	if len(tr) == 0 {
		return 0
	}
	if idx < 0 {
		return tr[0]
	}
	if idx >= len(tr) {
		return tr[len(tr)-1]
	}
	return tr[idx]
}

// TraceFrozenAt reports whether the job's utilization can no longer
// change once the trace index has reached idx: both traces are at (or
// past) their final sample, which UtilAt holds constant thereafter. The
// event-driven simulation loop uses this to stop scheduling trace-quantum
// events for jobs whose utilization is frozen.
func (j *Job) TraceFrozenAt(idx int) bool {
	return idx >= len(j.CPUTrace)-1 && idx >= len(j.GPUTrace)-1
}

// TraceConstSuffix returns the first trace index of the constant suffix:
// the smallest c such that every sample of both traces at index ≥ c
// equals the sample at c (with UtilAt's hold-last semantics). A
// FlatTrace job returns 0; a replay trace that plateaus returns the
// plateau's start. Once a running job's index reaches this point its
// utilization is pinned, so the event engine freezes it early and
// tick-gap skipping stays enabled across the remainder of the job.
func (j *Job) TraceConstSuffix() int {
	c := constSuffix(j.CPUTrace)
	if g := constSuffix(j.GPUTrace); g > c {
		c = g
	}
	return c
}

// constSuffix returns the first index from which every later sample
// equals tr[i]; 0 for empty or all-equal traces.
func constSuffix(tr []float64) int {
	i := len(tr) - 1
	if i < 0 {
		return 0
	}
	for i > 0 && tr[i-1] == tr[i] {
		i--
	}
	return i
}

// TraceLen returns the number of trace quanta covering the wall time.
func TraceLen(wallSec float64) int {
	n := int(wallSec/TraceQuantaSec) + 1
	if n < 1 {
		n = 1
	}
	return n
}

// FlatTrace builds a constant-utilization trace covering wallSec.
func FlatTrace(util float64, wallSec float64) []float64 {
	tr := make([]float64, TraceLen(wallSec))
	for i := range tr {
		tr[i] = util
	}
	return tr
}

// Fingerprint names a canned application utilization profile.
type Fingerprint string

// Fingerprints used in the paper's verification and synthetic tests.
const (
	// FPIdle is an idle allocation (zero utilization).
	FPIdle Fingerprint = "idle"
	// FPHPL is High-Performance Linpack: ramp, a long core phase at
	// GPU 79 % / CPU 33 % (inferred from telemetry, §IV-2), and a
	// panel-broadcast tail.
	FPHPL Fingerprint = "hpl"
	// FPOpenMxP is the mixed-precision OpenMxP benchmark — GPU-bound,
	// slightly hotter than HPL on the GPUs with a lighter CPU load.
	FPOpenMxP Fingerprint = "openmxp"
	// FPMax pins both CPU and GPU at 100 % (peak-power verification).
	FPMax Fingerprint = "max"
)

// ApplyFingerprint fills the job's traces from the named profile.
func (j *Job) ApplyFingerprint(fp Fingerprint) error {
	n := TraceLen(j.WallTimeSec)
	cpu := make([]float64, n)
	gpu := make([]float64, n)
	switch fp {
	case FPIdle:
		// zeros
	case FPMax:
		for i := range cpu {
			cpu[i], gpu[i] = 1, 1
		}
	case FPHPL:
		fillPhases(cpu, gpu, []phase{
			{frac: 0.05, cpu: 0.50, gpu: 0.20}, // setup / panel factorization start
			{frac: 0.85, cpu: 0.33, gpu: 0.79}, // core phase (§IV-2)
			{frac: 0.10, cpu: 0.45, gpu: 0.15}, // backsolve + verification tail
		})
	case FPOpenMxP:
		fillPhases(cpu, gpu, []phase{
			{frac: 0.05, cpu: 0.40, gpu: 0.25},
			{frac: 0.88, cpu: 0.25, gpu: 0.92},
			{frac: 0.07, cpu: 0.40, gpu: 0.20},
		})
	default:
		return fmt.Errorf("job: unknown fingerprint %q", fp)
	}
	j.CPUTrace, j.GPUTrace = cpu, gpu
	j.Name = string(fp)
	return nil
}

type phase struct {
	frac     float64
	cpu, gpu float64
}

func fillPhases(cpu, gpu []float64, phases []phase) {
	n := len(cpu)
	pos := 0
	for pi, p := range phases {
		count := int(p.frac*float64(n) + 0.5)
		if pi == len(phases)-1 {
			count = n - pos
		}
		for i := 0; i < count && pos < n; i++ {
			cpu[pos], gpu[pos] = p.cpu, p.gpu
			pos++
		}
	}
	for ; pos < n; pos++ {
		cpu[pos], gpu[pos] = phases[len(phases)-1].cpu, phases[len(phases)-1].gpu
	}
}

// GeneratorConfig parameterizes the synthetic workload generator with the
// telemetry-derived statistics of §III-B3 (defaults from Table IV). The
// JSON tags define the sweep-service wire format for submitting
// synthetic scenarios over HTTP.
type GeneratorConfig struct {
	ArrivalMeanSec float64 `json:"arrival_mean_sec"` // mean inter-arrival time t_avg (Table IV avg: 138 s)
	NodesMean      float64 `json:"nodes_mean"`       // mean nodes per job (268)
	NodesStd       float64 `json:"nodes_std"`        // std of nodes per job (626)
	MaxNodes       int     `json:"max_nodes"`        // system size cap
	WallMeanSec    float64 `json:"wall_mean_sec"`    // mean runtime (39 min)
	WallStdSec     float64 `json:"wall_std_sec"`     // std of runtime (14 min)
	WallMinSec     float64 `json:"wall_min_sec"`
	WallMaxSec     float64 `json:"wall_max_sec"`
	// Utilization means/stds for the randomly distributed per-job
	// average utilizations (§III-B3).
	CPUUtilMean float64 `json:"cpu_util_mean"`
	CPUUtilStd  float64 `json:"cpu_util_std"`
	GPUUtilMean float64 `json:"gpu_util_mean"`
	GPUUtilStd  float64 `json:"gpu_util_std"`
	// UtilJitter adds small per-quanta variation around the job mean.
	UtilJitter float64 `json:"util_jitter"`
	// SingleNodeFraction forces this share of jobs to one node (Fig. 9:
	// 400 of 1238 jobs in the replayed day were single-node).
	SingleNodeFraction float64 `json:"single_node_fraction"`
	Seed               int64   `json:"seed"`
}

// DefaultGeneratorConfig returns Table IV-calibrated parameters for a
// Frontier-sized system.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{
		ArrivalMeanSec: 138,
		NodesMean:      268, NodesStd: 626, MaxNodes: 9472,
		WallMeanSec: 39 * 60, WallStdSec: 14 * 60,
		WallMinSec: 60, WallMaxSec: 6 * 3600,
		CPUUtilMean: 0.45, CPUUtilStd: 0.25,
		GPUUtilMean: 0.70, GPUUtilStd: 0.25,
		UtilJitter:         0.05,
		SingleNodeFraction: 0.32,
		Seed:               1,
	}
}

// Generator produces synthetic jobs via the Eq. 5 Poisson process.
type Generator struct {
	cfg    GeneratorConfig
	rng    *rand.Rand
	nextID int
	clock  float64
}

// NewGenerator builds a generator from cfg.
func NewGenerator(cfg GeneratorConfig) *Generator {
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), nextID: 1}
}

// GenerateHorizon returns every job arriving in [0, horizonSec). A
// non-positive arrival mean yields no jobs (the exponential gap would
// never advance the clock).
func (g *Generator) GenerateHorizon(horizonSec float64) []*Job {
	if g.cfg.ArrivalMeanSec <= 0 {
		return nil
	}
	var jobs []*Job
	for {
		gap := dist.Exponential(g.rng, g.cfg.ArrivalMeanSec)
		if g.clock+gap >= horizonSec {
			// Leave the clock untouched so further calls continue the stream.
			return jobs
		}
		g.clock += gap
		jobs = append(jobs, g.buildJob(g.clock))
	}
}

func (g *Generator) buildJob(submit float64) *Job {
	cfg := g.cfg
	nodes := 1
	if g.rng.Float64() >= cfg.SingleNodeFraction {
		nodes = int(dist.LogNormal(g.rng, cfg.NodesMean, cfg.NodesStd))
		if nodes < 1 {
			nodes = 1
		}
		if cfg.MaxNodes > 0 && nodes > cfg.MaxNodes {
			nodes = cfg.MaxNodes
		}
	}
	wall := dist.TruncNormal(g.rng, cfg.WallMeanSec, cfg.WallStdSec, cfg.WallMinSec, cfg.WallMaxSec)
	j := New(g.nextID, fmt.Sprintf("synthetic-%d", g.nextID), nodes, wall, submit)
	g.nextID++

	cpuMean := dist.TruncNormal(g.rng, cfg.CPUUtilMean, cfg.CPUUtilStd, 0, 1)
	gpuMean := dist.TruncNormal(g.rng, cfg.GPUUtilMean, cfg.GPUUtilStd, 0, 1)
	n := TraceLen(wall)
	j.CPUTrace = make([]float64, n)
	j.GPUTrace = make([]float64, n)
	for i := 0; i < n; i++ {
		j.CPUTrace[i] = clamp01(cpuMean + cfg.UtilJitter*g.rng.NormFloat64())
		j.GPUTrace[i] = clamp01(gpuMean + cfg.UtilJitter*g.rng.NormFloat64())
	}
	return j
}

// NewHPL builds the 9216-node HPL benchmark job used in Table III and
// Figs. 8–9.
func NewHPL(id int, submit, wallSec float64) *Job {
	j := New(id, "hpl", 9216, wallSec, submit)
	if err := j.ApplyFingerprint(FPHPL); err != nil {
		panic(err) // FPHPL is a known fingerprint
	}
	return j
}

// NewOpenMxP builds the OpenMxP benchmark job of Fig. 8.
func NewOpenMxP(id int, submit, wallSec float64) *Job {
	j := New(id, "openmxp", 9216, wallSec, submit)
	if err := j.ApplyFingerprint(FPOpenMxP); err != nil {
		panic(err)
	}
	return j
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
