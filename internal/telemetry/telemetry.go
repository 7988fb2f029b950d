// Package telemetry implements the Table II data schemas used for
// verification and validation (§IV): job records carrying 15 s CPU/GPU
// power traces, system-level measured-power series, per-CDU cooling
// series, and wet-bulb weather series. A dataset has one encoding, the
// NDJSON stream format (stream.go): live runs stream it, the result
// store embeds its lines, and Save/Load keep it as one file. The package
// also holds the power↔utilization conversion RAPS relies on (footnote
// 1: "Since our system telemetry lacks CPU/GPU utilization, we linearly
// interpolate power to utilization").
//
// ORNL's production telemetry is not public; datasets here are emitted by
// the simulator itself (optionally with sensor noise) and replayed
// through the same code paths the paper uses for its 183-day study.
package telemetry

import (
	"math/rand"
	"os"
	"path/filepath"

	"exadigit/internal/job"
)

// JobRecord is the Table II "RAPS inputs" schema: job name, id, node
// count, start time, and CPU/GPU power traces at 15 s resolution.
type JobRecord struct {
	JobName   string `json:"job_name"`
	JobID     int    `json:"job_id"`
	NodeCount int    `json:"node_count"`
	// SubmitTime and StartTime are seconds from dataset epoch.
	SubmitTime float64 `json:"submit_time"`
	StartTime  float64 `json:"start_time"`
	// WallTime is the job duration in seconds.
	WallTime float64 `json:"wall_time"`
	// CPUPowerW and GPUPowerW are per-device power traces (15 s quanta):
	// one CPU and the per-GPU average, matching how Frontier telemetry
	// reports them.
	CPUPowerW []float64 `json:"cpu_power"`
	GPUPowerW []float64 `json:"gpu_power"`
}

// SeriesPoint is one sample of the system-level validation series. The
// JSON tags define the NDJSON streaming schema (stream.go).
type SeriesPoint struct {
	TimeSec        float64 `json:"time_sec"`         // seconds from dataset epoch
	MeasuredPowerW float64 `json:"measured_power_w"` // total system power ("measured power", 1 s in Table II)
	WetBulbC       float64 `json:"wetbulb_c"`        // outdoor wet bulb (60 s in Table II)
	// PartPowerW is the per-partition power split of a multi-partition
	// system (§V), in spec partition order; omitted on single-partition
	// captures so their NDJSON stays byte-identical to the pre-partition
	// schema.
	PartPowerW []float64 `json:"part_power_w,omitempty"`
}

// Dataset is a replayable telemetry capture.
type Dataset struct {
	// Epoch labels the capture (e.g. "2024-01-18"); informational.
	Epoch string
	// SeriesDtSec is the sampling period of Series.
	SeriesDtSec float64
	Jobs        []JobRecord
	Series      []SeriesPoint
}

// UtilFromPower inverts the linear power model: the utilization that
// produces powerW between idleW and maxW, clamped to [0, 1].
func UtilFromPower(powerW, idleW, maxW float64) float64 {
	if maxW <= idleW {
		return 0
	}
	u := (powerW - idleW) / (maxW - idleW)
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// PowerFromUtil applies the linear power model.
func PowerFromUtil(util, idleW, maxW float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	return idleW + util*(maxW-idleW)
}

// ToJob converts a record into a schedulable job, translating the power
// traces to utilization traces with the given per-device idle/max powers
// and pinning the replay start time.
func (r *JobRecord) ToJob(cpuIdle, cpuMax, gpuIdle, gpuMax float64) *job.Job {
	j := job.New(r.JobID, r.JobName, r.NodeCount, r.WallTime, r.SubmitTime)
	j.ReplayStart = r.StartTime
	j.CPUTrace = make([]float64, len(r.CPUPowerW))
	for i, p := range r.CPUPowerW {
		j.CPUTrace[i] = UtilFromPower(p, cpuIdle, cpuMax)
	}
	j.GPUTrace = make([]float64, len(r.GPUPowerW))
	for i, p := range r.GPUPowerW {
		j.GPUTrace[i] = UtilFromPower(p, gpuIdle, gpuMax)
	}
	return j
}

// FromJob converts a scheduled job into a telemetry record with power
// traces (the inverse of ToJob).
func FromJob(j *job.Job, cpuIdle, cpuMax, gpuIdle, gpuMax float64) JobRecord {
	r := JobRecord{
		JobName:    j.Name,
		JobID:      j.ID,
		NodeCount:  j.NodeCount,
		SubmitTime: j.SubmitTime,
		StartTime:  j.StartTime,
		WallTime:   j.WallTimeSec,
		CPUPowerW:  make([]float64, len(j.CPUTrace)),
		GPUPowerW:  make([]float64, len(j.GPUTrace)),
	}
	for i, u := range j.CPUTrace {
		r.CPUPowerW[i] = PowerFromUtil(u, cpuIdle, cpuMax)
	}
	for i, u := range j.GPUTrace {
		r.GPUPowerW[i] = PowerFromUtil(u, gpuIdle, gpuMax)
	}
	return r
}

// AddSensorNoise perturbs the measured-power series with multiplicative
// Gaussian noise of the given relative sigma, emulating the meter error
// between the digital twin and the physical system. Deterministic per
// seed.
func (d *Dataset) AddSensorNoise(relSigma float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range d.Series {
		d.Series[i].MeasuredPowerW *= 1 + relSigma*rng.NormFloat64()
	}
}

// datasetFile is the one file a saved dataset directory holds.
const datasetFile = "dataset.ndjson"

// Save writes the dataset to dir/dataset.ndjson in the NDJSON stream
// format (stream.go), creating dir if needed.
func (d *Dataset) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, datasetFile))
	if err != nil {
		return err
	}
	if err := WriteStream(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a dataset saved by Save.
func Load(dir string) (*Dataset, error) {
	f, err := os.Open(filepath.Join(dir, datasetFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadStream(f)
}
