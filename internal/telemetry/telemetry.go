// Package telemetry implements the Table II data schemas used for
// verification and validation (§IV): job records carrying 15 s CPU/GPU
// power traces, system-level measured-power series, per-CDU cooling
// series, and wet-bulb weather series. It provides JSONL/CSV persistence,
// the NDJSON stream format (stream.go) that live runs and the result
// store write, and the power↔utilization conversion RAPS relies on
// (footnote 1: "Since our system telemetry lacks CPU/GPU utilization, we
// linearly interpolate power to utilization").
//
// ORNL's production telemetry is not public; datasets here are emitted by
// the simulator itself (optionally with sensor noise) and replayed
// through the same code paths the paper uses for its 183-day study.
package telemetry

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

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

// validate applies the bound every job-record reader holds a record to.
func (r *JobRecord) validate() error {
	if r.NodeCount <= 0 {
		return fmt.Errorf("non-positive node count %d", r.NodeCount)
	}
	return nil
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

// Save writes the dataset to dir as jobs.jsonl + series.csv + meta.json.
func (d *Dataset) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	jf, err := os.Create(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		return err
	}
	defer jf.Close()
	if err := WriteJobsJSONL(jf, d.Jobs); err != nil {
		return err
	}
	sf, err := os.Create(filepath.Join(dir, "series.csv"))
	if err != nil {
		return err
	}
	defer sf.Close()
	if err := WriteSeriesCSV(sf, d.Series); err != nil {
		return err
	}
	meta := map[string]any{"epoch": d.Epoch, "series_dt_sec": d.SeriesDtSec}
	mb, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "meta.json"), mb, 0o644)
}

// Load reads a dataset saved by Save.
func Load(dir string) (*Dataset, error) {
	d := &Dataset{}
	mb, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, err
	}
	var meta struct {
		Epoch       string  `json:"epoch"`
		SeriesDtSec float64 `json:"series_dt_sec"`
	}
	if err := json.Unmarshal(mb, &meta); err != nil {
		return nil, fmt.Errorf("telemetry: bad meta.json: %w", err)
	}
	d.Epoch, d.SeriesDtSec = meta.Epoch, meta.SeriesDtSec

	jf, err := os.Open(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		return nil, err
	}
	defer jf.Close()
	if d.Jobs, err = ReadJobsJSONL(jf); err != nil {
		return nil, err
	}
	sf, err := os.Open(filepath.Join(dir, "series.csv"))
	if err != nil {
		return nil, err
	}
	defer sf.Close()
	if d.Series, err = ReadSeriesCSV(sf); err != nil {
		return nil, err
	}
	return d, nil
}

// WriteJobsJSONL streams job records as one JSON object per line.
func WriteJobsJSONL(w io.Writer, jobs []JobRecord) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range jobs {
		if err := enc.Encode(&jobs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJobsJSONL parses a JSONL job stream.
func ReadJobsJSONL(r io.Reader) ([]JobRecord, error) {
	var jobs []JobRecord
	dec := json.NewDecoder(r)
	for {
		var rec JobRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return jobs, nil
		} else if err != nil {
			return nil, fmt.Errorf("telemetry: job record %d: %w", len(jobs), err)
		}
		if err := rec.validate(); err != nil {
			return nil, fmt.Errorf("telemetry: job record %d: %w", len(jobs), err)
		}
		jobs = append(jobs, rec)
	}
}

// WriteSeriesCSV writes the series with a header row.
func WriteSeriesCSV(w io.Writer, pts []SeriesPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_sec", "measured_power_w", "wetbulb_c"}); err != nil {
		return err
	}
	row := make([]string, 3)
	for _, p := range pts {
		row[0] = strconv.FormatFloat(p.TimeSec, 'g', -1, 64)
		row[1] = strconv.FormatFloat(p.MeasuredPowerW, 'g', -1, 64)
		row[2] = strconv.FormatFloat(p.WetBulbC, 'g', -1, 64)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadSeriesCSV parses a series written by WriteSeriesCSV.
func ReadSeriesCSV(r io.Reader) ([]SeriesPoint, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("telemetry: empty series file")
	}
	var pts []SeriesPoint
	for i, row := range rows[1:] {
		if len(row) != 3 {
			return nil, fmt.Errorf("telemetry: series row %d has %d columns", i+1, len(row))
		}
		var p SeriesPoint
		if p.TimeSec, err = strconv.ParseFloat(row[0], 64); err != nil {
			return nil, fmt.Errorf("telemetry: series row %d time: %w", i+1, err)
		}
		if p.MeasuredPowerW, err = strconv.ParseFloat(row[1], 64); err != nil {
			return nil, fmt.Errorf("telemetry: series row %d power: %w", i+1, err)
		}
		if p.WetBulbC, err = strconv.ParseFloat(row[2], 64); err != nil {
			return nil, fmt.Errorf("telemetry: series row %d wetbulb: %w", i+1, err)
		}
		pts = append(pts, p)
	}
	return pts, nil
}
