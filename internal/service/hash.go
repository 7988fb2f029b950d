package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"exadigit/internal/core"
	"exadigit/internal/job"
	"exadigit/internal/telemetry"
)

// scenarioPayload is the canonical hashable view of a Scenario. Every
// field that can change a run's outcome is listed explicitly — adding a
// field to core.Scenario does not silently change existing hashes, and
// runtime-only plumbing (TelemetryTo) is excluded by construction. The
// replay dataset is folded in as its own content digest so huge traces
// hash in one pass without being re-encoded into the payload.
type scenarioPayload struct {
	Name       string            `json:"name"`
	Workload   core.WorkloadKind `json:"workload"`
	HorizonSec float64           `json:"horizon_sec"`
	TickSec    float64           `json:"tick_sec"`
	Policy     string            `json:"policy"`
	Cooling    bool              `json:"cooling"`
	// CoolingSpecHash folds the scenario's plant override in by its
	// canonical content hash (config.CoolingSpec.Hash), which also
	// covers the content of runtime-registered presets — re-registering
	// a plant under the same name changes override-scenario hashes too.
	// Omitted when the scenario cools with the system spec's own plant,
	// so pre-override hashes are unchanged.
	CoolingSpecHash string              `json:"cooling_spec_hash,omitempty"`
	PowerMode       string              `json:"power_mode"`
	Generator       job.GeneratorConfig `json:"generator"`
	// Partitions is the per-partition workload configuration of a
	// multi-partition scenario; omitted when empty, so pre-partition
	// scenario hashes are unchanged.
	Partitions       []core.PartitionScenario `json:"partitions,omitempty"`
	DatasetDigest    string                   `json:"dataset_digest,omitempty"`
	BenchmarkWallSec float64                  `json:"benchmark_wall_sec"`
	WetBulbC         float64                  `json:"wetbulb_c"`
	WeatherStart     time.Time                `json:"weather_start"`
	WeatherSeed      int64                    `json:"weather_seed"`
	Engine           string                   `json:"engine"`
	NoExport         bool                     `json:"no_export"`
	NoHistory        bool                     `json:"no_history"`
}

// HashScenario returns the canonical content hash of a scenario — the
// scenario half of the (spec, scenario) result-cache key. Two scenarios
// hash equal iff they would produce identical results against the same
// spec (the simulator is deterministic given these fields).
func HashScenario(sc core.Scenario) (string, error) {
	p := scenarioPayload{
		Name:       sc.Name,
		Workload:   sc.Workload,
		HorizonSec: sc.HorizonSec,
		TickSec:    sc.TickSec,
		Policy:     sc.Policy,
		// A plant override implies cooling (the twin normalizes the same
		// way), so {CoolingSpec, Cooling:false} and {CoolingSpec,
		// Cooling:true} — the library and HTTP spellings of the same run
		// — hash identically and share one cache entry.
		Cooling:          sc.Cooling || sc.CoolingSpec != nil,
		PowerMode:        sc.PowerMode,
		Generator:        sc.Generator,
		Partitions:       sc.Partitions,
		BenchmarkWallSec: sc.BenchmarkWallSec,
		WetBulbC:         sc.WetBulbC,
		WeatherStart:     sc.WeatherStart,
		WeatherSeed:      sc.WeatherSeed,
		Engine:           sc.Engine,
		NoExport:         sc.NoExport,
		NoHistory:        sc.NoHistory,
	}
	if len(sc.Partitions) > 0 {
		// An explicit per-partition list makes the twin ignore the
		// scenario-level workload knobs (core's partitionWorkloads),
		// so normalize them out of the hash — spellings differing only
		// in an ignored field share one cache entry, matching the
		// implied-cooling normalization above. The replay dataset is
		// ignored too (replay is never per-partition), so its digest is
		// skipped below.
		p.Workload = ""
		p.Generator = job.GeneratorConfig{}
		p.BenchmarkWallSec = 0
	}
	if sc.CoolingSpec != nil {
		h, err := sc.CoolingSpec.Hash()
		if err != nil {
			return "", fmt.Errorf("service: scenario hash: %w", err)
		}
		p.CoolingSpecHash = h
	}
	if sc.Dataset != nil && len(sc.Partitions) == 0 {
		digest, err := datasetDigest(sc.Dataset)
		if err != nil {
			return "", err
		}
		p.DatasetDigest = digest
	}
	data, err := json.Marshal(p)
	if err != nil {
		return "", fmt.Errorf("service: scenario hash: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// datasetDigest streams the dataset's content through SHA-256 without
// materializing a second copy.
func datasetDigest(d *telemetry.Dataset) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(struct {
		Epoch       string  `json:"epoch"`
		SeriesDtSec float64 `json:"series_dt_sec"`
	}{d.Epoch, d.SeriesDtSec}); err != nil {
		return "", fmt.Errorf("service: dataset digest: %w", err)
	}
	for i := range d.Jobs {
		if err := enc.Encode(&d.Jobs[i]); err != nil {
			return "", fmt.Errorf("service: dataset digest: %w", err)
		}
	}
	for i := range d.Series {
		if err := enc.Encode(&d.Series[i]); err != nil {
			return "", fmt.Errorf("service: dataset digest: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
