package optimize

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/raps"
)

// This file defines the co-design search space: named knobs over twin
// design and control parameters — AutoCSM sizing quantities, plant
// setpoints, solver config, and workload/partition mix — each mapped
// onto a candidate core.Scenario, plus the objective metrics extracted
// from the twin's report.

// Knob is one search dimension.
type Knob struct {
	// Name selects what the dimension controls (see KnobNames).
	Name string  `json:"name"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	// Step quantizes the dimension onto a grid anchored at Min (0 →
	// continuous). Integer-valued knobs (equipment counts, job caps)
	// default to step 1. Quantization is what makes candidate scenarios
	// content-hashable across generations and re-runs: two draws that
	// snap to the same grid point are the same scenario, and the sweep
	// service's cache serves the second for free.
	Step float64 `json:"step,omitempty"`
}

// knobKind classifies how a knob applies to a candidate.
type knobKind int

const (
	knobCooling  knobKind = iota // mutates the candidate CoolingSpec
	knobScenario                 // mutates scalar Scenario fields
	knobWorkload                 // mutates the scenario Generator
)

type knobDef struct {
	kind    knobKind
	integer bool
	// design marks AutoCSM sizing inputs, only valid when the base
	// plant is generated (a preset plant is hand-calibrated; resizing
	// it silently would discard the calibration).
	design bool
	apply  func(sc *core.Scenario, cs *config.CoolingSpec, v float64)
}

// knobDefs is the registry of supported knob names.
var knobDefs = map[string]knobDef{
	// Plant control setpoints — applied to presets and generated plants
	// alike via the CoolingSpec setpoint overlay.
	"cooling.ct_supply_set_c": {kind: knobCooling,
		apply: func(_ *core.Scenario, cs *config.CoolingSpec, v float64) { cs.CTSupplySetC = v }},
	"cooling.htw_header_set_pa": {kind: knobCooling,
		apply: func(_ *core.Scenario, cs *config.CoolingSpec, v float64) { cs.HTWHeaderSetPa = v }},

	// AutoCSM sizing quantities (generated plants only).
	"cooling.sec_supply_c": {kind: knobCooling, design: true,
		apply: func(_ *core.Scenario, cs *config.CoolingSpec, v float64) { cs.SecSupplyC = v }},
	"cooling.ct_supply_c": {kind: knobCooling, design: true,
		apply: func(_ *core.Scenario, cs *config.CoolingSpec, v float64) { cs.CTSupplyC = v }},
	"cooling.primary_flow_gpm": {kind: knobCooling, design: true,
		apply: func(_ *core.Scenario, cs *config.CoolingSpec, v float64) { cs.PrimaryFlowGPM = v }},
	"cooling.tower_flow_gpm": {kind: knobCooling, design: true,
		apply: func(_ *core.Scenario, cs *config.CoolingSpec, v float64) { cs.TowerFlowGPM = v }},
	"cooling.num_towers": {kind: knobCooling, design: true, integer: true,
		apply: func(_ *core.Scenario, cs *config.CoolingSpec, v float64) { cs.NumTowers = int(v) }},
	"cooling.cells_per_tower": {kind: knobCooling, design: true, integer: true,
		apply: func(_ *core.Scenario, cs *config.CoolingSpec, v float64) { cs.CellsPerTower = int(v) }},

	// Solver config: 0 keeps the plant's solver, ≥0.5 selects the
	// adaptive fast path — letting a study trade solver cost against
	// objective fidelity.
	"cooling.solver_adaptive": {kind: knobCooling, integer: true,
		apply: func(_ *core.Scenario, cs *config.CoolingSpec, v float64) {
			if v >= 0.5 {
				cs.Solver = "adaptive"
			}
		}},

	// Scenario scalars.
	"scenario.tick_sec": {kind: knobScenario,
		apply: func(sc *core.Scenario, _ *config.CoolingSpec, v float64) { sc.TickSec = v }},
	"scenario.wetbulb_c": {kind: knobScenario,
		apply: func(sc *core.Scenario, _ *config.CoolingSpec, v float64) { sc.WetBulbC = v }},

	// Workload mix (the scenario-level generator; partition workloads
	// inherit it when Partitions is empty).
	"workload.arrival_mean_sec": {kind: knobWorkload,
		apply: func(sc *core.Scenario, _ *config.CoolingSpec, v float64) { sc.Generator.ArrivalMeanSec = v }},
	"workload.nodes_mean": {kind: knobWorkload,
		apply: func(sc *core.Scenario, _ *config.CoolingSpec, v float64) { sc.Generator.NodesMean = v }},
	"workload.max_nodes": {kind: knobWorkload, integer: true,
		apply: func(sc *core.Scenario, _ *config.CoolingSpec, v float64) { sc.Generator.MaxNodes = int(v) }},
	"workload.wall_mean_sec": {kind: knobWorkload,
		apply: func(sc *core.Scenario, _ *config.CoolingSpec, v float64) { sc.Generator.WallMeanSec = v }},
}

// KnobNames lists every supported knob name.
func KnobNames() []string {
	names := make([]string, 0, len(knobDefs))
	for n := range knobDefs {
		names = append(names, n)
	}
	sortStrings(names)
	return names
}

// Space is a validated knob list bound to a base scenario and plant.
type Space struct {
	knobs []Knob
	defs  []knobDef
}

// NewSpace validates the knobs against the base plant. basePlant is the
// CoolingSpec candidates will mutate (the scenario override when set,
// else the system spec's plant).
func NewSpace(knobs []Knob, basePlant config.CoolingSpec) (*Space, error) {
	if len(knobs) == 0 {
		return nil, fmt.Errorf("optimize: study needs at least one knob")
	}
	s := &Space{knobs: append([]Knob(nil), knobs...), defs: make([]knobDef, len(knobs))}
	seen := make(map[string]bool, len(knobs))
	for i := range s.knobs {
		k := &s.knobs[i]
		def, ok := knobDefs[k.Name]
		if !ok {
			return nil, fmt.Errorf("optimize: unknown knob %q (supported: %s)",
				k.Name, strings.Join(KnobNames(), ", "))
		}
		if seen[k.Name] {
			return nil, fmt.Errorf("optimize: knob %q listed twice", k.Name)
		}
		seen[k.Name] = true
		if def.integer && k.Step == 0 {
			k.Step = 1
		}
		if !(k.Min < k.Max) {
			return nil, fmt.Errorf("optimize: knob %q: min %v must be below max %v", k.Name, k.Min, k.Max)
		}
		// An infinite width would spread every sample to ±Inf before
		// Snap clamps it onto a bound.
		if math.IsInf(k.Max-k.Min, 0) || math.IsInf(k.Step, 0) || math.IsNaN(k.Step) {
			return nil, fmt.Errorf("optimize: knob %q: min, max, step and max−min must be finite", k.Name)
		}
		if k.Step < 0 {
			return nil, fmt.Errorf("optimize: knob %q: step must be non-negative", k.Name)
		}
		// Snap rounds an integer knob last; only whole bounds keep the
		// rounded value inside them.
		if def.integer && (k.Min != math.Trunc(k.Min) || k.Max != math.Trunc(k.Max)) {
			return nil, fmt.Errorf("optimize: knob %q counts whole units: min %v and max %v must be integers", k.Name, k.Min, k.Max)
		}
		if def.design && basePlant.Preset != "" {
			return nil, fmt.Errorf("optimize: knob %q resizes the plant, but the base plant is the hand-calibrated preset %q — clear the preset and supply design quantities to search sizing",
				k.Name, basePlant.Preset)
		}
		s.defs[i] = def
	}
	return s, nil
}

// Dims is the search dimensionality.
func (s *Space) Dims() int { return len(s.knobs) }

// Knobs returns the validated knob list (integer steps defaulted).
func (s *Space) Knobs() []Knob { return append([]Knob(nil), s.knobs...) }

// Bounds returns the per-dimension [lo, hi] arrays (surrogate
// normalization ranges).
func (s *Space) Bounds() (lo, hi []float64) {
	lo = make([]float64, len(s.knobs))
	hi = make([]float64, len(s.knobs))
	for i, k := range s.knobs {
		lo[i], hi[i] = k.Min, k.Max
	}
	return lo, hi
}

// Snap clamps and quantizes a raw vector onto the space's grid,
// in place, and returns it.
func (s *Space) Snap(vec []float64) []float64 {
	for i, k := range s.knobs {
		v := vec[i]
		if k.Step > 0 {
			v = k.Min + math.Round((v-k.Min)/k.Step)*k.Step
		}
		if v < k.Min {
			v = k.Min
		}
		if v > k.Max {
			v = k.Max
		}
		if s.defs[i].integer {
			v = math.Round(v)
		}
		vec[i] = v
	}
	return vec
}

// Key is the canonical identity of a snapped vector — the memo key that
// makes re-encountered candidates free.
func (s *Space) Key(vec []float64) string {
	var b strings.Builder
	for i, v := range vec {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(strconv.FormatFloat(v, 'g', 12, 64))
	}
	return b.String()
}

// Params labels a vector with its knob names (for reports).
func (s *Space) Params(vec []float64) map[string]float64 {
	m := make(map[string]float64, len(vec))
	for i, k := range s.knobs {
		m[k.Name] = vec[i]
	}
	return m
}

// Apply builds the candidate scenario for a snapped vector: the base
// scenario with the knob values overlaid, carrying its own CoolingSpec
// clone whenever any cooling knob is present (so each candidate plant
// is content-addressed independently by the sweep service).
func (s *Space) Apply(base core.Scenario, basePlant config.CoolingSpec, vec []float64) (core.Scenario, error) {
	if len(vec) != len(s.knobs) {
		return core.Scenario{}, fmt.Errorf("optimize: vector has %d dims, space has %d", len(vec), len(s.knobs))
	}
	sc := base
	var cs *config.CoolingSpec
	for i, def := range s.defs {
		if def.kind == knobCooling {
			if cs == nil {
				clone := basePlant
				cs = &clone
				sc.CoolingSpec = cs
				sc.Cooling = true
			}
		}
		def.apply(&sc, cs, vec[i])
	}
	return sc, nil
}

// metricValue extracts a named objective/constraint metric from a
// report. aux_mw is derived as AvgPowerMW·(AvgPUE−1) — the cooling
// overhead the PUE carries on top of the IT load.
func metricValue(rep *raps.Report, metric string) (float64, error) {
	switch metric {
	case "energy_mwh":
		return rep.EnergyMWh, nil
	case "avg_pue":
		return rep.AvgPUE, nil
	case "aux_mw":
		if rep.AvgPUE <= 0 {
			return 0, nil
		}
		return rep.AvgPowerMW * (rep.AvgPUE - 1), nil
	case "throughput_per_hr":
		return rep.ThroughputPerHr, nil
	case "avg_power_mw":
		return rep.AvgPowerMW, nil
	case "loss_mw":
		return rep.AvgLossMW, nil
	case "jobs_completed":
		return float64(rep.JobsCompleted), nil
	default:
		return 0, fmt.Errorf("optimize: unknown metric %q (supported: %s)",
			metric, strings.Join(MetricNames(), ", "))
	}
}

// MetricNames lists every supported objective/constraint metric.
func MetricNames() []string {
	return []string{"energy_mwh", "avg_pue", "aux_mw", "throughput_per_hr", "avg_power_mw", "loss_mw", "jobs_completed"}
}

// sortStrings is a tiny insertion sort: the knob registry is small and
// this avoids importing sort for one call site.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
