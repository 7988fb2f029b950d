// Package config implements the JSON input specification that
// generalizes ExaDigiT beyond Frontier (§V): "the generalized version of
// RAPS inputs configuration files describing the system architecture, the
// cooling system, the scheduler, and the power system". A SystemSpec
// fully describes a machine — including multi-partition systems such as
// Setonix with separate CPU-only and CPU+GPU partitions — and builds the
// corresponding power models and cooling configuration.
package config

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"

	"exadigit/internal/cooling"
	"exadigit/internal/power"
)

// SystemSpec is the top-level machine description.
type SystemSpec struct {
	Name string `json:"name"`
	// Partitions lists the machine's scheduling partitions; Frontier has
	// one, Setonix-style systems several (§V).
	Partitions []PartitionSpec `json:"partitions"`
	Cooling    CoolingSpec     `json:"cooling"`
	Scheduler  SchedulerSpec   `json:"scheduler"`
}

// PartitionSpec describes one partition's topology and component powers.
type PartitionSpec struct {
	Name string `json:"name"`

	NodesTotal      int `json:"nodes_total"`
	NodesPerRack    int `json:"nodes_per_rack"`
	NodesPerChassis int `json:"nodes_per_chassis"`
	ChassisPerRack  int `json:"chassis_per_rack"`
	SwitchesPerRack int `json:"switches_per_rack"`
	RacksPerCDU     int `json:"racks_per_cdu"`
	NumCDUs         int `json:"num_cdus"`

	CPUIdleW float64 `json:"cpu_idle_w"`
	CPUMaxW  float64 `json:"cpu_max_w"`
	GPUIdleW float64 `json:"gpu_idle_w"`
	GPUMaxW  float64 `json:"gpu_max_w"`
	RAMW     float64 `json:"ram_w"`
	NVMeW    float64 `json:"nvme_w"`
	NICW     float64 `json:"nic_w"`
	SwitchW  float64 `json:"switch_w"`
	CDUPumpW float64 `json:"cdu_pump_w"`

	GPUsPerNode int `json:"gpus_per_node"`
	NICsPerNode int `json:"nics_per_node"`
	NVMePerNode int `json:"nvme_per_node"`

	Power PowerSpec `json:"power"`
}

// PowerSpec describes the conversion chain (§III-B1).
type PowerSpec struct {
	RectEtaMax     float64 `json:"rect_eta_max"`
	RectLowDroop   float64 `json:"rect_low_droop"`
	RectHighDroop  float64 `json:"rect_high_droop"`
	RectPOptW      float64 `json:"rect_p_opt_w"`
	RectPMaxW      float64 `json:"rect_p_max_w"`
	SivocEta       float64 `json:"sivoc_eta"`
	DCDistEta      float64 `json:"dc_dist_eta"`
	RectPerChassis int     `json:"rect_per_chassis"`
	// Mode: "ac-baseline", "smart-rectifier", or "dc380".
	Mode string `json:"mode"`
	// CoolingEfficiency converts electrical input to liquid heat (0.945).
	CoolingEfficiency float64 `json:"cooling_efficiency"`
}

// CoolingSpec is the AutoCSM input (§V): high-level design quantities
// from which a full plant model is synthesized. Setting Preset instead
// names a hand-calibrated plant (cooling.Preset) that is used verbatim —
// the default Frontier spec resolves to the "frontier" preset so its
// cooled runs stay bit-identical to the paper-validated plant. The
// design quantities may still be carried alongside a preset (they
// document the machine and take over if the preset name is cleared).
type CoolingSpec struct {
	Preset         string  `json:"preset,omitempty"`
	NumCDUs        int     `json:"num_cdus"`
	NumTowers      int     `json:"num_towers"`
	CellsPerTower  int     `json:"cells_per_tower"`
	NumFanChannels int     `json:"num_fan_channels"`
	NumHTWPs       int     `json:"num_htwps"`
	NumCTWPs       int     `json:"num_ctwps"`
	NumEHX         int     `json:"num_ehx"`
	DesignHeatMW   float64 `json:"design_heat_mw"`
	DesignWetBulbC float64 `json:"design_wetbulb_c"`
	SecSupplyC     float64 `json:"secondary_supply_c"`
	CTSupplyC      float64 `json:"ct_supply_c"`
	PrimaryFlowGPM float64 `json:"primary_flow_gpm"`
	TowerFlowGPM   float64 `json:"tower_flow_gpm"`

	// CTSupplySetC and HTWHeaderSetPa override the resolved plant's
	// control setpoints — the tower leaving-water temperature target and
	// the primary header differential-pressure target — after preset
	// resolution or AutoCSM sizing. They are the L5 co-design knobs: the
	// optimizer sweeps them per candidate without re-sizing the plant.
	// Zero leaves the resolved plant untouched (omitempty keeps every
	// pre-existing spec hash stable).
	CTSupplySetC   float64 `json:"ct_supply_set_c,omitempty"`
	HTWHeaderSetPa float64 `json:"htw_header_set_pa,omitempty"`

	// Solver selects the plant's thermal integration scheme: "" or "rk4"
	// keeps the fixed-step bit-reproducible reference, "adaptive" enables
	// the error-controlled stepper with the quiescence fast path. Applied
	// on top of presets too, so {"preset":"frontier","solver":"adaptive"}
	// runs the hand-calibrated plant under the adaptive solver.
	Solver string `json:"solver,omitempty"`
	// SolverRelTol and SolverAbsTol override the adaptive error
	// tolerances; zero keeps the solver defaults (1e-4, 1e-3 °C).
	SolverRelTol float64 `json:"solver_rel_tol,omitempty"`
	SolverAbsTol float64 `json:"solver_abs_tol,omitempty"`
}

// FieldError is a structured spec validation or feasibility error: the
// offending field (its JSON name), the constraint it violated, and a
// suggested fix. The sweep service and the dashboard render it as
// structured JSON on HTTP 400s instead of leaking sizing internals as a
// free-text message; errors.As-unwrap it from any spec-compilation
// error path.
type FieldError struct {
	Field      string `json:"field"`
	Constraint string `json:"constraint"`
	Suggestion string `json:"suggestion,omitempty"`
}

// Error implements error.
func (e *FieldError) Error() string {
	if e.Suggestion != "" {
		return fmt.Sprintf("%s: %s — %s", e.Field, e.Constraint, e.Suggestion)
	}
	return fmt.Sprintf("%s: %s", e.Field, e.Constraint)
}

// SchedulerSpec selects the scheduling policy.
type SchedulerSpec struct {
	Policy string `json:"policy"`
}

// Frontier returns the built-in Frontier specification matching Table I
// and §III-C1.
func Frontier() SystemSpec {
	return SystemSpec{
		Name: "frontier",
		Partitions: []PartitionSpec{{
			Name:            "compute",
			NodesTotal:      9472,
			NodesPerRack:    128,
			NodesPerChassis: 16,
			ChassisPerRack:  8,
			SwitchesPerRack: 32,
			RacksPerCDU:     3,
			NumCDUs:         25,
			CPUIdleW:        90, CPUMaxW: 280,
			GPUIdleW: 88, GPUMaxW: 560,
			RAMW: 74, NVMeW: 15, NICW: 20,
			SwitchW: 250, CDUPumpW: 8700,
			GPUsPerNode: 4, NICsPerNode: 4, NVMePerNode: 2,
			Power: PowerSpec{
				RectEtaMax: 0.963, RectLowDroop: 0.0506, RectHighDroop: 0.0405,
				RectPOptW: 7500, RectPMaxW: 15000,
				SivocEta: 0.98, DCDistEta: 0.993, RectPerChassis: 4,
				Mode: "ac-baseline", CoolingEfficiency: 0.945,
			},
		}},
		Cooling: CoolingSpec{
			Preset:  "frontier",
			NumCDUs: 25, NumTowers: 5, CellsPerTower: 4, NumFanChannels: 16,
			NumHTWPs: 4, NumCTWPs: 4, NumEHX: 5,
			DesignHeatMW: 16, DesignWetBulbC: 20,
			SecSupplyC: 32, CTSupplyC: 22,
			PrimaryFlowGPM: 5200, TowerFlowGPM: 9500,
		},
		Scheduler: SchedulerSpec{Policy: "fcfs"},
	}
}

// SetonixLike returns a two-partition machine in the style of Pawsey's
// Setonix (§V's generalization target): a CPU-only partition plus a
// GPU partition, with HPE EX-class components.
func SetonixLike() SystemSpec {
	s := SystemSpec{
		Name: "setonix-like",
		Partitions: []PartitionSpec{
			{
				Name:            "cpu",
				NodesTotal:      1592,
				NodesPerRack:    128,
				NodesPerChassis: 16,
				ChassisPerRack:  8,
				SwitchesPerRack: 32,
				RacksPerCDU:     3,
				NumCDUs:         5,
				CPUIdleW:        100, CPUMaxW: 360, // dual-socket Milan
				GPUIdleW: 0, GPUMaxW: 0,
				RAMW: 60, NVMeW: 10, NICW: 20,
				SwitchW: 250, CDUPumpW: 8700,
				GPUsPerNode: 0, NICsPerNode: 2, NVMePerNode: 1,
				Power: PowerSpec{
					RectEtaMax: 0.963, RectLowDroop: 0.0506, RectHighDroop: 0.0405,
					RectPOptW: 7500, RectPMaxW: 15000,
					SivocEta: 0.98, DCDistEta: 0.993, RectPerChassis: 4,
					Mode: "ac-baseline", CoolingEfficiency: 0.945,
				},
			},
			{
				Name:            "gpu",
				NodesTotal:      768,
				NodesPerRack:    128,
				NodesPerChassis: 16,
				ChassisPerRack:  8,
				SwitchesPerRack: 32,
				RacksPerCDU:     3,
				NumCDUs:         2,
				CPUIdleW:        90, CPUMaxW: 280,
				GPUIdleW: 88, GPUMaxW: 560, // MI250X
				RAMW: 74, NVMeW: 15, NICW: 20,
				SwitchW: 250, CDUPumpW: 8700,
				GPUsPerNode: 4, NICsPerNode: 4, NVMePerNode: 2,
				Power: PowerSpec{
					RectEtaMax: 0.963, RectLowDroop: 0.0506, RectHighDroop: 0.0405,
					RectPOptW: 7500, RectPMaxW: 15000,
					SivocEta: 0.98, DCDistEta: 0.993, RectPerChassis: 4,
					Mode: "ac-baseline", CoolingEfficiency: 0.945,
				},
			},
		},
		Cooling: CoolingSpec{
			NumCDUs: 7, NumTowers: 2, CellsPerTower: 4, NumFanChannels: 8,
			NumHTWPs: 3, NumCTWPs: 3, NumEHX: 2,
			DesignHeatMW: 3.0, DesignWetBulbC: 21,
			SecSupplyC: 32, CTSupplyC: 24,
			PrimaryFlowGPM: 1400, TowerFlowGPM: 1800,
		},
		Scheduler: SchedulerSpec{Policy: "fcfs"},
	}
	return s
}

// Validate checks the spec for structural consistency.
func (s *SystemSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("config: system name required")
	}
	if len(s.Partitions) == 0 {
		return fmt.Errorf("config: at least one partition required")
	}
	if len(s.Partitions) > maxPartitions {
		return fmt.Errorf("config: %w", &FieldError{
			Field: "partitions", Constraint: fmt.Sprintf("at most %d", maxPartitions),
			Suggestion: "merge partitions that share a node type",
		})
	}
	nodes := 0
	for i := range s.Partitions {
		p := &s.Partitions[i]
		if p.Name == "" {
			return fmt.Errorf("config: partition %d needs a name", i)
		}
		if err := p.validateSize(i, nodes); err != nil {
			return err
		}
		nodes += p.NodesTotal
		if err := p.validatePowers(i); err != nil {
			return err
		}
		if _, err := p.Topology(); err != nil {
			return fmt.Errorf("config: partition %q: %w", p.Name, err)
		}
		if p.Power.SivocEta <= 0 || p.Power.SivocEta > 1 {
			return fmt.Errorf("config: partition %q: sivoc_eta %v out of (0,1]", p.Name, p.Power.SivocEta)
		}
		if _, err := modeByName(p.Power.Mode); err != nil {
			return fmt.Errorf("config: partition %q: %w", p.Name, err)
		}
		if p.Power.CoolingEfficiency <= 0 || p.Power.CoolingEfficiency > 1 {
			return fmt.Errorf("config: partition %q: cooling_efficiency out of (0,1]", p.Name)
		}
	}
	return s.Cooling.Validate()
}

// maxSystemNodes bounds a system's nodes, summed over its partitions, at
// 100× Frontier's 9,472. Specs arrive inline over HTTP and a run
// allocates scheduler and power state per node: a spec of 1e9 nodes died
// allocating an 8 GB node pool, a fatal error that no recover catches.
const maxSystemNodes = 100 * 9472

// maxRackSlots bounds a partition's num_cdus × racks_per_cdu at 100×
// Frontier's 25 × 3.
const maxRackSlots = 100 * 25 * 3

// maxPartitions bounds a system's partition count at 32× the two of
// SetonixLike, the built-in spec with the most.
const maxPartitions = 64

// validateSize checks partition i's node count, with nodesBefore nodes
// in the partitions ahead of it, and its CDU × rack product against the
// bounds above. Non-positive counts are left to the topology check.
func (p *PartitionSpec) validateSize(i, nodesBefore int) error {
	if p.NodesTotal > maxSystemNodes-nodesBefore {
		return fmt.Errorf("config: %w", &FieldError{
			Field:      fmt.Sprintf("partitions[%d].nodes_total", i),
			Constraint: fmt.Sprintf("at most %d nodes over all partitions", maxSystemNodes),
			Suggestion: "model a smaller system",
		})
	}
	// Divide rather than multiply: the product of two large counts
	// overflows int.
	if p.NumCDUs > 0 && p.RacksPerCDU > maxRackSlots/p.NumCDUs {
		return fmt.Errorf("config: %w", &FieldError{
			Field:      fmt.Sprintf("partitions[%d].racks_per_cdu", i),
			Constraint: fmt.Sprintf("num_cdus × racks_per_cdu at most %d", maxRackSlots),
			Suggestion: "size num_cdus and racks_per_cdu to the racks the nodes fill",
		})
	}
	return nil
}

// validatePowers checks that partition i's component powers are finite
// and non-negative, and that no idle power exceeds its max.
func (p *PartitionSpec) validatePowers(i int) error {
	for _, c := range []struct {
		field string
		w     float64
	}{
		{"cpu_idle_w", p.CPUIdleW}, {"cpu_max_w", p.CPUMaxW}, {"gpu_idle_w", p.GPUIdleW}, {"gpu_max_w", p.GPUMaxW},
		{"ram_w", p.RAMW}, {"nvme_w", p.NVMeW}, {"nic_w", p.NICW}, {"switch_w", p.SwitchW}, {"cdu_pump_w", p.CDUPumpW},
	} {
		if !(c.w >= 0) || math.IsInf(c.w, 1) {
			return fmt.Errorf("config: %w", &FieldError{
				Field:      fmt.Sprintf("partitions[%d].%s", i, c.field),
				Constraint: fmt.Sprintf("%v W must be finite and non-negative", c.w),
			})
		}
	}
	for _, c := range []struct {
		field     string
		idle, max float64
	}{{"cpu_idle_w", p.CPUIdleW, p.CPUMaxW}, {"gpu_idle_w", p.GPUIdleW, p.GPUMaxW}} {
		if c.idle > c.max {
			return fmt.Errorf("config: %w", &FieldError{
				Field:      fmt.Sprintf("partitions[%d].%s", i, c.field),
				Constraint: fmt.Sprintf("idle %v W exceeds max %v W", c.idle, c.max),
			})
		}
	}
	return nil
}

// maxPlantUnits bounds every unit count of an AutoCSM plant — CDU
// loops, towers, cells per tower, fan channels, pumps and exchangers —
// at 40× Frontier's 25 CDU loops. Cooling specs arrive over HTTP:
// compiling a design costs about 7 KB and 22 µs per CDU loop, so 1e7
// loops from one request would exhaust memory, and an unbounded tower
// × cell product overflows int and crashes the plant's first step.
const maxPlantUnits = 1000

// Validate checks the cooling spec for structural consistency — the same
// checks the sweep service applies at its HTTP boundary, so malformed
// plants (non-positive flows, CDU counts, inverted temperature ladders)
// are rejected with a 400 instead of failing deep inside a worker. A
// preset spec only needs a known preset name; the design quantities are
// checked when AutoCSM will synthesize the plant from them.
func (c *CoolingSpec) Validate() error {
	if err := c.validateSolver(); err != nil {
		return err
	}
	if err := c.validateSetpoints(); err != nil {
		return err
	}
	if c.Preset != "" {
		if _, ok := cooling.Preset(c.Preset); !ok {
			return fmt.Errorf("config: %w", &FieldError{
				Field:      "preset",
				Constraint: fmt.Sprintf("unknown cooling preset %q", c.Preset),
				Suggestion: fmt.Sprintf("use one of %v, or clear preset and supply design quantities", cooling.PresetNames()),
			})
		}
		return nil
	}
	if c.NumCDUs <= 0 {
		return fmt.Errorf("config: %w", &FieldError{
			Field: "num_cdus", Constraint: "must be positive",
			Suggestion: "set num_cdus to the number of CDU loops (Frontier: 25)",
		})
	}
	if c.NumTowers <= 0 || c.CellsPerTower <= 0 {
		return fmt.Errorf("config: %w", &FieldError{
			Field: "num_towers", Constraint: "tower counts must be positive",
			Suggestion: "set num_towers and cells_per_tower ≥ 1",
		})
	}
	if c.NumHTWPs <= 0 || c.NumCTWPs <= 0 || c.NumEHX <= 0 {
		return fmt.Errorf("config: %w", &FieldError{
			Field: "num_htwps", Constraint: "pump/EHX counts must be positive",
			Suggestion: "set num_htwps, num_ctwps, and num_ehx ≥ 1",
		})
	}
	for _, u := range []struct {
		field string
		n     int
	}{
		{"num_cdus", c.NumCDUs}, {"num_towers", c.NumTowers}, {"cells_per_tower", c.CellsPerTower},
		{"num_fan_channels", c.NumFanChannels}, {"num_htwps", c.NumHTWPs}, {"num_ctwps", c.NumCTWPs}, {"num_ehx", c.NumEHX},
	} {
		if u.n > maxPlantUnits {
			return fmt.Errorf("config: %w", &FieldError{
				Field: u.field, Constraint: fmt.Sprintf("at most %d", maxPlantUnits),
				Suggestion: "model fewer, larger units",
			})
		}
	}
	if c.DesignHeatMW <= 0 {
		return fmt.Errorf("config: %w", &FieldError{
			Field: "design_heat_mw", Constraint: "must be positive",
			Suggestion: "set design_heat_mw to the plant's rated heat load",
		})
	}
	if c.PrimaryFlowGPM <= 0 || c.TowerFlowGPM <= 0 {
		return fmt.Errorf("config: %w", &FieldError{
			Field: "primary_flow_gpm", Constraint: "design flows must be positive",
			Suggestion: "set primary_flow_gpm and tower_flow_gpm to the design loop flows",
		})
	}
	if c.SecSupplyC <= c.CTSupplyC {
		return fmt.Errorf("config: %w", &FieldError{
			Field:      "secondary_supply_c",
			Constraint: fmt.Sprintf("secondary supply %v °C must exceed CT supply %v °C", c.SecSupplyC, c.CTSupplyC),
			Suggestion: "raise secondary_supply_c or lower ct_supply_c",
		})
	}
	if c.CTSupplyC <= c.DesignWetBulbC {
		return fmt.Errorf("config: %w", &FieldError{
			Field:      "ct_supply_c",
			Constraint: fmt.Sprintf("CT supply %v °C must exceed design wet bulb %v °C", c.CTSupplyC, c.DesignWetBulbC),
			Suggestion: "raise ct_supply_c or lower design_wetbulb_c",
		})
	}
	return nil
}

// validateSetpoints checks the control-setpoint overrides. They apply
// to presets and generated plants alike, so the checks are physical
// sanity bounds rather than design-ladder relations (the resolved plant
// enforces those at run time).
func (c *CoolingSpec) validateSetpoints() error {
	if c.CTSupplySetC < 0 {
		return fmt.Errorf("config: %w", &FieldError{
			Field: "ct_supply_set_c", Constraint: "must be non-negative",
			Suggestion: "omit it to keep the resolved plant's tower setpoint",
		})
	}
	if c.CTSupplySetC > 0 && c.Preset == "" && c.CTSupplySetC <= c.DesignWetBulbC {
		return fmt.Errorf("config: %w", &FieldError{
			Field:      "ct_supply_set_c",
			Constraint: fmt.Sprintf("setpoint %v °C must exceed the design wet bulb %v °C (a tower cannot cool below it)", c.CTSupplySetC, c.DesignWetBulbC),
			Suggestion: "raise ct_supply_set_c above design_wetbulb_c",
		})
	}
	if c.HTWHeaderSetPa < 0 {
		return fmt.Errorf("config: %w", &FieldError{
			Field: "htw_header_set_pa", Constraint: "must be non-negative",
			Suggestion: "omit it to keep the resolved plant's header ΔP setpoint",
		})
	}
	return nil
}

func (c *CoolingSpec) validateSolver() error {
	switch c.Solver {
	case "", cooling.SolverRK4, cooling.SolverAdaptive:
	default:
		return fmt.Errorf("config: %w", &FieldError{
			Field:      "solver",
			Constraint: fmt.Sprintf("unknown solver %q", c.Solver),
			Suggestion: fmt.Sprintf("use %q (fixed-step, bit-reproducible) or %q (fast path)", cooling.SolverRK4, cooling.SolverAdaptive),
		})
	}
	if c.SolverRelTol < 0 {
		return fmt.Errorf("config: %w", &FieldError{
			Field: "solver_rel_tol", Constraint: "must be non-negative",
			Suggestion: "use 0 for the default (1e-4 relative)",
		})
	}
	if c.SolverAbsTol < 0 {
		return fmt.Errorf("config: %w", &FieldError{
			Field: "solver_abs_tol", Constraint: "must be non-negative",
			Suggestion: "use 0 for the default (1e-3 °C absolute)",
		})
	}
	return nil
}

// Hash returns the canonical content hash of the cooling spec alone —
// the key under which compiled plant designs are cached and shared when
// scenarios override the system's plant. A preset name resolved from
// the runtime registry folds the registered plant's content in, so
// re-registering a preset under the same name yields a different hash
// (built-in presets are compile-time constants and hash by name alone,
// keeping pre-registry hashes stable).
func (c *CoolingSpec) Hash() (string, error) {
	data, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("config: cooling hash: %w", err)
	}
	h := sha256.New()
	h.Write(data)
	if err := writeRegisteredPreset(h, c.Preset); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// writeRegisteredPreset appends the registered plant content for a
// preset name to a hash, if the name is in the runtime registry; absent
// or built-in names append nothing (hash-stable).
func writeRegisteredPreset(h io.Writer, preset string) error {
	if preset == "" {
		return nil
	}
	cfg, ok := cooling.RegisteredPreset(preset)
	if !ok {
		return nil
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		return fmt.Errorf("config: preset hash: %w", err)
	}
	_, err = h.Write(data)
	return err
}

// Topology converts the partition counts to a power.Topology.
func (p *PartitionSpec) Topology() (power.Topology, error) {
	t := power.Topology{
		NodesTotal:      p.NodesTotal,
		NodesPerRack:    p.NodesPerRack,
		NodesPerChassis: p.NodesPerChassis,
		ChassisPerRack:  p.ChassisPerRack,
		SwitchesPerRack: p.SwitchesPerRack,
		RacksPerCDU:     p.RacksPerCDU,
		NumCDUs:         p.NumCDUs,
	}
	return t, t.Validate()
}

// modelBuilds counts BuildModel calls process-wide. It exists so sweep
// tests can assert the per-spec power model is built once and shared
// across scenarios, not rebuilt per worker.
var modelBuilds atomic.Uint64

// ModelBuilds returns how many partition power models have been
// assembled since process start (build-sharing instrumentation).
func ModelBuilds() uint64 { return modelBuilds.Load() }

// BuildModel assembles the power model for one partition. The returned
// model is never mutated by simulations, so callers may share it
// read-only across concurrent runs.
func (p *PartitionSpec) BuildModel() (*power.Model, error) {
	modelBuilds.Add(1)
	topo, err := p.Topology()
	if err != nil {
		return nil, err
	}
	mode, err := modeByName(p.Power.Mode)
	if err != nil {
		return nil, err
	}
	return &power.Model{
		Spec: power.ComponentSpec{
			CPUIdle: p.CPUIdleW, CPUMax: p.CPUMaxW,
			GPUIdle: p.GPUIdleW, GPUMax: p.GPUMaxW,
			RAM: p.RAMW, NVMe: p.NVMeW, NIC: p.NICW,
			Switch: p.SwitchW, CDUPump: p.CDUPumpW,
			GPUsPerNode: p.GPUsPerNode, NICsPerNode: p.NICsPerNode, NVMePerNode: p.NVMePerNode,
		},
		Chain: power.ConversionChain{
			Rect: power.RectifierCurve{
				EtaMax: p.Power.RectEtaMax, LowDroop: p.Power.RectLowDroop,
				HighDroop: p.Power.RectHighDroop, POptW: p.Power.RectPOptW,
				PMaxW: p.Power.RectPMaxW,
			},
			EtaSIVOC:          p.Power.SivocEta,
			EtaDCDistribution: p.Power.DCDistEta,
			RectPerChassis:    p.Power.RectPerChassis,
			Mode:              mode,
		},
		Topo:       topo,
		CoolingEff: p.Power.CoolingEfficiency,
	}, nil
}

func modeByName(name string) (power.Mode, error) {
	switch name {
	case "ac-baseline", "":
		return power.ACBaseline, nil
	case "smart-rectifier":
		return power.SmartRectifier, nil
	case "dc380":
		return power.DC380, nil
	default:
		return 0, fmt.Errorf("config: unknown power mode %q", name)
	}
}

// Hash returns the canonical content hash of the spec: the hex SHA-256
// of its JSON encoding, with the content of a runtime-registered cooling
// preset folded in (see CoolingSpec.Hash). Two specs hash equal iff
// every field — and the plant a registered preset name resolves to —
// matches, so the hash keys shared compiled state and content-addressed
// result caches across sweep submissions.
func (s *SystemSpec) Hash() (string, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("config: hash: %w", err)
	}
	h := sha256.New()
	h.Write(data)
	if err := writeRegisteredPreset(h, s.Cooling.Preset); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Parse decodes and validates a SystemSpec from JSON.
func Parse(data []byte) (*SystemSpec, error) {
	var s SystemSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads a SystemSpec from a JSON file.
func LoadFile(path string) (*SystemSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// Save writes the spec as indented JSON.
func (s *SystemSpec) Save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
