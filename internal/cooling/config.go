// Package cooling implements the transient thermo-fluid model of
// Frontier's liquid cooling system and Central Energy Plant (§III-C,
// Fig. 5): 25 CDU-rack secondary loops, the primary high-temperature-
// water (HTW) loop with four HTWPs and five intermediate heat exchangers
// (EHX1-5), and the cooling-tower water (CTW) loop with four CTWPs and
// five towers of four cells each. The paper builds this model in
// Modelica/Dymola and exports it as an FMU; here the same lumped
// component network (volumes, quadratic resistances, pump curves, ε-NTU
// exchangers, PID + staging control) is solved natively in Go on the
// internal/ode, internal/hydro, and internal/thermal substrates.
//
// Inputs per 15 s step: heat extracted per CDU plus the outdoor wet-bulb
// temperature; outputs: exactly 317 values (§III-C4), mirroring the
// paper's FMU contract.
package cooling

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"sync"

	"exadigit/internal/hydro"
	"exadigit/internal/thermal"
)

// Config holds every plant design parameter. The Frontier values are
// engineering estimates consistent with the quantities the paper reports
// (CT loop ≈9000-10000 gpm, primary loop ≈5000-6000 gpm, CDU pump
// ≈8.7 kW) — the real HPE/ORNL datasheets are not public.
type Config struct {
	NumCDUs int
	// NumFanChannels is the number of per-fan output channels in the
	// FMU contract (§III-C4 lists "the 16 CT fans" among the outputs).
	NumFanChannels int
	NumTowers      int // 5 towers...
	CellsPerTower  int // ...of 4 cells each (20 independent cells)
	NumHTWPs       int
	NumCTWPs       int
	NumEHX         int

	// Secondary (CDU-rack) loop.
	SecSupplySetC  float64 // secondary supply temperature setpoint, °C
	SecDPSetPa     float64 // CDU loop differential-pressure setpoint, Pa
	SecPump        hydro.PumpCurve
	SecLoopK       float64 // rack-loop resistance, Pa/(m³/s)²
	SecVolumeKg    float64 // water mass per secondary volume (two per CDU)
	CDUHex         thermal.HeatExchanger
	PrimValveDPPa  float64 // design drop across a CDU primary valve
	PrimBranchQ    float64 // design primary flow per CDU, m³/s
	PrimValveRange float64 // valve rangeability

	// Primary (HTW) loop.
	HTWPump        hydro.PumpCurve
	HTWHeaderSetPa float64 // header differential-pressure setpoint
	HTWLoopK       float64 // fixed piping resistance, Pa/(m³/s)²
	HTWVolumeKg    float64 // water mass per primary volume
	EHX            thermal.HeatExchanger

	// Cooling-tower (CTW) loop.
	CTWPump        hydro.PumpCurve
	CTWHeaderSetPa float64 // CT supply header pressure setpoint (gauge)
	CTWLoopK       float64
	CTWVolumeKg    float64
	Tower          thermal.CoolingTower
	CTSupplySetC   float64 // tower leaving-water temperature setpoint
	StaticPressPa  float64 // loop static fill pressure (gauge)

	// Staging thresholds (fractions of pump speed / fan speed).
	StageUpSpeed    float64
	StageDownSpeed  float64
	StageUpDwellS   float64
	StageDownDwellS float64
	// CTHTWSGradient is the |dT/dt| of HTW supply (°C/s) above which the
	// tower staging signal is boosted (§III-C5: CTs staged on header
	// pressure and the HTWS temperature gradient).
	CTHTWSGradient float64
	// LoopDelayS is the transport delay of the delay transfer function
	// coupling the primary-pump and cooling-tower loops.
	LoopDelayS float64

	// ControlDtS is the controller/hydraulics update period; the thermal
	// ODE is integrated with RK4 between updates.
	ControlDtS float64

	// Solver selects the thermal integration scheme between controller
	// updates: "" or SolverRK4 keeps the fixed-step classic RK4 reference
	// (bit-reproducible run to run); SolverAdaptive switches to the
	// error-controlled Dormand–Prince stepper with the quiescence fast
	// path (equilibrium holds and tiered control periods).
	Solver string
	// RelTol and AbsTol are the adaptive stepper's mixed error
	// tolerances; zero keeps the defaults (1e-4 relative, 1e-3 °C
	// absolute). Ignored under the fixed-step solver.
	RelTol float64
	AbsTol float64
	// QuiesceRateCps is the maximum state movement rate (°C/s for the
	// thermal states, actuator fraction/s for pump and fan commands)
	// below which the plant counts as settled (default 2e-3 — above the
	// control system's intrinsic millikelvin limit cycle, well below any
	// genuine load transient). Ignored under the fixed-step solver.
	QuiesceRateCps float64
	// HeatTolFrac is the per-CDU heat-input relative drift tolerated
	// during an equilibrium hold, measured against the inputs at the last
	// real integration so drift cannot compound (default 0.01).
	HeatTolFrac float64
	// WetBulbTolC is the wet-bulb drift tolerated during a hold
	// (default 0.25 °C).
	WetBulbTolC float64
	// MaxHoldS bounds how long the plant may fast-forward before a real
	// integration re-synchronizes it — also the window the simulation
	// layer may coast across cooling boundaries (default 900 s).
	MaxHoldS float64
}

// Solver names accepted by Config.Solver and config.CoolingSpec.Solver.
const (
	// SolverRK4 is the fixed-step classic RK4 reference ("" selects it
	// too): every control period costs the same work and repeated runs
	// are bit-identical — the mode validation goldens pin.
	SolverRK4 = "rk4"
	// SolverAdaptive is the error-controlled Dormand–Prince stepper with
	// steady-state detection: quiet stretches fast-forward instead of
	// integrating, making cooled days nearly as cheap as uncooled ones.
	SolverAdaptive = "adaptive"
)

// presets names the built-in hand-calibrated plant configurations. A
// preset is the escape hatch from AutoCSM synthesis: a
// config.CoolingSpec naming one resolves to the calibrated Config
// verbatim, so the default Frontier spec cools with exactly the plant
// the paper's validation was run against (bit-identical, not
// AutoCSM-approximated).
var presets = map[string]func() Config{
	"frontier": Frontier,
}

// registered holds presets installed at runtime (RegisterPreset,
// RegisterPresetsFromJSON). Registered presets are resolved BEFORE the
// built-ins, so a deployment can ship a recalibrated "frontier" plant as
// data without a rebuild.
var (
	registeredMu sync.RWMutex
	registered   = map[string]Config{}
)

// RegisterPreset installs (or replaces) a named plant configuration in
// the runtime preset registry. The config is validated first; a
// registered name shadows a built-in of the same name.
func RegisterPreset(name string, cfg Config) error {
	if name == "" {
		return fmt.Errorf("cooling: preset name required")
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("cooling: preset %q: %w", name, err)
	}
	registeredMu.Lock()
	registered[name] = cfg
	registeredMu.Unlock()
	return nil
}

// RegisterPresetsFromJSON parses a {"name": {...Config...}} document and
// registers every plant in it, returning the registered names (sorted).
// This is the deployment path for calibrated plants: ship the JSON next
// to the binary and load it at startup (exadigit serve -presets), no
// rebuild required. Each config is validated; the first invalid entry
// aborts the whole load with nothing registered.
func RegisterPresetsFromJSON(data []byte) ([]string, error) {
	var doc map[string]Config
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("cooling: preset JSON: %w", err)
	}
	names := make([]string, 0, len(doc))
	for name, cfg := range doc {
		if name == "" {
			return nil, fmt.Errorf("cooling: preset JSON: empty preset name")
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("cooling: preset %q: %w", name, err)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	registeredMu.Lock()
	for name, cfg := range doc {
		registered[name] = cfg
	}
	registeredMu.Unlock()
	return names, nil
}

// RegisterPresetsFromFile loads a preset registry JSON file (see
// RegisterPresetsFromJSON).
func RegisterPresetsFromFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cooling: preset file: %w", err)
	}
	return RegisterPresetsFromJSON(data)
}

// UnregisterPreset removes a runtime-registered preset; built-in
// presets are unaffected (a shadowed built-in becomes visible again).
func UnregisterPreset(name string) {
	registeredMu.Lock()
	delete(registered, name)
	registeredMu.Unlock()
}

// RegisteredPreset resolves a name from the runtime registry only
// (built-ins excluded). Spec hashing folds the registered content into
// preset-name hashes, so re-registering a plant under the same name
// invalidates every cache keyed on a spec that names it.
func RegisteredPreset(name string) (Config, bool) {
	registeredMu.RLock()
	defer registeredMu.RUnlock()
	cfg, ok := registered[name]
	return cfg, ok
}

// Preset resolves a plant configuration by name: runtime-registered
// presets first (the JSON-loadable registry), then the built-in
// hand-calibrated plants.
func Preset(name string) (Config, bool) {
	registeredMu.RLock()
	cfg, ok := registered[name]
	registeredMu.RUnlock()
	if ok {
		return cfg, true
	}
	if f, ok := presets[name]; ok {
		return f(), true
	}
	return Config{}, false
}

// PresetNames lists the known plant names — built-ins plus the runtime
// registry — sorted and deduplicated.
func PresetNames() []string {
	seen := map[string]bool{}
	var names []string
	registeredMu.RLock()
	for n := range registered {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	registeredMu.RUnlock()
	for n := range presets {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Frontier returns the full-scale plant configuration.
func Frontier() Config {
	return Config{
		NumCDUs:        25,
		NumFanChannels: 16,
		NumTowers:      5,
		CellsPerTower:  4,
		NumHTWPs:       4,
		NumCTWPs:       4,
		NumEHX:         5,

		SecSupplySetC: 32.0,
		SecDPSetPa:    180e3,
		// CDU pump pair (modeled as one unit): ≈8.7 kW at ≈0.029 m³/s
		// (460 gpm) and ≈225 kPa (Table I: CDU avg 8.7 kW).
		SecPump: hydro.PumpCurve{
			H0: 340e3, H2: (340e3 - 225e3) / (0.029 * 0.029),
			QRated: 0.029, Eta: 0.75, PIdle: 3000,
		},
		SecLoopK:       180e3 / (0.029 * 0.029),
		SecVolumeKg:    600,
		CDUHex:         thermal.HeatExchanger{UANominal: 200e3, MdotHotN: 29, MdotColdN: 16},
		PrimValveDPPa:  19e3, // oversized valve: full-open drop at design flow
		PrimBranchQ:    0.016,
		PrimValveRange: 40,

		// HTWP: ~0.097 m³/s (1540 gpm) each at ~320 kPa; the staged bank
		// delivers ≈5700-6300 gpm total at the design point.
		HTWPump:        hydro.NewPumpCurve(480e3, 0.097, 320e3, 0.80),
		HTWHeaderSetPa: 140e3,
		HTWLoopK:       4.9e5,
		HTWVolumeKg:    25000,
		EHX:            thermal.HeatExchanger{UANominal: 900e3, MdotHotN: 71, MdotColdN: 119},

		// CTWP: ~0.16 m³/s (2540 gpm) each at ~260 kPa; four staged give
		// the paper's 9000-10000 gpm tower-loop flow.
		CTWPump:        hydro.NewPumpCurve(390e3, 0.16, 260e3, 0.80),
		CTWHeaderSetPa: 340e3,
		CTWLoopK:       5.6e5,
		CTWVolumeKg:    60000,
		Tower: thermal.CoolingTower{
			EpsNominal:  0.82,
			MdotNominal: 30, // per cell at design (≈480 gpm)
			FanExp:      0.4,
			LoadExp:     0.35,
			FanPowerMax: 30e3,
		},
		CTSupplySetC:  22.0,
		StaticPressPa: 170e3,

		StageUpSpeed:    0.92,
		StageDownSpeed:  0.42,
		StageUpDwellS:   120,
		StageDownDwellS: 600,
		CTHTWSGradient:  0.002,
		LoopDelayS:      120,

		ControlDtS: 1.0,
	}
}

// Validate checks structural consistency.
func (c Config) Validate() error {
	if c.NumCDUs <= 0 {
		return fmt.Errorf("cooling: NumCDUs must be positive")
	}
	if c.NumTowers <= 0 || c.CellsPerTower <= 0 {
		return fmt.Errorf("cooling: tower counts must be positive")
	}
	if c.NumFanChannels > c.NumTowers*c.CellsPerTower {
		return fmt.Errorf("cooling: %d fan channels exceed %d cells",
			c.NumFanChannels, c.NumTowers*c.CellsPerTower)
	}
	if c.NumHTWPs <= 0 || c.NumCTWPs <= 0 || c.NumEHX <= 0 {
		return fmt.Errorf("cooling: pump/EHX counts must be positive")
	}
	if !(c.ControlDtS >= minControlDtS) {
		return fmt.Errorf("cooling: ControlDtS must be at least %v s", minControlDtS)
	}
	if c.LoopDelayS > maxDelaySamples*c.ControlDtS {
		return fmt.Errorf("cooling: LoopDelayS must span at most %v control periods", maxDelaySamples)
	}
	if c.SecVolumeKg <= 0 || c.HTWVolumeKg <= 0 || c.CTWVolumeKg <= 0 {
		return fmt.Errorf("cooling: volumes must be positive")
	}
	switch c.Solver {
	case "", SolverRK4, SolverAdaptive:
	default:
		return fmt.Errorf("cooling: unknown solver %q (want %q or %q)",
			c.Solver, SolverRK4, SolverAdaptive)
	}
	if c.RelTol < 0 || c.AbsTol < 0 || c.QuiesceRateCps < 0 ||
		c.HeatTolFrac < 0 || c.WetBulbTolC < 0 || c.MaxHoldS < 0 {
		return fmt.Errorf("cooling: solver tolerances must be non-negative")
	}
	if field := c.NonFinite(); field != "" {
		return fmt.Errorf("cooling: %s must be finite", field)
	}
	if field := c.degenerate(); field != "" {
		return fmt.Errorf("cooling: %s must be positive", field)
	}
	if field, t := c.fastLoop(); field != "" {
		return fmt.Errorf("cooling: %s turns over in %.3g s at the loop's largest flow, under the %v s ControlDtS", field, t, c.ControlDtS)
	}
	return nil
}

// Bounds on the control period: a shorter one multiplies the control
// steps per coupling without bound, and the cross-loop delay line holds
// one sample per period.
const (
	minControlDtS   = 0.01
	maxDelaySamples = 1e5
)

// degenerate names the first term the loops or exchangers divide by, or
// need above zero to carry flow, that is not positive, or returns "". A
// zero one gives an infinite branch resistance or a zero shutoff head,
// and the first step's pressures come out NaN.
func (c Config) degenerate() string {
	for _, t := range []struct {
		name string
		v    float64
	}{
		{"SecPump.H0", c.SecPump.H0}, {"SecPump.H2", c.SecPump.H2}, {"SecLoopK", c.SecLoopK},
		{"CDUHex.UANominal", c.CDUHex.UANominal}, {"CDUHex.MdotHotN", c.CDUHex.MdotHotN}, {"CDUHex.MdotColdN", c.CDUHex.MdotColdN},
		{"PrimValveDPPa", c.PrimValveDPPa}, {"PrimBranchQ", c.PrimBranchQ},
		{"HTWPump.H0", c.HTWPump.H0}, {"HTWPump.H2", c.HTWPump.H2}, {"HTWLoopK", c.HTWLoopK},
		{"EHX.UANominal", c.EHX.UANominal}, {"EHX.MdotHotN", c.EHX.MdotHotN}, {"EHX.MdotColdN", c.EHX.MdotColdN},
		{"CTWPump.H0", c.CTWPump.H0}, {"CTWPump.H2", c.CTWPump.H2}, {"CTWLoopK", c.CTWLoopK},
		{"Tower.EpsNominal", c.Tower.EpsNominal}, {"Tower.MdotNominal", c.Tower.MdotNominal},
	} {
		if !(t.v > 0) {
			return t.name
		}
	}
	return ""
}

// fastLoop names the first loop volume whose pumps can circulate it in
// under one control period, with that time, or returns "". Every term of
// a volume's energy balance is its through-flow or an ε-NTU share of
// it, so fixed-step RK4 at the control period is stable while the flow
// turns the volume over more slowly; a faster loop steps to NaN. The
// largest flow takes the bank fully staged at 110 % speed against its
// fixed loop resistance alone, and water at 1000 kg/m³.
func (c Config) fastLoop() (field string, turnoverS float64) {
	for _, l := range []struct {
		field string
		kg    float64
		pump  hydro.PumpCurve
		n     int
		k     float64
	}{
		{"SecVolumeKg", c.SecVolumeKg, c.SecPump, 1, c.SecLoopK},
		{"HTWVolumeKg", c.HTWVolumeKg, c.HTWPump, c.NumHTWPs, c.HTWLoopK},
		{"CTWVolumeKg", c.CTWVolumeKg, c.CTWPump, c.NumCTWPs, c.CTWLoopK},
	} {
		n := float64(l.n)
		q := math.Sqrt(1.21 * l.pump.H0 / (l.k + l.pump.H2/(n*n)))
		if t := l.kg / (1000 * q); !(t >= c.ControlDtS) {
			return l.field, t
		}
	}
	return "", 0
}

// NonFinite names the first field of the config, nested fields dotted
// (e.g. "Tower.FanPowerMax"), that holds NaN or ±Inf, or returns "".
func (c Config) NonFinite() string {
	return nonFinite(reflect.ValueOf(c), "")
}

func nonFinite(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			return path
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			if p := nonFinite(v.Field(i), name); p != "" {
				return p
			}
		}
	}
	return ""
}

// TotalCells returns the number of independent tower cells.
func (c Config) TotalCells() int { return c.NumTowers * c.CellsPerTower }
