// Package autocsm implements the Automated Cooling System Model generator
// (§V): from a high-level JSON cooling specification (loop counts, design
// heat, design flows and temperatures) it synthesizes a complete, sized
// cooling.Config — pump curves from design head/flow, heat-exchanger UA
// values by inverting the counterflow ε-NTU relation at the design point,
// and tower effectiveness from the design approach. It can also emit the
// generated model as Modelica source text, mirroring the paper's AutoCSM
// which "outputs Modelica code" compiled into an FMU.
package autocsm

import (
	"fmt"
	"io"
	"math"

	"exadigit/internal/config"
	"exadigit/internal/cooling"
	"exadigit/internal/hydro"
	"exadigit/internal/thermal"
	"exadigit/internal/units"
)

// Design constants shared by the sizing rules. These encode the same
// engineering practice used for the hand-built Frontier model.
const (
	secondaryDTc     = 5.3   // design secondary temperature rise, °C
	secDPSetPa       = 180e3 // CDU loop differential-pressure setpoint
	htwHeaderDPPa    = 140e3 // primary header dp at design
	pumpShutoffRatio = 1.5   // shutoff head / design head
	pumpEta          = 0.78
	// minLoopTurnoverS is the shortest time in which the HTW or CTW loop
	// may circulate its water volume at design flow: 5× the 1 s control
	// period the fixed-step solver integrates at. A generated Frontier
	// plant whose tower loop turned over in 0.5 s went non-finite within
	// minutes under that solver, while Frontier's loops take 77 and 101 s.
	minLoopTurnoverS = 5
)

// Compile resolves a config.CoolingSpec to a full plant configuration —
// the single entry point the twin's cooling pipeline routes every spec
// through. A preset name resolves to its hand-calibrated plant verbatim
// (the default Frontier spec stays bit-identical to the paper-validated
// model); otherwise the plant is synthesized from the design quantities
// by Generate.
func Compile(spec config.CoolingSpec) (cooling.Config, error) {
	if spec.Preset != "" {
		cfg, ok := cooling.Preset(spec.Preset)
		if !ok {
			return cooling.Config{}, fmt.Errorf("autocsm: %w", &config.FieldError{
				Field:      "preset",
				Constraint: fmt.Sprintf("unknown cooling preset %q", spec.Preset),
				Suggestion: fmt.Sprintf("use one of %v, or clear preset and supply design quantities", cooling.PresetNames()),
			})
		}
		applySolver(&cfg, spec)
		applySetpoints(&cfg, spec)
		return cfg, nil
	}
	cfg, err := Generate(spec)
	if err != nil {
		return cfg, err
	}
	applySolver(&cfg, spec)
	applySetpoints(&cfg, spec)
	return cfg, nil
}

// applySolver overlays the spec's solver selection onto a resolved plant
// configuration. Empty fields leave the plant untouched, so a preset
// without a solver override stays bit-identical to its hand-calibrated
// Config.
func applySolver(cfg *cooling.Config, spec config.CoolingSpec) {
	if spec.Solver != "" {
		cfg.Solver = spec.Solver
	}
	if spec.SolverRelTol > 0 {
		cfg.RelTol = spec.SolverRelTol
	}
	if spec.SolverAbsTol > 0 {
		cfg.AbsTol = spec.SolverAbsTol
	}
}

// applySetpoints overlays the spec's control-setpoint overrides — the
// tower leaving-water target and the primary header ΔP target, the L5
// co-design knobs — onto a resolved plant. Zero fields leave the plant
// untouched, so presets without overrides stay bit-identical to their
// hand-calibrated Config.
func applySetpoints(cfg *cooling.Config, spec config.CoolingSpec) {
	if spec.CTSupplySetC > 0 {
		cfg.CTSupplySetC = spec.CTSupplySetC
	}
	if spec.HTWHeaderSetPa > 0 {
		cfg.HTWHeaderSetPa = spec.HTWHeaderSetPa
	}
}

// Generate sizes a full cooling plant from the spec.
func Generate(spec config.CoolingSpec) (cooling.Config, error) {
	var cfg cooling.Config
	if spec.NumCDUs <= 0 || spec.DesignHeatMW <= 0 {
		return cfg, fmt.Errorf("autocsm: num_cdus and design_heat_mw must be positive")
	}
	if spec.SecSupplyC <= spec.CTSupplyC {
		return cfg, fmt.Errorf("autocsm: secondary supply %v must exceed CT supply %v",
			spec.SecSupplyC, spec.CTSupplyC)
	}
	if spec.CTSupplyC <= spec.DesignWetBulbC {
		return cfg, fmt.Errorf("autocsm: CT supply %v must exceed design wet bulb %v",
			spec.CTSupplyC, spec.DesignWetBulbC)
	}
	if spec.PrimaryFlowGPM <= 0 || spec.TowerFlowGPM <= 0 {
		return cfg, fmt.Errorf("autocsm: design flows must be positive")
	}
	if spec.NumHTWPs <= 0 || spec.NumCTWPs <= 0 || spec.NumEHX <= 0 ||
		spec.NumTowers <= 0 || spec.CellsPerTower <= 0 {
		return cfg, fmt.Errorf("autocsm: equipment counts must be positive")
	}

	heatW := spec.DesignHeatMW * 1e6
	heatPerCDU := heatW / float64(spec.NumCDUs)
	qPrimTotal := spec.PrimaryFlowGPM * units.GPMToM3s
	qCTWTotal := spec.TowerFlowGPM * units.GPMToM3s
	rho := units.WaterDensity(spec.SecSupplyC)
	cp := units.WaterSpecificHeat(spec.SecSupplyC)

	// Secondary loop: flow carries the per-CDU heat across secondaryDTc.
	qSec := units.FlowForHeat(heatPerCDU, secondaryDTc, spec.SecSupplyC)
	secLoopK := secDPSetPa / (qSec * qSec)
	secHead := secDPSetPa / 0.83 // design point ≈83 % of setpoint curve
	cfg.SecPump = hydro.PumpCurve{
		H0:     secHead * pumpShutoffRatio,
		H2:     secHead * (pumpShutoffRatio - 1) / (qSec * qSec),
		QRated: qSec, Eta: 0.75,
		PIdle: 3000,
	}
	cfg.SecLoopK = secLoopK
	cfg.SecDPSetPa = secDPSetPa
	cfg.SecVolumeKg = math.Max(200, 600*heatPerCDU/640e3)
	if err := sized(&cfg, "design_heat_mw"); err != nil {
		return cfg, err
	}

	// Temperatures at the design point.
	mdotPrimPerCDU := rho * qPrimTotal / float64(spec.NumCDUs)
	mdotSec := rho * qSec
	dtPrim := heatW / (rho * qPrimTotal * cp)
	secReturnC := spec.SecSupplyC + secondaryDTc
	// HTW supply sits one EHX approach above the CT supply.
	htwSupplyC := spec.CTSupplyC + 3.0
	htwReturnC := htwSupplyC + dtPrim
	if htwReturnC >= secReturnC {
		return cfg, fmt.Errorf("autocsm: %w", &config.FieldError{
			Field: "primary_flow_gpm",
			Constraint: fmt.Sprintf("infeasible sizing: HTW return %.3g °C would not stay below the secondary return %.3g °C",
				htwReturnC, secReturnC),
			Suggestion: "increase primary_flow_gpm (or reduce design_heat_mw) so the primary loop carries the heat at a lower temperature rise",
		})
	}

	// CDU HEX: invert ε-NTU at (secondary hot side, primary cold side).
	ua, err := sizeCounterflowUA(heatPerCDU,
		secReturnC, mdotSec,
		htwSupplyC, mdotPrimPerCDU, cp)
	if err != nil {
		return cfg, fmt.Errorf("autocsm: %w", &config.FieldError{
			Field:      "primary_flow_gpm",
			Constraint: fmt.Sprintf("CDU heat exchanger cannot be sized: %v", err),
			Suggestion: "increase primary_flow_gpm or widen the secondary-to-CT temperature gap",
		})
	}
	cfg.CDUHex = thermal.HeatExchanger{UANominal: ua, MdotHotN: mdotSec, MdotColdN: mdotPrimPerCDU}

	// Primary valve: oversized so ~75 % open passes the design flow.
	qBranch := qPrimTotal / float64(spec.NumCDUs)
	cfg.PrimBranchQ = qBranch
	cfg.PrimValveDPPa = 19e3
	cfg.PrimValveRange = 40

	// HTWP bank: per-pump design flow at header + piping drop.
	qPerHTWP := qPrimTotal / float64(spec.NumHTWPs)
	htwPipeK := 0.35 * htwHeaderDPPa / (qPrimTotal * qPrimTotal)
	htwHead := htwHeaderDPPa + htwPipeK*qPrimTotal*qPrimTotal
	cfg.HTWPump = hydro.NewPumpCurve(htwHead*pumpShutoffRatio, qPerHTWP, htwHead, pumpEta)
	cfg.HTWHeaderSetPa = htwHeaderDPPa
	cfg.HTWLoopK = htwPipeK
	cfg.HTWVolumeKg = math.Max(5000, 25000*spec.DesignHeatMW/16)
	if err := sized(&cfg, "primary_flow_gpm"); err != nil {
		return cfg, err
	}
	if err := turnsOver("HTW", cfg.HTWVolumeKg, rho*qPrimTotal, "primary_flow_gpm"); err != nil {
		return cfg, err
	}

	// EHX bank: HTW return (hot) against CTW supply (cold).
	mdotHTWPerEHX := rho * qPrimTotal / float64(spec.NumEHX)
	mdotCTWPerEHX := rho * qCTWTotal / float64(spec.NumEHX)
	uaEHX, err := sizeCounterflowUA(heatW/float64(spec.NumEHX),
		htwReturnC, mdotHTWPerEHX,
		spec.CTSupplyC, mdotCTWPerEHX, cp)
	if err != nil {
		return cfg, fmt.Errorf("autocsm: %w", &config.FieldError{
			Field:      "tower_flow_gpm",
			Constraint: fmt.Sprintf("intermediate heat exchanger cannot be sized: %v", err),
			Suggestion: "increase tower_flow_gpm or lower ct_supply_c to widen the EHX temperature gap",
		})
	}
	cfg.EHX = thermal.HeatExchanger{UANominal: uaEHX, MdotHotN: mdotHTWPerEHX, MdotColdN: mdotCTWPerEHX}

	// CTWP bank: Frontier-like 260 kPa design head.
	qPerCTWP := qCTWTotal / float64(spec.NumCTWPs)
	const ctwHead = 260e3
	cfg.CTWPump = hydro.NewPumpCurve(ctwHead*pumpShutoffRatio, qPerCTWP, ctwHead, pumpEta)
	cfg.CTWLoopK = 0.78 * ctwHead / (qCTWTotal * qCTWTotal)
	cfg.CTWHeaderSetPa = 170e3 + 0.85*ctwHead
	cfg.CTWVolumeKg = math.Max(10000, 60000*spec.DesignHeatMW/16)
	if err := turnsOver("CTW", cfg.CTWVolumeKg, rho*qCTWTotal, "tower_flow_gpm"); err != nil {
		return cfg, err
	}

	// Tower cells: effectiveness from the design approach at 90 % fan.
	cells := spec.NumTowers * spec.CellsPerTower
	mdotPerCell := rho * qCTWTotal / float64(cells)
	dtCTW := heatW / (rho * qCTWTotal * cp)
	ctReturnC := spec.CTSupplyC + dtCTW
	epsDesign := dtCTW / (ctReturnC - spec.DesignWetBulbC)
	if epsDesign >= 0.95 {
		return cfg, fmt.Errorf("autocsm: %w", &config.FieldError{
			Field:      "tower_flow_gpm",
			Constraint: fmt.Sprintf("required tower effectiveness %.3g is infeasible (≥ 0.95)", epsDesign),
			Suggestion: "raise tower_flow_gpm or ct_supply_c so each cell rejects heat across a wider approach",
		})
	}
	cfg.Tower = thermal.CoolingTower{
		EpsNominal:  math.Min(0.95, epsDesign/math.Pow(0.9, 0.4)*1.05),
		MdotNominal: mdotPerCell,
		FanExp:      0.4,
		LoadExp:     0.35,
		FanPowerMax: 30e3 * (mdotPerCell / 30),
	}
	if err := sized(&cfg, "tower_flow_gpm"); err != nil {
		return cfg, err
	}
	cfg.CTSupplySetC = spec.CTSupplyC
	cfg.StaticPressPa = 170e3

	cfg.NumCDUs = spec.NumCDUs
	cfg.NumTowers = spec.NumTowers
	cfg.CellsPerTower = spec.CellsPerTower
	cfg.NumFanChannels = spec.NumFanChannels
	if cfg.NumFanChannels <= 0 || cfg.NumFanChannels > cells {
		cfg.NumFanChannels = cells
	}
	cfg.NumHTWPs = spec.NumHTWPs
	cfg.NumCTWPs = spec.NumCTWPs
	cfg.NumEHX = spec.NumEHX
	cfg.SecSupplySetC = spec.SecSupplyC

	cfg.StageUpSpeed = 0.92
	cfg.StageDownSpeed = 0.42
	cfg.StageUpDwellS = 120
	cfg.StageDownDwellS = 600
	cfg.CTHTWSGradient = 0.002
	cfg.LoopDelayS = 120
	cfg.ControlDtS = 1

	return cfg, cfg.Validate()
}

// sized refuses the sizing step just taken when it left a plant value
// non-finite: field, the design quantity the step sizes from, is finite
// but extreme (a 1e-300 MW heat load sizes an infinite loop resistance,
// a 1e308 gpm tower flow an infinite fan power).
func sized(cfg *cooling.Config, field string) error {
	if bad := cfg.NonFinite(); bad != "" {
		return fmt.Errorf("autocsm: %w", &config.FieldError{
			Field:      field,
			Constraint: fmt.Sprintf("out of range: the plant sized from it has a non-finite %s", bad),
			Suggestion: "use a value within the plant's physical range",
		})
	}
	return nil
}

// turnsOver refuses a loop that would circulate its volumeKg of water in
// under minLoopTurnoverS at design flow mdot: the fixed-step solver cannot
// integrate it. field is the design flow the loop is sized from.
func turnsOver(loop string, volumeKg, mdot float64, field string) error {
	if t := volumeKg / mdot; !(t >= minLoopTurnoverS) {
		return fmt.Errorf("autocsm: %w", &config.FieldError{
			Field: field,
			Constraint: fmt.Sprintf("the %s loop would circulate its %.3g kg in %.3g s, under the %v s the plant can integrate",
				loop, volumeKg, t, minLoopTurnoverS),
			Suggestion: fmt.Sprintf("lower %s, or raise design_heat_mw, which sizes the loop volume", field),
		})
	}
	return nil
}

// sizeCounterflowUA returns the UA (W/°C) a counterflow exchanger needs to
// move dutyW from a hot stream (tHotIn, mdotHot) to a cold stream
// (tColdIn, mdotCold).
func sizeCounterflowUA(dutyW, tHotIn, mdotHot, tColdIn, mdotCold, cp float64) (float64, error) {
	if tHotIn <= tColdIn {
		return 0, fmt.Errorf("hot inlet %.3g °C not above cold inlet %.3g °C", tHotIn, tColdIn)
	}
	cHot := mdotHot * cp
	cCold := mdotCold * cp
	cMin, cMax := cHot, cCold
	if cCold < cHot {
		cMin, cMax = cCold, cHot
	}
	eps := dutyW / (cMin * (tHotIn - tColdIn))
	if eps >= 0.98 {
		return 0, fmt.Errorf("required effectiveness %.3g infeasible — increase flows or temperature gap", eps)
	}
	if eps <= 0 {
		return 0, fmt.Errorf("non-positive duty")
	}
	ntu, err := ntuFromEffectiveness(eps, cMin/cMax)
	if err != nil {
		return 0, err
	}
	return ntu * cMin, nil
}

// ntuFromEffectiveness inverts the counterflow ε-NTU relation.
func ntuFromEffectiveness(eps, cr float64) (float64, error) {
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("effectiveness %v out of (0,1)", eps)
	}
	if math.Abs(cr-1) < 1e-9 {
		return eps / (1 - eps), nil
	}
	// From ε = (1−E)/(1−cr·E) with E = exp(−NTU(1−cr)):
	// E = (1−ε)/(1−ε·cr), NTU = ln(1/E)/(1−cr).
	x := (1 - eps*cr) / (1 - eps)
	if x <= 0 {
		return 0, fmt.Errorf("no NTU solution for eps=%v cr=%v", eps, cr)
	}
	return math.Log(x) / (1 - cr), nil
}

// EmitModelica writes the generated plant as Modelica source text, the
// output format of the paper's AutoCSM. The emitted model is documentary
// (this repository solves the plant natively); it demonstrates that the
// sizing pipeline carries everything a Modelica backend would need.
func EmitModelica(w io.Writer, name string, cfg cooling.Config) error {
	p := func(format string, args ...any) {
		fmt.Fprintf(w, format+"\n", args...)
	}
	p("// Generated by ExaDigiT-Go AutoCSM — do not edit.")
	p("model %s \"Auto-generated cooling system model\"", name)
	p("  import Modelica.Units.SI;")
	p("  parameter Integer nCDUs = %d;", cfg.NumCDUs)
	p("  parameter Integer nTowers = %d;", cfg.NumTowers)
	p("  parameter Integer nCellsPerTower = %d;", cfg.CellsPerTower)
	p("  parameter Integer nHTWPs = %d;", cfg.NumHTWPs)
	p("  parameter Integer nCTWPs = %d;", cfg.NumCTWPs)
	p("  parameter Integer nEHX = %d;", cfg.NumEHX)
	p("  parameter SI.Temperature TSecSupplySet = %.2f \"degC\";", cfg.SecSupplySetC)
	p("  parameter SI.Temperature TCTSupplySet = %.2f \"degC\";", cfg.CTSupplySetC)
	p("  parameter SI.PressureDifference dpSecSet = %.0f;", cfg.SecDPSetPa)
	p("  parameter SI.PressureDifference dpHTWHeaderSet = %.0f;", cfg.HTWHeaderSetPa)
	p("  Modelica.Blocks.Interfaces.RealInput Q_cdu[nCDUs] \"CDU heat loads (W)\";")
	p("  Modelica.Blocks.Interfaces.RealInput T_wetbulb \"Outdoor wet bulb (degC)\";")
	p("  // Secondary (CDU) loops")
	p("  ExaDigiT.Components.PumpCurve secPump(H0=%.0f, H2=%.3g, QRated=%.4f, eta=%.2f);",
		cfg.SecPump.H0, cfg.SecPump.H2, cfg.SecPump.QRated, cfg.SecPump.Eta)
	p("  ExaDigiT.Components.Resistance secLoop(K=%.4g);", cfg.SecLoopK)
	p("  ExaDigiT.Components.CounterflowHX cduHex(UA=%.4g, mHotN=%.2f, mColdN=%.2f);",
		cfg.CDUHex.UANominal, cfg.CDUHex.MdotHotN, cfg.CDUHex.MdotColdN)
	p("  // Primary (HTW) loop")
	p("  ExaDigiT.Components.PumpCurve htwPump(H0=%.0f, H2=%.3g, QRated=%.4f, eta=%.2f);",
		cfg.HTWPump.H0, cfg.HTWPump.H2, cfg.HTWPump.QRated, cfg.HTWPump.Eta)
	p("  ExaDigiT.Components.CounterflowHX ehx(UA=%.4g, mHotN=%.2f, mColdN=%.2f);",
		cfg.EHX.UANominal, cfg.EHX.MdotHotN, cfg.EHX.MdotColdN)
	p("  // Cooling-tower (CTW) loop")
	p("  ExaDigiT.Components.PumpCurve ctwPump(H0=%.0f, H2=%.3g, QRated=%.4f, eta=%.2f);",
		cfg.CTWPump.H0, cfg.CTWPump.H2, cfg.CTWPump.QRated, cfg.CTWPump.Eta)
	p("  ExaDigiT.Components.CoolingTowerCell cell(epsNominal=%.3f, mdotNominal=%.2f, fanPowerMax=%.0f);",
		cfg.Tower.EpsNominal, cfg.Tower.MdotNominal, cfg.Tower.FanPowerMax)
	p("  // Control system")
	p("  ExaDigiT.Controls.PID cduPumpPID(setpoint=dpSecSet);")
	p("  ExaDigiT.Controls.PID cduValvePID(setpoint=TSecSupplySet, directAction=true);")
	p("  ExaDigiT.Controls.PID htwpPID(setpoint=dpHTWHeaderSet);")
	p("  ExaDigiT.Controls.PID fanPID(setpoint=TCTSupplySet, directAction=true);")
	p("  ExaDigiT.Controls.Stager htwpStager(min=2, max=nHTWPs, up=%.2f, down=%.2f);",
		cfg.StageUpSpeed, cfg.StageDownSpeed)
	p("  ExaDigiT.Controls.Stager cellStager(min=4, max=nTowers*nCellsPerTower);")
	p("equation")
	p("  // Acausal connections omitted: generated for documentation parity")
	p("  // with the paper's AutoCSM; this repository solves the identical")
	p("  // component network natively in Go.")
	p("end %s;", name)
	return nil
}
