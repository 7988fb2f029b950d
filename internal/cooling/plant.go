package cooling

import (
	"fmt"
	"math"

	"exadigit/internal/control"
	"exadigit/internal/hydro"
	"exadigit/internal/ode"
	"exadigit/internal/thermal"
	"exadigit/internal/units"
)

// Inputs drives one plant step (§III-C4: "The model takes as inputs
// wet-bulb (outdoor) temperature and heat extracted in watts for each of
// the 25 CDUs").
type Inputs struct {
	// CDUHeatW is the heat load per CDU in watts (already scaled by the
	// RAPS cooling efficiency of 0.945).
	CDUHeatW []float64
	// WetBulbC is the outdoor wet-bulb temperature.
	WetBulbC float64
	// ITPowerW is the electrical power of the computing load, used only
	// for the PUE output. Zero disables the PUE calculation (PUE = 0).
	ITPowerW float64
}

// cduState is the per-CDU dynamic state and controllers.
type cduState struct {
	secHot  thermal.Volume // rack-outlet (secondary return) volume
	secCold thermal.Volume // HEX-outlet (secondary supply) volume

	pumpPID  *control.PID // holds loop differential pressure
	valvePID *control.PID // holds secondary supply temperature
	valve    *hydro.Valve

	// Last hydraulic solution.
	qSec      float64 // secondary flow, m³/s
	qPrim     float64 // primary flow, m³/s
	pumpSpeed float64
	pumpPower float64
	hexDuty   float64 // last heat transferred secondary→primary, W
	primOutT  float64 // last primary-side outlet temperature
}

// Plant is the assembled cooling system. Create with New, advance with
// Step, read with Snapshot.
type Plant struct {
	cfg Config

	cdus []cduState

	htwSupply thermal.Volume // cooled HTW leaving the EHXs toward the CDUs
	htwReturn thermal.Volume // heated HTW collected from the CDU HEXs
	ctwSupply thermal.Volume // cold CTW leaving the towers
	ctwReturn thermal.Volume // warmed CTW leaving the EHXs

	htwpPID    *control.PID
	htwpRate   *control.RateLimiter
	htwpStager *control.Stager
	ctwpPID    *control.PID
	ctwpRate   *control.RateLimiter
	ctwpStager *control.Stager
	fanPID     *control.PID
	cellStager *control.Stager

	// Delay transfer function between the primary-pump loop and the
	// cooling-tower loop (§III-C5).
	htwsDelayed *control.TransportDelay
	htwsGradF   *control.FirstOrderLag

	// Last hydraulic/electrical solution.
	qHTW       float64
	qCTW       float64
	htwpSpeed  float64
	ctwpSpeed  float64
	fanSpeed   float64
	htwHeadPa  float64
	ctwHeadPa  float64
	headerDPPa float64
	htwpPowerW float64 // total across staged pumps
	ctwpPowerW float64
	fanPowerW  float64 // total across staged cells
	ehxStaged  int
	ehxDutyW   float64
	towerRejW  float64

	// secFouling multiplies each CDU's secondary-loop resistance to model
	// blockage from biological growth (§III-A's water-quality use case);
	// 1.0 everywhere when clean.
	secFouling []float64

	lastIn Inputs
	simT   float64

	// scratch state vector for the ODE integrator
	state []float64
	// stepper and thermalIn persist across Step calls so the RK4 stage
	// buffers are allocated once per plant, not once per control period
	// (the bulk of the old ~156 allocs per cooled tick).
	stepper   *ode.FixedStepper
	thermalIn Inputs
	// hydraulic scratch reused across solveHydraulics calls
	branchKs  []float64
	primFlows []float64

	// Adaptive-solver state (nil/zero under the fixed-step reference).
	adaptive *ode.AdaptiveStepper
	solv     solverParams
	stats    SolverStats
	// refHeat/refWB are the inputs at the last real integration —
	// equilibrium holds tolerate drift against these, never against the
	// previous (possibly already held) step, so drift cannot compound.
	refHeat  []float64
	refWB    float64
	refValid bool
	settled  bool
	heldS    float64 // consecutive held seconds since the last integration
	lastRate float64 // max state movement rate over the last integration
	// prevState/prevAct are rate-measurement scratch.
	prevState []float64
	prevAct   []float64
	act       []float64
	// Frozen transfer coefficients: UA and tower effectiveness depend
	// only on the hydraulic solution (flows, fan speed), which is fixed
	// across a control period — the adaptive path evaluates them once per
	// period instead of per ODE stage (two Pow calls each, the dominant
	// derivative-sweep cost).
	frozenUA bool
	cduUA    []float64
	ehxUA    float64
	towerEps float64

	// CDU equivalence classes of the control period being integrated
	// (classifyCDUs): cduRep[i] is the lowest-index CDU whose derivative
	// inputs equal CDU i's bit for bit — i itself for a class
	// representative, the only member whose derivatives are computed.
	cduRep []int
	reps   []int // representatives, ascending (classification scratch)
	// noShare puts every CDU in a class of its own; tests set it to
	// check that sharing changes no bit of the solution.
	noShare bool
}

// solverParams are the resolved adaptive-solver knobs (Config fields
// with defaults applied at New).
type solverParams struct {
	adaptive    bool
	quiesceRate float64
	heatTolFrac float64
	wbTol       float64
	maxHold     float64
}

// SolverStats reports the work the plant's thermal solver performed:
// adaptive ODE step accounting, the controller/hydraulics updates
// actually simulated, and the simulated time fast-forwarded through
// equilibrium holds. Zero-valued under the fixed-step reference solver
// except ControlSteps, IntegratedSec and the CDU class counts.
type SolverStats struct {
	// Accepted and Rejected count adaptive ODE steps.
	Accepted int
	Rejected int
	// ControlSteps counts controller/hydraulics updates simulated.
	ControlSteps int
	// Holds counts equilibrium-hold intervals; QuiescentSec is the
	// simulated time they covered. IntegratedSec is the simulated time
	// advanced by real integration.
	Holds         int
	QuiescentSec  float64
	IntegratedSec float64
	// CDUSolved and CDUShared split the CDUs of every simulated control
	// period into class representatives, whose derivatives were computed,
	// and members that copied their representative's (classifyCDUs).
	// Their sum is ControlSteps × the CDU count.
	CDUSolved int
	CDUShared int
}

// QuiescentFraction returns the share of simulated time fast-forwarded
// through equilibrium holds.
func (st SolverStats) QuiescentFraction() float64 {
	total := st.QuiescentSec + st.IntegratedSec
	if total <= 0 {
		return 0
	}
	return st.QuiescentSec / total
}

// Config returns the plant's design configuration.
func (p *Plant) Config() Config { return p.cfg }

// New builds a plant in a warm-started condition near its typical
// operating point.
func New(cfg Config) (*Plant, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Plant{cfg: cfg}
	p.cdus = make([]cduState, cfg.NumCDUs)
	for i := range p.cdus {
		c := &p.cdus[i]
		c.secHot = thermal.Volume{Mass: cfg.SecVolumeKg, T: 36}
		c.secCold = thermal.Volume{Mass: cfg.SecVolumeKg, T: cfg.SecSupplySetC}
		c.pumpPID = control.NewPID(4e-7, 8e-8, 0, 0.3, 1.1)
		c.pumpPID.Reset(0.9)
		c.valvePID = control.NewPID(0.08, 0.004, 0, 0.05, 1.0)
		c.valvePID.DirectAction = true // hotter supply → open valve
		c.valvePID.Reset(0.6)
		c.valve = hydro.NewValve(cfg.PrimValveDPPa, cfg.PrimBranchQ, cfg.PrimValveRange)
		c.valve.SetPosition(0.6)
		c.pumpSpeed = 0.9
	}
	p.htwSupply = thermal.Volume{Mass: cfg.HTWVolumeKg, T: 27}
	p.htwReturn = thermal.Volume{Mass: cfg.HTWVolumeKg, T: 34}
	p.ctwSupply = thermal.Volume{Mass: cfg.CTWVolumeKg, T: cfg.CTSupplySetC}
	p.ctwReturn = thermal.Volume{Mass: cfg.CTWVolumeKg, T: cfg.CTSupplySetC + 6}

	p.htwpPID = control.NewPID(5e-7, 8e-8, 0, 0.35, 1.05)
	p.htwpPID.Reset(0.85)
	p.htwpRate = &control.RateLimiter{RisePerSec: 0.02, FallPerSec: 0.02}
	p.htwpRate.Reset(0.85)
	p.htwpStager = control.NewStager(2, cfg.NumHTWPs, 3,
		cfg.StageUpSpeed, cfg.StageDownSpeed, cfg.StageUpDwellS, cfg.StageDownDwellS)
	p.ctwpPID = control.NewPID(5e-7, 8e-8, 0, 0.35, 1.05)
	p.ctwpPID.Reset(0.85)
	p.ctwpRate = &control.RateLimiter{RisePerSec: 0.02, FallPerSec: 0.02}
	p.ctwpRate.Reset(0.85)
	p.ctwpStager = control.NewStager(2, cfg.NumCTWPs, 3,
		cfg.StageUpSpeed, cfg.StageDownSpeed, cfg.StageUpDwellS, cfg.StageDownDwellS)
	p.fanPID = control.NewPID(0.25, 0.004, 0, 0.10, 1.0)
	p.fanPID.DirectAction = true // warmer basin → faster fans
	p.fanPID.Reset(0.6)
	p.cellStager = control.NewStager(4, cfg.TotalCells(), 12,
		0.9, 0.35, cfg.StageUpDwellS, cfg.StageDownDwellS)
	p.htwsDelayed = control.NewTransportDelay(cfg.LoopDelayS, cfg.ControlDtS)
	p.htwsGradF = &control.FirstOrderLag{Tau: 60}
	p.htwsGradF.Reset(0)

	p.htwpSpeed, p.ctwpSpeed, p.fanSpeed = 0.85, 0.85, 0.6
	p.ehxStaged = 3
	p.secFouling = make([]float64, cfg.NumCDUs)
	for i := range p.secFouling {
		p.secFouling[i] = 1
	}
	p.state = make([]float64, p.Dim())
	p.stepper = ode.NewFixedStepper(thermalSystem{p: p}, ode.RK4)
	p.branchKs = make([]float64, cfg.NumCDUs)
	p.primFlows = make([]float64, cfg.NumCDUs)
	p.cduRep = make([]int, cfg.NumCDUs)
	for i := range p.cduRep {
		p.cduRep[i] = i
	}
	p.reps = make([]int, 0, cfg.NumCDUs)
	if cfg.Solver == SolverAdaptive {
		p.solv = solverParams{
			adaptive:    true,
			quiesceRate: defaultNZ(cfg.QuiesceRateCps, 2e-3),
			heatTolFrac: defaultNZ(cfg.HeatTolFrac, 0.01),
			wbTol:       defaultNZ(cfg.WetBulbTolC, 0.25),
			maxHold:     defaultNZ(cfg.MaxHoldS, 900),
		}
		p.adaptive = ode.NewAdaptiveStepper(thermalSystem{p: p}, ode.DOPRI5, ode.AdaptiveConfig{
			RelTol: defaultNZ(cfg.RelTol, 1e-4),
			AbsTol: defaultNZ(cfg.AbsTol, 1e-3),
		})
		p.refHeat = make([]float64, cfg.NumCDUs)
		p.prevState = make([]float64, p.Dim())
		p.prevAct = make([]float64, p.actDim())
		p.act = make([]float64, p.actDim())
		p.cduUA = make([]float64, cfg.NumCDUs)
	}
	return p, nil
}

func defaultNZ(v, def float64) float64 {
	if v > 0 {
		return v
	}
	return def
}

// Dim implements ode.System: two temperatures per CDU plus the four loop
// volumes.
func (p *Plant) Dim() int { return 2*len(p.cdus) + 4 }

// Time returns the plant's internal simulation time in seconds.
func (p *Plant) Time() float64 { return p.simT }

// Step advances the plant by dt seconds under the given inputs,
// subdividing into ControlDtS control periods. Under the adaptive solver
// the control period widens (and integration is skipped entirely) as the
// plant approaches steady state; see stepAdaptive. It returns an error
// only for malformed inputs — a wrong CDU count, a negative or non-finite
// heat load, a non-finite wet bulb or IT power — and then leaves the plant
// untouched.
func (p *Plant) Step(dt float64, in Inputs) error {
	if len(in.CDUHeatW) != len(p.cdus) {
		return fmt.Errorf("cooling: got %d CDU heat loads, plant has %d CDUs",
			len(in.CDUHeatW), len(p.cdus))
	}
	for i, h := range in.CDUHeatW {
		if !(h >= 0) || math.IsInf(h, 1) {
			return fmt.Errorf("cooling: CDU %d heat %v invalid", i, h)
		}
	}
	if !finite(in.WetBulbC) {
		return fmt.Errorf("cooling: wet bulb %v °C invalid", in.WetBulbC)
	}
	if !finite(in.ITPowerW) {
		return fmt.Errorf("cooling: IT power %v W invalid", in.ITPowerW)
	}
	if p.solv.adaptive {
		return p.stepAdaptive(dt, in)
	}
	p.lastIn = in
	steps := int(math.Ceil(dt / p.cfg.ControlDtS))
	if steps < 1 {
		steps = 1
	}
	h := dt / float64(steps)
	for s := 0; s < steps; s++ {
		p.updateControls(h)
		p.solveHydraulics()
		p.classifyCDUs(in.CDUHeatW)
		p.integrateThermal(h, in)
		p.simT += h
		p.stats.ControlSteps++
	}
	p.stats.IntegratedSec += dt
	return nil
}

// stepAdaptive is Step under the adaptive solver. Three regimes, chosen
// per call from the last integration's state movement and the input
// drift since then:
//
//   - equilibrium hold: the plant is settled, no stager is mid-dwell,
//     and the inputs are within tolerance of those it settled under —
//     fast-forward without touching controls, hydraulics, or thermal
//     state (the cooling-side analogue of RAPS's tick-gap skipping);
//   - coarse/fine integration: otherwise the control period widens from
//     ControlDtS up to 5× as activity dies down (pickControlDt), with
//     the thermal network advanced by the error-controlled
//     Dormand–Prince stepper (warm-started across periods) instead of
//     fixed RK4.
func (p *Plant) stepAdaptive(dt float64, in Inputs) error {
	if p.canHold(in, dt) {
		p.lastIn = in
		p.simT += dt
		p.heldS += dt
		p.stats.Holds++
		p.stats.QuiescentSec += dt
		// Keep the cross-loop delay line on its time base; at a held
		// state the supply temperature is constant, so this is exact.
		p.htwsDelayed.UpdateN(p.htwSupply.T, delaySteps(dt, p.cfg.ControlDtS))
		return nil
	}
	h := p.pickControlDt(dt, in)
	p.heldS = 0
	p.refHeat = p.refHeat[:0]
	p.refHeat = append(p.refHeat, in.CDUHeatW...)
	p.refWB = in.WetBulbC
	p.refValid = true
	p.lastIn = in

	steps := int(math.Ceil(dt/h - 1e-9))
	if steps < 1 {
		steps = 1
	}
	h = dt / float64(steps)
	p.packState(p.prevState)
	p.packActuators(p.prevAct)
	for s := 0; s < steps; s++ {
		p.updateControls(h)
		p.solveHydraulics()
		p.classifyCDUs(in.CDUHeatW)
		p.freezeTransferCoeffs()
		p.integrateThermalAdaptive(h, in)
		p.simT += h
		p.stats.ControlSteps++
	}
	p.frozenUA = false
	p.stats.IntegratedSec += dt

	// Post-step quiescence detection: how fast did the thermal states and
	// actuator commands move across this interval?
	p.packState(p.state)
	p.packActuators(p.act)
	rate := maxAbsRate(p.state, p.prevState, dt)
	actRate := maxAbsRate(p.act, p.prevAct, dt)
	p.lastRate = math.Max(rate, actRate)
	p.settled = p.lastRate < p.solv.quiesceRate && p.stagersIdle()
	return nil
}

// freezeTransferCoeffs evaluates the flow-dependent transfer
// coefficients — per-CDU HEX UA, intermediate-EHX UA, and tower-cell
// effectiveness — once for the control period about to be integrated,
// from the period-start temperatures. The hydraulic solution they
// depend on is held fixed across the period anyway; their residual
// temperature sensitivity (through water density) is ~0.1 %.
func (p *Plant) freezeTransferCoeffs() {
	cfg := p.cfg
	rho := units.WaterDensity(p.htwSupply.T)
	for i := range p.cdus {
		if r := p.cduRep[i]; r != i {
			p.cduUA[i] = p.cduUA[r]
			continue
		}
		c := &p.cdus[i]
		mdotSec := units.WaterDensity(c.secCold.T) * c.qSec
		p.cduUA[i] = cfg.CDUHex.UA(mdotSec, rho*c.qPrim)
	}
	mdotHTW := rho * p.qHTW
	mdotCTW := units.WaterDensity(p.ctwSupply.T) * p.qCTW
	nEHX := float64(p.ehxStaged)
	p.ehxUA = cfg.EHX.UA(mdotHTW/nEHX, mdotCTW/nEHX)
	cells := float64(p.cellStager.Count())
	p.towerEps = cfg.Tower.Effectiveness(p.fanSpeed, mdotCTW/cells)
	p.frozenUA = true
}

// classifyCDUs groups the CDUs into equivalence classes for the control
// period about to be integrated, after its hydraulic solution. Two CDUs
// share a class when every per-CDU input of the derivative sweep is equal
// bit for bit: the two loop temperatures, the secondary and primary flows
// and the heat load. Everything else the sweep reads is plant-wide. Their
// derivatives are then equal too, and since every stage, accept and reject
// update of the RK4 and Dormand–Prince steppers is elementwise, the
// members' states stay bitwise equal to their representative's through
// the whole period. Derivatives and freezeTransferCoeffs therefore compute
// one CDU per class and copy it to the rest, with no change to any bit of
// the solution. Idle CDUs and uniformly loaded ones carry identical heat,
// which makes classes common; with none, classification costs
// O(CDUs × classes) compares per control period.
func (p *Plant) classifyCDUs(heat []float64) {
	reps := p.reps[:0]
	for i := range p.cdus {
		c := &p.cdus[i]
		rep := i
		for _, r := range reps {
			o := &p.cdus[r]
			if sameBits(heat[i], heat[r]) &&
				sameBits(c.qSec, o.qSec) && sameBits(c.qPrim, o.qPrim) &&
				sameBits(c.secHot.T, o.secHot.T) && sameBits(c.secCold.T, o.secCold.T) &&
				!p.noShare {
				rep = r
				break
			}
		}
		if rep == i {
			reps = append(reps, i)
		}
		p.cduRep[i] = rep
	}
	p.reps = reps
	p.stats.CDUSolved += len(reps)
	p.stats.CDUShared += len(p.cdus) - len(reps)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// canHold reports whether the plant may fast-forward the next dt
// seconds: settled, no staging action pending, the hold budget covers
// the whole interval (so the time between real integrations never
// exceeds MaxHoldS even when a coasted gap arrives as one large dt),
// and inputs within tolerance of those at the last real integration.
func (p *Plant) canHold(in Inputs, dt float64) bool {
	if !p.settled || !p.refValid {
		return false
	}
	if p.solv.maxHold > 0 && p.heldS+dt > p.solv.maxHold {
		return false
	}
	return p.inputsNearRef(in)
}

func (p *Plant) inputsNearRef(in Inputs) bool {
	if !p.refValid || math.Abs(in.WetBulbC-p.refWB) > p.solv.wbTol {
		return false
	}
	return p.heatNearRef(in.CDUHeatW)
}

// heatNearRef reports whether the per-CDU heat loads are within the
// hold tolerance of those at the last real integration — the single
// drift check shared by the hold decision and the coast decision, with
// a 1 kW floor so near-idle loops do not pin the tolerance at zero.
func (p *Plant) heatNearRef(cduHeatW []float64) bool {
	if len(cduHeatW) > len(p.refHeat) {
		return false
	}
	for i, h := range cduHeatW {
		ref := p.refHeat[i]
		if math.Abs(h-ref) > p.solv.heatTolFrac*ref+1e3 {
			return false
		}
	}
	return true
}

// pickControlDt widens the controller/hydraulics period as activity
// dies down: a sharp input step or fast state movement gets the design
// period; everything else — routine load jitter, settling tails,
// near-quiescent drift — gets 5×, capped at the coupling step. The
// thermal ODE remains error-controlled inside every period; this trades
// only controller sampling, the Finding-6 fidelity-vs-cost knob the
// ControlDt ablation measures.
func (p *Plant) pickControlDt(dt float64, in Inputs) float64 {
	base := p.cfg.ControlDtS
	if !p.refValid {
		return math.Min(base, dt)
	}
	move := p.inputMoveFrac(in)
	rate := p.lastRate
	if move >= 0.25 || rate >= 25*p.solv.quiesceRate {
		// A sharp step (a large job landing, an HPL ramp): resolve the
		// control response at the design period.
		return math.Min(base, dt)
	}
	// Routine load jitter, settling tails, and near-quiescent drift: 5×
	// keeps every control loop (including the fan/tower loop, whose
	// sampled-data stability margin sits near 10–15× on Frontier-scale
	// volumes and tighter on smaller AutoCSM plants) well inside its
	// stable region; the truly settled case is covered by holds.
	return math.Min(5*base, dt)
}

// inputMoveFrac measures how far the inputs have moved since the last
// real integration, as a relative heat change (with wet-bulb drift
// folded in on the hold-tolerance scale).
func (p *Plant) inputMoveFrac(in Inputs) float64 {
	m := math.Abs(in.WetBulbC-p.refWB) / p.solv.wbTol * p.solv.heatTolFrac
	for i, h := range in.CDUHeatW {
		if i >= len(p.refHeat) {
			break
		}
		d := math.Abs(h-p.refHeat[i]) / math.Max(p.refHeat[i], 1e5)
		if d > m {
			m = d
		}
	}
	return m
}

// stagersIdle reports that no discrete staging action is being dwelled
// toward — holds must not freeze a pending stage change.
func (p *Plant) stagersIdle() bool {
	return !p.htwpStager.Pending() && !p.ctwpStager.Pending() && !p.cellStager.Pending()
}

// packState writes the thermal state vector into dst (len Dim()).
func (p *Plant) packState(dst []float64) {
	n := len(p.cdus)
	for i := range p.cdus {
		dst[2*i] = p.cdus[i].secHot.T
		dst[2*i+1] = p.cdus[i].secCold.T
	}
	dst[2*n] = p.htwSupply.T
	dst[2*n+1] = p.htwReturn.T
	dst[2*n+2] = p.ctwSupply.T
	dst[2*n+3] = p.ctwReturn.T
}

// actDim is the actuator vector length: per-CDU pump speed and valve
// position plus the three loop-level commands.
func (p *Plant) actDim() int { return 2*len(p.cdus) + 3 }

// packActuators writes the continuous actuator commands into dst — the
// signals whose slew (PID convergence, rate-limited pump ramps) must
// also die out before the plant counts as settled.
func (p *Plant) packActuators(dst []float64) {
	for i := range p.cdus {
		dst[2*i] = p.cdus[i].pumpSpeed
		dst[2*i+1] = p.cdus[i].valve.Position()
	}
	n := 2 * len(p.cdus)
	dst[n] = p.htwpSpeed
	dst[n+1] = p.ctwpSpeed
	dst[n+2] = p.fanSpeed
}

func maxAbsRate(a, b []float64, dt float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m / dt
}

func delaySteps(dt, controlDt float64) int {
	n := int(math.Round(dt / controlDt))
	if n < 1 {
		n = 1
	}
	return n
}

// SolverStats returns the plant's solver work accounting since New.
func (p *Plant) SolverStats() SolverStats {
	st := p.stats
	if p.adaptive != nil {
		a := p.adaptive.Stats()
		st.Accepted, st.Rejected = a.Accepted, a.Rejected
	}
	return st
}

// Quiescent reports whether the plant is currently settled at an
// equilibrium (adaptive solver only; always false under fixed-step).
func (p *Plant) Quiescent() bool { return p.settled }

// CanCoast reports whether the simulation layer may skip upcoming
// coupling boundaries entirely: the plant is settled with no staging
// pending and would hold under the given per-CDU heat loads. Wet-bulb
// drift is not predictable here; CoastWindowS bounds how long a coast
// may defer re-checking it.
func (p *Plant) CanCoast(cduHeatW []float64) bool {
	return p.solv.adaptive && p.settled && p.refValid && p.heatNearRef(cduHeatW)
}

// CoastWindowS is the longest stretch the simulation layer may coast
// across cooling boundaries before stepping the plant again (0 under the
// fixed-step solver: every boundary must be stepped).
func (p *Plant) CoastWindowS() float64 {
	if !p.solv.adaptive {
		return 0
	}
	return p.solv.maxHold
}

// updateControls advances every PID and stager one control period.
func (p *Plant) updateControls(dt float64) {
	cfg := p.cfg
	for i := range p.cdus {
		c := &p.cdus[i]
		dpMeas := cfg.SecLoopK * p.secFouling[i] * c.qSec * c.qSec
		c.pumpSpeed = c.pumpPID.Update(cfg.SecDPSetPa, dpMeas, dt)
		pos := c.valvePID.Update(cfg.SecSupplySetC, c.secCold.T, dt)
		c.valve.SetPosition(pos)
	}

	p.htwpSpeed = p.htwpRate.Update(p.htwpPID.Update(cfg.HTWHeaderSetPa, p.headerDPPa, dt), dt)
	p.htwpStager.Update(p.htwpSpeed, dt)

	ctwHeader := cfg.StaticPressPa + 0.85*p.ctwHeadPa
	p.ctwpSpeed = p.ctwpRate.Update(p.ctwpPID.Update(cfg.CTWHeaderSetPa, ctwHeader, dt), dt)
	p.ctwpStager.Update(p.ctwpSpeed, dt)

	p.fanSpeed = p.fanPID.Update(cfg.CTSupplySetC, p.ctwSupply.T, dt)

	// Tower staging: fan loading plus the delayed HTW-supply temperature
	// gradient (§III-C5's cross-loop delay transfer function). The delay
	// line is sampled on its ControlDtS design period; coarse adaptive
	// control periods push one sample per design period to keep the delay
	// duration invariant.
	delayed := p.htwsDelayed.UpdateN(p.htwSupply.T, delaySteps(dt, cfg.ControlDtS))
	grad := p.htwsGradF.Update((p.htwSupply.T-delayed)/math.Max(cfg.LoopDelayS, 1), dt)
	signal := p.fanSpeed
	if math.Abs(grad) > cfg.CTHTWSGradient {
		signal = math.Max(signal, 0.95)
	}
	p.cellStager.Update(signal, dt)

	// EHXs are staged from the number of towers in operation (§III-C5).
	towers := (p.cellStager.Count() + cfg.CellsPerTower - 1) / cfg.CellsPerTower
	p.ehxStaged = clampInt(towers, 1, cfg.NumEHX)
}

// solveHydraulics computes loop flows from the current pump speeds,
// staging, and valve positions. Every loop's system curve is purely
// quadratic in the loop flow (fixed piping, fouling-scaled rack loops,
// and the parallel valve+HEX branch network all compose to K·Q²), so the
// operating points come from hydro.SolveQuadLoop's closed form rather
// than bracketing/bisection — this runs 27× per control period and used
// to be a third of the cooled-day cost.
func (p *Plant) solveHydraulics() {
	cfg := p.cfg

	// Secondary loops: each CDU pump against its rack-loop curve, with
	// any injected fouling raising the loop resistance.
	for i := range p.cdus {
		c := &p.cdus[i]
		loopK := cfg.SecLoopK * p.secFouling[i]
		bank := hydro.PumpBank{Curve: cfg.SecPump, N: 1, Speed: c.pumpSpeed}
		q, _ := hydro.SolveQuadLoop(bank, loopK)
		c.qSec = q
		c.pumpPower = cfg.SecPump.Power(q, c.pumpSpeed)
	}

	// Primary loop: staged HTWPs against fixed piping plus the parallel
	// CDU branch network (valve + HEX primary side per branch).
	hexK := 20e3 / (cfg.PrimBranchQ * cfg.PrimBranchQ)
	branchKs := p.branchKs
	for i := range p.cdus {
		branchKs[i] = p.cdus[i].valve.Resistance().K + hexK
	}
	eqBranch := hydro.ParallelK(branchKs)
	htwBank := hydro.PumpBank{Curve: cfg.HTWPump, N: p.htwpStager.Count(), Speed: p.htwpSpeed}
	qHTW, htwHead := hydro.SolveQuadLoop(htwBank, cfg.HTWLoopK+eqBranch.K)
	p.qHTW, p.htwHeadPa = qHTW, htwHead
	headerDP := hydro.SplitParallelInto(qHTW, branchKs, p.primFlows)
	p.headerDPPa = headerDP
	for i := range p.cdus {
		p.cdus[i].qPrim = p.primFlows[i]
	}
	p.htwpPowerW = htwBank.Power(htwHead)

	// Cooling-tower loop: staged CTWPs against the fixed tower circuit.
	ctwBank := hydro.PumpBank{Curve: cfg.CTWPump, N: p.ctwpStager.Count(), Speed: p.ctwpSpeed}
	qCTW, ctwHead := hydro.SolveQuadLoop(ctwBank, cfg.CTWLoopK)
	p.qCTW, p.ctwHeadPa = qCTW, ctwHead
	p.ctwpPowerW = ctwBank.Power(ctwHead)

	cells := p.cellStager.Count()
	p.fanPowerW = float64(cells) * cfg.Tower.FanPower(p.fanSpeed)
}

// thermalSystem adapts the plant's energy balance to ode.System with the
// hydraulic solution held fixed over the step. The step inputs are read
// from p.thermalIn so one stepper (and its RK4 stage buffers) serves
// every integrateThermal call.
type thermalSystem struct {
	p *Plant
}

// Dim implements ode.System.
func (s thermalSystem) Dim() int { return s.p.Dim() }

// Derivatives implements ode.System over the packed state
// [secHot0, secCold0, ..., htwSupply, htwReturn, ctwSupply, ctwReturn].
func (s thermalSystem) Derivatives(t float64, y, dydt []float64) {
	p := s.p
	in := &p.thermalIn
	cfg := p.cfg
	n := len(p.cdus)

	htwSupplyT := y[2*n]
	htwReturnT := y[2*n+1]
	ctwSupplyT := y[2*n+2]
	ctwReturnT := y[2*n+3]

	rho := units.WaterDensity(htwSupplyT)
	cpHTW := units.WaterSpecificHeat(htwSupplyT)
	mdotHTW := rho * p.qHTW
	mdotCTW := units.WaterDensity(ctwSupplyT) * p.qCTW

	// CDU loops and their HEX coupling to the primary loop. A class
	// member copies its representative's results (classifyCDUs); the mix
	// sums still run over every CDU in index order.
	var mixNum, mixDen float64
	for i := range p.cdus {
		c := &p.cdus[i]
		mdotPrim := rho * c.qPrim
		if r := p.cduRep[i]; r != i {
			dydt[2*i], dydt[2*i+1] = dydt[2*r], dydt[2*r+1]
			c.hexDuty, c.primOutT = p.cdus[r].hexDuty, p.cdus[r].primOutT
			mixNum += mdotPrim * c.primOutT
			mixDen += mdotPrim
			continue
		}
		secHotT := y[2*i]
		secColdT := y[2*i+1]
		mdotSec := units.WaterDensity(secColdT) * c.qSec

		// Rack pass: the secondary stream picks up the CDU heat load.
		hot := thermal.Volume{Mass: cfg.SecVolumeKg, T: secHotT}
		dydt[2*i] = hot.DTdt(mdotSec, secColdT, in.CDUHeatW[i])

		// HEX-1600: secondary (hot) → primary (cold), every CDU fed from
		// the one HTW supply header.
		var ua float64
		if p.frozenUA {
			ua = p.cduUA[i]
		} else {
			ua = cfg.CDUHex.UA(mdotSec, mdotPrim)
		}
		q, secOutT, primOutT := cfg.CDUHex.TransferUACp(ua, secHotT, mdotSec, htwSupplyT, mdotPrim, cpHTW)
		cold := thermal.Volume{Mass: cfg.SecVolumeKg, T: secColdT}
		dydt[2*i+1] = cold.DTdt(mdotSec, secOutT, 0)

		c.hexDuty = q
		c.primOutT = primOutT
		mixNum += mdotPrim * primOutT
		mixDen += mdotPrim
	}
	mixT := htwReturnT
	if mixDen > 0 {
		mixT = mixNum / mixDen
	}

	// Intermediate EHX bank: HTW return (hot) → CTW (cold), per unit.
	nEHX := float64(p.ehxStaged)
	var qEHX, htwOutT, ctwOutT float64
	if p.frozenUA {
		qEHX, htwOutT, ctwOutT = cfg.EHX.TransferUA(p.ehxUA,
			htwReturnT, mdotHTW/nEHX, ctwSupplyT, mdotCTW/nEHX)
	} else {
		qEHX, htwOutT, ctwOutT = cfg.EHX.Transfer(
			htwReturnT, mdotHTW/nEHX, ctwSupplyT, mdotCTW/nEHX)
	}
	p.ehxDutyW = qEHX * nEHX

	// Cooling-tower cells reject to the wet bulb.
	cells := p.cellStager.Count()
	perCell := mdotCTW / float64(cells)
	var cellOutT float64
	if p.frozenUA {
		cellOutT = cfg.Tower.OutletEff(p.towerEps, ctwReturnT, in.WetBulbC)
	} else {
		cellOutT = cfg.Tower.Outlet(ctwReturnT, in.WetBulbC, p.fanSpeed, perCell)
	}
	p.towerRejW = mdotCTW * units.WaterSpecificHeat(ctwReturnT) * (ctwReturnT - cellOutT)

	hs := thermal.Volume{Mass: cfg.HTWVolumeKg, T: htwSupplyT}
	dydt[2*n] = hs.DTdt(mdotHTW, htwOutT, 0)
	hr := thermal.Volume{Mass: cfg.HTWVolumeKg, T: htwReturnT}
	dydt[2*n+1] = hr.DTdt(mdotHTW, mixT, 0)
	cs := thermal.Volume{Mass: cfg.CTWVolumeKg, T: ctwSupplyT}
	dydt[2*n+2] = cs.DTdt(mdotCTW, cellOutT, 0)
	cr := thermal.Volume{Mass: cfg.CTWVolumeKg, T: ctwReturnT}
	dydt[2*n+3] = cr.DTdt(mdotCTW, ctwOutT, 0)
}

func (p *Plant) integrateThermal(dt float64, in Inputs) {
	y := p.state
	p.packState(y)
	p.thermalIn = in
	p.stepper.Integrate(0, dt, y, dt)
	p.unpackState(y)
}

// integrateThermalAdaptive advances the thermal network by dt with the
// persistent Dormand–Prince stepper (warm-started step size, shared
// stage buffers). A step failure — which the mildly stiff network should
// never produce at sane tolerances — falls back to the fixed RK4
// reference for the period rather than aborting the run.
func (p *Plant) integrateThermalAdaptive(dt float64, in Inputs) {
	y := p.state
	p.packState(y)
	p.thermalIn = in
	if _, err := p.adaptive.Integrate(0, dt, y); err != nil {
		p.packState(y)
		p.stepper.Integrate(0, dt, y, p.cfg.ControlDtS)
	}
	p.unpackState(y)
}

// unpackState writes the packed state vector back into the volumes.
func (p *Plant) unpackState(y []float64) {
	n := len(p.cdus)
	for i := range p.cdus {
		p.cdus[i].secHot.T = y[2*i]
		p.cdus[i].secCold.T = y[2*i+1]
	}
	p.htwSupply.T = y[2*n]
	p.htwReturn.T = y[2*n+1]
	p.ctwSupply.T = y[2*n+2]
	p.ctwReturn.T = y[2*n+3]
}

// AuxPowerW returns the total auxiliary (cooling) electrical power: CDU
// pumps + HTWPs + CTWPs + CT fans — the PUE numerator's non-IT share
// (§IV-1).
func (p *Plant) AuxPowerW() float64 {
	aux := p.htwpPowerW + p.ctwpPowerW + p.fanPowerW
	for i := range p.cdus {
		aux += p.cdus[i].pumpPower
	}
	return aux
}

// PUE returns the power usage effectiveness for the last step's IT power,
// or 0 when no IT power was supplied.
func (p *Plant) PUE() float64 {
	if p.lastIn.ITPowerW <= 0 {
		return 0
	}
	return (p.lastIn.ITPowerW + p.AuxPowerW()) / p.lastIn.ITPowerW
}

// TotalHeatInW returns the heat currently injected by the compute load.
func (p *Plant) TotalHeatInW() float64 {
	sum := 0.0
	for _, h := range p.lastIn.CDUHeatW {
		sum += h
	}
	return sum
}

// TowerRejectionW returns the heat rejected by the tower cells during the
// last step.
func (p *Plant) TowerRejectionW() float64 { return p.towerRejW }

// SettleToSteadyState runs the plant under constant inputs until the loop
// temperatures stop moving (or maxSeconds elapses). Used by tests and by
// experiment warm-up.
func (p *Plant) SettleToSteadyState(in Inputs, maxSeconds float64) error {
	const window = 120.0
	prevR, prevCS, prevCR := p.htwReturn.T, p.ctwSupply.T, p.ctwReturn.T
	for t := 0.0; t < maxSeconds; t += window {
		if err := p.Step(window, in); err != nil {
			return err
		}
		moved := math.Max(math.Abs(p.htwReturn.T-prevR),
			math.Max(math.Abs(p.ctwSupply.T-prevCS), math.Abs(p.ctwReturn.T-prevCR)))
		if moved < 0.004 && t > 1800 {
			return nil
		}
		prevR, prevCS, prevCR = p.htwReturn.T, p.ctwSupply.T, p.ctwReturn.T
	}
	return nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// HeatFlows reports the instantaneous heat-flow accounting along the
// rejection path: total CDU HEX duty, total intermediate-EHX duty, and
// cooling-tower rejection, all in watts. At steady state the three agree
// with the injected CDU heat.
func (p *Plant) HeatFlows() (cduHexW, ehxW, towerW float64) {
	for i := range p.cdus {
		cduHexW += p.cdus[i].hexDuty
	}
	return cduHexW, p.ehxDutyW, p.towerRejW
}

// ControlState reports the key actuator commands for dashboards and
// tests: the first CDU's valve position, the HTWP/CTWP common speeds, the
// header differential pressure, and the common tower fan speed.
func (p *Plant) ControlState() (valvePos, htwpSpeed, headerDPPa, ctwpSpeed, fanSpeed float64) {
	return p.cdus[0].valve.Position(), p.htwpSpeed, p.headerDPPa,
		p.ctwpSpeed, p.fanSpeed
}

// InjectSecondaryFouling multiplies CDU cdu's secondary-loop resistance
// by factor (≥1), modelling blade-level blockage from biological growth —
// the §III-A water-quality use case. Factor 1 restores the clean loop.
func (p *Plant) InjectSecondaryFouling(cdu int, factor float64) error {
	if cdu < 0 || cdu >= len(p.secFouling) {
		return fmt.Errorf("cooling: CDU %d out of range", cdu)
	}
	if factor < 1 {
		return fmt.Errorf("cooling: fouling factor %v must be ≥ 1", factor)
	}
	p.secFouling[cdu] = factor
	return nil
}
