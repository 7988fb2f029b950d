// Package fmu provides a Functional Mock-up Interface (FMI 2.0
// co-simulation)–style wrapper around the cooling plant, standing in for
// the paper's Dymola-exported FMU consumed through FMPy (§III-C6). The
// same lifecycle applies: instantiate, set inputs by value reference,
// DoStep at the 15 s communication interval, and read the 317 outputs by
// value reference. It is the public co-simulation surface
// (exadigit.NewCoolingFMU) for drivers outside the twin; RAPS itself
// steps the plant directly, under the same inputs an Instance's DoStep
// passes it.
//
// The description of a model (its modelDescription.xml equivalent) is
// compiled once per cooling.Config into a Design and shared read-only by
// every Instance stamped from it, so scenario sweeps pay the 300+-variable
// enumeration once per spec instead of once per scenario.
package fmu

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"exadigit/internal/cooling"
)

// ValueRef identifies a model variable, mirroring FMI value references.
type ValueRef uint32

// Causality mirrors the FMI variable causality attribute.
type Causality int

// Causality values.
const (
	Input Causality = iota
	Output
	Parameter
)

// String names the causality.
func (c Causality) String() string {
	switch c {
	case Input:
		return "input"
	case Output:
		return "output"
	case Parameter:
		return "parameter"
	}
	return fmt.Sprintf("causality(%d)", int(c))
}

// ScalarVariable describes one model variable, as in an FMI
// modelDescription.xml.
type ScalarVariable struct {
	Name      string
	Ref       ValueRef
	Causality Causality
	Unit      string
}

// ModelDescription lists every variable the model exposes.
type ModelDescription struct {
	ModelName string
	Variables []ScalarVariable

	byName map[string]ValueRef
}

// RefByName resolves a variable name to its value reference.
func (d *ModelDescription) RefByName(name string) (ValueRef, error) {
	if ref, ok := d.byName[name]; ok {
		return ref, nil
	}
	return 0, fmt.Errorf("fmu: unknown variable %q", name)
}

// OutputRefs returns the refs of all output variables in declaration
// order.
func (d *ModelDescription) OutputRefs() []ValueRef {
	var refs []ValueRef
	for _, v := range d.Variables {
		if v.Causality == Output {
			refs = append(refs, v.Ref)
		}
	}
	return refs
}

// descriptionBuilds counts Design constructions process-wide. It exists
// so sweep tests can assert the description is compiled once per spec
// and shared, not rebuilt per scenario.
var descriptionBuilds atomic.Uint64

// DescriptionBuilds returns how many model descriptions have been
// compiled since process start (build-sharing instrumentation).
func DescriptionBuilds() uint64 { return descriptionBuilds.Load() }

// Design is the compiled, immutable description of the cooling-model FMU
// for one cooling.Config: the variable list plus the value-reference
// layout (per-CDU heat inputs, wet bulb, IT power, and the 317 outputs in
// declaration order). A Design is safe for concurrent use; Instantiate
// stamps out Instances that share it read-only while owning their own
// mutable plant state.
type Design struct {
	cfg  cooling.Config
	desc *ModelDescription

	heatRefs   []ValueRef
	wetBulbRef ValueRef
	itPowerRef ValueRef

	outRefs  []ValueRef
	outNames []string
	outIndex map[ValueRef]int
}

// NewDesign compiles the model description for cfg.
func NewDesign(cfg cooling.Config) (*Design, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dn := &Design{cfg: cfg}
	d := &ModelDescription{ModelName: "ExaDigiT.CoolingPlant", byName: make(map[string]ValueRef)}
	ref := ValueRef(1)
	add := func(name string, c Causality, unit string) ValueRef {
		d.Variables = append(d.Variables, ScalarVariable{Name: name, Ref: ref, Causality: c, Unit: unit})
		d.byName[name] = ref
		ref++
		return ref - 1
	}
	for i := 1; i <= cfg.NumCDUs; i++ {
		dn.heatRefs = append(dn.heatRefs, add(fmt.Sprintf("cdu[%d].heat_w", i), Input, "W"))
	}
	dn.wetBulbRef = add("wetbulb_temp_c", Input, "degC")
	dn.itPowerRef = add("it_power_w", Input, "W")

	dn.outIndex = make(map[ValueRef]int)
	dn.outNames = cooling.OutputNames(cfg)
	for i, name := range dn.outNames {
		unit := ""
		switch {
		case hasSuffix(name, "_w"):
			unit = "W"
		case hasSuffix(name, "_m3s"):
			unit = "m3/s"
		case hasSuffix(name, "_c"):
			unit = "degC"
		case hasSuffix(name, "_pa"):
			unit = "Pa"
		}
		r := add(name, Output, unit)
		dn.outRefs = append(dn.outRefs, r)
		dn.outIndex[r] = i
	}
	dn.desc = d
	descriptionBuilds.Add(1)
	return dn, nil
}

// Description returns the compiled model description.
func (dn *Design) Description() *ModelDescription { return dn.desc }

// Config returns the plant configuration the design was compiled from.
func (dn *Design) Config() cooling.Config { return dn.cfg }

// OutputNames returns the output channel names in value order — the
// labels a dashboard attaches to GetReal vectors. The slice is shared;
// callers must not mutate it.
func (dn *Design) OutputNames() []string { return dn.outNames }

// Instantiate builds a fresh Instance over a new cooling plant, sharing
// this design's description.
func (dn *Design) Instantiate() (*Instance, error) {
	plant, err := cooling.New(dn.cfg)
	if err != nil {
		return nil, err
	}
	inst := &Instance{
		design: dn,
		plant:  plant,
		state:  Instantiated,
		inputs: make(map[ValueRef]float64),
	}
	inst.stepIn.CDUHeatW = make([]float64, len(dn.heatRefs))
	return inst, nil
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

// State tracks the FMI co-simulation lifecycle.
type State int

// Lifecycle states.
const (
	Instantiated State = iota
	Initialized
	Stepping
	Terminated
)

// ErrLifecycle is returned for calls in the wrong lifecycle state.
var ErrLifecycle = errors.New("fmu: invalid lifecycle state")

// Instance is an instantiated cooling-model FMU. The design (variable
// layout) is shared; plant state, input buffer, and outputs are owned.
type Instance struct {
	design *Design
	plant  *cooling.Plant
	state  State
	time   float64

	// input buffer, by value reference
	inputs map[ValueRef]float64

	// stepIn is the reusable cooling.Inputs scratch for DoStep.
	stepIn cooling.Inputs

	// last computed outputs, dense by output index; snap is the reusable
	// decode scratch behind it.
	snap    cooling.Outputs
	lastOut []float64
	haveOut bool
}

// Instantiate builds an FMU instance over a fresh cooling plant,
// compiling a private Design. Sweeps that share a spec should compile one
// Design and call its Instantiate instead.
func Instantiate(cfg cooling.Config) (*Instance, error) {
	dn, err := NewDesign(cfg)
	if err != nil {
		return nil, err
	}
	return dn.Instantiate()
}

// Design returns the shared design the instance was stamped from.
func (m *Instance) Design() *Design { return m.design }

// Description returns the model description.
func (m *Instance) Description() *ModelDescription { return m.design.desc }

// State returns the lifecycle state.
func (m *Instance) State() State { return m.state }

// Time returns the current communication-point time in seconds.
func (m *Instance) Time() float64 { return m.time }

// SetupExperiment transitions to Initialized at the given start time.
func (m *Instance) SetupExperiment(startTime float64) error {
	if m.state != Instantiated {
		return fmt.Errorf("%w: SetupExperiment in %v", ErrLifecycle, m.state)
	}
	m.time = startTime
	m.state = Initialized
	return nil
}

// SetReal assigns input variables by value reference. Only inputs may be
// written.
func (m *Instance) SetReal(refs []ValueRef, values []float64) error {
	if m.state == Terminated {
		return fmt.Errorf("%w: SetReal after Terminate", ErrLifecycle)
	}
	if len(refs) != len(values) {
		return fmt.Errorf("fmu: SetReal got %d refs, %d values", len(refs), len(values))
	}
	for i, r := range refs {
		v := m.varByRef(r)
		if v == nil {
			return fmt.Errorf("fmu: SetReal: unknown ref %d", r)
		}
		if v.Causality != Input {
			return fmt.Errorf("fmu: SetReal: %q is not an input", v.Name)
		}
		m.inputs[r] = values[i]
	}
	return nil
}

// GetReal reads variables by value reference: inputs echo their buffered
// values; outputs return the values from the last DoStep.
func (m *Instance) GetReal(refs []ValueRef, values []float64) error {
	if len(refs) != len(values) {
		return fmt.Errorf("fmu: GetReal got %d refs, %d values", len(refs), len(values))
	}
	for i, r := range refs {
		if idx, ok := m.design.outIndex[r]; ok {
			if !m.haveOut {
				return fmt.Errorf("fmu: GetReal before first DoStep")
			}
			values[i] = m.lastOut[idx]
			continue
		}
		if v := m.varByRef(r); v != nil && v.Causality == Input {
			values[i] = m.inputs[r]
			continue
		}
		return fmt.Errorf("fmu: GetReal: unknown ref %d", r)
	}
	return nil
}

// DoStep advances the model from the current communication point by
// stepSize seconds (the paper uses 15 s). The input and output scratch is
// reused across calls, so the cooled simulation hot loop does not
// allocate here.
func (m *Instance) DoStep(stepSize float64) error {
	switch m.state {
	case Initialized, Stepping:
	default:
		return fmt.Errorf("%w: DoStep in %v", ErrLifecycle, m.state)
	}
	if stepSize <= 0 {
		return fmt.Errorf("fmu: non-positive step %v", stepSize)
	}
	m.stepIn.WetBulbC = m.inputs[m.design.wetBulbRef]
	m.stepIn.ITPowerW = m.inputs[m.design.itPowerRef]
	for i, r := range m.design.heatRefs {
		m.stepIn.CDUHeatW[i] = m.inputs[r]
	}
	if err := m.plant.Step(stepSize, m.stepIn); err != nil {
		return err
	}
	m.plant.SnapshotInto(&m.snap)
	m.lastOut = m.snap.VectorInto(m.lastOut)
	m.haveOut = true
	m.time += stepSize
	m.state = Stepping
	return nil
}

// Terminate ends the co-simulation; further DoStep calls fail.
func (m *Instance) Terminate() {
	m.state = Terminated
}

// Reset re-instantiates the underlying plant, returning to Instantiated.
func (m *Instance) Reset() error {
	plant, err := cooling.New(m.design.cfg)
	if err != nil {
		return err
	}
	m.plant = plant
	m.state = Instantiated
	m.time = 0
	m.haveOut = false
	for r := range m.inputs {
		delete(m.inputs, r)
	}
	return nil
}

// Plant exposes the wrapped plant for white-box assertions in tests and
// experiments (not part of the FMI surface).
func (m *Instance) Plant() *cooling.Plant { return m.plant }

// SolverStats exposes the wrapped plant's thermal-solver accounting —
// adaptive step counts, control updates simulated, quiescent time —
// through the FMI-shaped boundary, so co-simulation drivers can report
// solver effectiveness without reaching into the plant.
func (m *Instance) SolverStats() cooling.SolverStats { return m.plant.SolverStats() }

func (m *Instance) varByRef(r ValueRef) *ScalarVariable {
	vars := m.design.desc.Variables
	idx := sort.Search(len(vars), func(i int) bool {
		return vars[i].Ref >= r
	})
	if idx < len(vars) && vars[idx].Ref == r {
		return &vars[idx]
	}
	return nil
}
