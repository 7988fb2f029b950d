// Package power implements the dynamic power and conversion-loss model of
// RAPS (§III-B): per-node power from CPU/GPU utilization (Eq. 3 with the
// Table I component values), the AC→DC rectifier and DC-DC SIVOC loss
// chain (Eqs. 1–2, Fig. 3), rack- and CDU-level aggregation (Eq. 4), and
// the two what-if variants evaluated in §IV-3 — smart load-sharing
// rectifier staging and direct 380 V DC distribution.
package power

import (
	"fmt"
	"math"
)

// ComponentSpec holds the Table I per-component power values (watts) and
// per-node multiplicities for a Frontier-like node.
type ComponentSpec struct {
	CPUIdle, CPUMax float64
	GPUIdle, GPUMax float64
	RAM             float64 // per node (average)
	NVMe            float64 // per device
	NIC             float64 // per device
	Switch          float64 // per switch (average)
	CDUPump         float64 // per CDU (average)

	GPUsPerNode int
	NICsPerNode int
	NVMePerNode int
}

// FrontierComponents returns the published Table I values: CPU [90, 280] W,
// GPU [88, 560] W, RAM 74 W, NVMe 15 W ×2, NIC 20 W ×4, switch 250 W,
// CDU pump 8.7 kW.
func FrontierComponents() ComponentSpec {
	return ComponentSpec{
		CPUIdle: 90, CPUMax: 280,
		GPUIdle: 88, GPUMax: 560,
		RAM: 74, NVMe: 15, NIC: 20,
		Switch: 250, CDUPump: 8700,
		GPUsPerNode: 4, NICsPerNode: 4, NVMePerNode: 2,
	}
}

// NodeIdle returns the node power at zero utilization (626 W for Frontier).
func (s ComponentSpec) NodeIdle() float64 { return s.NodePower(0, 0) }

// NodePeak returns the node power at full utilization (2704 W for Frontier).
func (s ComponentSpec) NodePeak() float64 { return s.NodePower(1, 1) }

// NodePower implements Eq. 3: P = Pcpu + 4·Pgpu + 4·Pnic + Pram + 2·Pnvme,
// with CPU and GPU power linearly interpolated between idle and max by
// utilization (clamped to [0, 1]).
func (s ComponentSpec) NodePower(cpuUtil, gpuUtil float64) float64 {
	cu := clamp01(cpuUtil)
	gu := clamp01(gpuUtil)
	cpu := s.CPUIdle + cu*(s.CPUMax-s.CPUIdle)
	gpu := s.GPUIdle + gu*(s.GPUMax-s.GPUIdle)
	return cpu +
		float64(s.GPUsPerNode)*gpu +
		float64(s.NICsPerNode)*s.NIC +
		s.RAM +
		float64(s.NVMePerNode)*s.NVMe
}

// RectifierCurve is the load-dependent efficiency of one active rectifier,
// a two-sided quadratic peaking at exactly (POptW, EtaMax) — §IV-3 gives
// 96.3 % at 7.5 kW, with a 1–2 % drop at the near-idle operating point.
//
//	η(P) = EtaMax − D·((P − POpt)/POpt)²
//
// with D = LowDroop below the optimum and D = HighDroop above it. The
// droop coefficients are calibrated so that the chassis-level conversion
// reproduces the Table III verification points (idle 7.24 MW, HPL-core
// 22.3 MW, peak 28.2 MW) given the Table I loads.
type RectifierCurve struct {
	EtaMax    float64 // peak efficiency at POptW
	LowDroop  float64 // quadratic droop coefficient below POptW
	HighDroop float64 // quadratic droop coefficient above POptW
	POptW     float64 // optimal load per rectifier
	PMaxW     float64 // continuous rating per rectifier
}

// FrontierRectifier returns the Table III-calibrated curve. At the
// Frontier idle point (≈2.56 kW per rectifier) η ≈ 0.941; at the peak
// point (≈11.0 kW) η ≈ 0.954.
func FrontierRectifier() RectifierCurve {
	return RectifierCurve{
		EtaMax:    0.963,
		LowDroop:  0.0506,
		HighDroop: 0.0405,
		POptW:     7500,
		PMaxW:     15000,
	}
}

// Eta returns the conversion efficiency at output load loadW.
func (r RectifierCurve) Eta(loadW float64) float64 {
	if loadW <= 0 {
		return r.EtaMax - r.LowDroop
	}
	f := (loadW - r.POptW) / r.POptW
	if loadW < r.POptW {
		return r.EtaMax - r.LowDroop*f*f
	}
	return r.EtaMax - r.HighDroop*f*f
}

// Mode selects the power-distribution architecture under study.
type Mode int

const (
	// ACBaseline is Frontier as built: all chassis rectifiers share load.
	ACBaseline Mode = iota
	// SmartRectifier stages rectifiers so each runs near its optimum
	// (what-if 1 in §IV-3).
	SmartRectifier
	// DC380 bypasses rectification with direct 380 V DC distribution
	// (what-if 2 in §IV-3), leaving the SIVOC stage and a small DC
	// busway distribution loss.
	DC380
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ACBaseline:
		return "ac-baseline"
	case SmartRectifier:
		return "smart-rectifier"
	case DC380:
		return "dc380"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ConversionChain models the two-stage conversion of Fig. 3: chassis
// rectifier group (four parallel rectifiers per chassis feeding a common
// 380 V DC bus) followed by per-node SIVOCs stepping down to 48 V.
type ConversionChain struct {
	Rect              RectifierCurve
	EtaSIVOC          float64 // DC-DC stage efficiency (0.98 per §III-B1)
	EtaDCDistribution float64 // busway efficiency in DC380 mode (0.993)
	RectPerChassis    int
	Mode              Mode
}

// FrontierChain returns the as-built conversion chain.
func FrontierChain() ConversionChain {
	return ConversionChain{
		Rect:              FrontierRectifier(),
		EtaSIVOC:          0.98,
		EtaDCDistribution: 0.993,
		RectPerChassis:    4,
		Mode:              ACBaseline,
	}
}

// ChassisResult reports the conversion accounting for one chassis.
type ChassisResult struct {
	InputW      float64 // AC (or DC-bus) power drawn by the chassis
	SivocLossW  float64
	RectLossW   float64 // rectifier loss; distribution loss in DC380 mode
	RectsActive int     // rectifiers carrying load (4 in baseline)
}

// Chassis computes the power drawn from the distribution transformer by a
// chassis whose nodes output nodeOutW watts (sum over the chassis's
// nodes, measured at the 48 V point per Eq. 1's P_S48V). It is the
// one-chain case of evalChains.
func (c ConversionChain) Chassis(nodeOutW float64) ChassisResult {
	var res [1]ChassisResult
	evalChains([]ConversionChain{c}, nodeOutW, res[:])
	return res[0]
}

// sameStages reports whether evalChains may evaluate a and b in one
// pass: they share the SIVOC efficiency and the rectifier group (curve
// and count), compared bit for bit. Mode and EtaDCDistribution may
// differ.
func sameStages(a, b *ConversionChain) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	ra, rb := &a.Rect, &b.Rect
	return same(a.EtaSIVOC, b.EtaSIVOC) && a.RectPerChassis == b.RectPerChassis &&
		same(ra.EtaMax, rb.EtaMax) && same(ra.LowDroop, rb.LowDroop) &&
		same(ra.HighDroop, rb.HighDroop) && same(ra.POptW, rb.POptW) && same(ra.PMaxW, rb.PMaxW)
}

// evalChains writes into dst[k] the conversion of one chassis whose
// nodes output nodeOutW watts under chains[k]. Every chain shares the
// first's stages (sameStages), so the SIVOC input is divided out once
// and the rectifier efficiency is evaluated at most once for each
// active-rectifier count: ac-baseline reads η at RectPerChassis,
// smart-rectifier the staging scan's pick, and dc380 only the SIVOC
// input. Each value is the expression a lone chain would compute, with
// the same operands in the same order, so every chain's result is
// bit-identical to its own evaluation.
func evalChains(chains []ConversionChain, nodeOutW float64, dst []ChassisResult) {
	if nodeOutW <= 0 {
		clear(dst)
		return
	}
	c := &chains[0]
	sivocIn := nodeOutW / c.EtaSIVOC
	sivocLoss := sivocIn - nodeOutW
	g := rectGroup{c: c, busW: sivocIn}
	for k := range chains {
		r := ChassisResult{SivocLossW: sivocLoss}
		var eta float64
		switch chains[k].Mode {
		case DC380:
			in := sivocIn / chains[k].EtaDCDistribution
			r.RectLossW, r.InputW = in-sivocIn, in
			dst[k] = r
			continue
		case SmartRectifier:
			r.RectsActive, eta = g.smart()
		default:
			r.RectsActive, eta = c.RectPerChassis, g.full()
		}
		in := sivocIn / eta
		r.RectLossW, r.InputW = in-sivocIn, in
		dst[k] = r
	}
}

// rectGroup evaluates one chassis's rectifier group at bus load busW for
// evalChains, each efficiency at most once.
type rectGroup struct {
	c                 *ConversionChain
	busW              float64
	fullEta, smartEta float64
	smartN            int
	haveFull, staged  bool
}

// full returns η with every rectifier active.
func (g *rectGroup) full() float64 {
	if !g.haveFull {
		g.fullEta, g.haveFull = g.c.Rect.Eta(g.busW/float64(g.c.RectPerChassis)), true
	}
	return g.fullEta
}

// smart returns the number of active rectifiers that keeps per-unit
// load nearest the optimum while respecting the continuous rating, and
// η at that count. With no count within the rating it is every
// rectifier.
func (g *rectGroup) smart() (int, float64) {
	if g.staged {
		return g.smartN, g.smartEta
	}
	c := g.c
	best, bestEta, found := c.RectPerChassis, -1.0, false
	for n := 1; n <= c.RectPerChassis; n++ {
		per := g.busW / float64(n)
		if per > c.Rect.PMaxW {
			continue
		}
		var eta float64
		if n == c.RectPerChassis {
			eta = g.full()
		} else {
			eta = c.Rect.Eta(per)
		}
		if eta > bestEta {
			best, bestEta, found = n, eta, true
		}
	}
	if !found {
		bestEta = g.full()
	}
	g.smartN, g.smartEta, g.staged = best, bestEta, true
	return best, bestEta
}

// Topology captures the structural counts of Table I.
type Topology struct {
	NodesTotal      int
	NodesPerRack    int
	NodesPerChassis int
	ChassisPerRack  int
	SwitchesPerRack int
	RacksPerCDU     int
	NumCDUs         int
}

// FrontierTopology returns the Table I counts: 9472 nodes, 128 per rack
// (74 racks), 16 per chassis, 8 chassis and 32 switches per rack, 25 CDUs
// serving up to 3 racks each.
func FrontierTopology() Topology {
	return Topology{
		NodesTotal:      9472,
		NodesPerRack:    128,
		NodesPerChassis: 16,
		ChassisPerRack:  8,
		SwitchesPerRack: 32,
		RacksPerCDU:     3,
		NumCDUs:         25,
	}
}

// NumRacks returns the rack count implied by the node counts.
func (t Topology) NumRacks() int { return (t.NodesTotal + t.NodesPerRack - 1) / t.NodesPerRack }

// CDUOfRack maps a rack index to its cooling distribution unit.
func (t Topology) CDUOfRack(rack int) int {
	c := rack / t.RacksPerCDU
	if c >= t.NumCDUs {
		c = t.NumCDUs - 1
	}
	return c
}

// Validate checks internal consistency of the topology counts.
func (t Topology) Validate() error {
	if t.NodesTotal <= 0 || t.NodesPerRack <= 0 || t.NodesPerChassis <= 0 {
		return fmt.Errorf("power: non-positive node counts in topology")
	}
	if t.NodesPerRack%t.NodesPerChassis != 0 {
		return fmt.Errorf("power: nodes per rack (%d) not divisible by nodes per chassis (%d)",
			t.NodesPerRack, t.NodesPerChassis)
	}
	if t.NodesPerRack/t.NodesPerChassis != t.ChassisPerRack {
		return fmt.Errorf("power: chassis per rack mismatch: %d/%d != %d",
			t.NodesPerRack, t.NodesPerChassis, t.ChassisPerRack)
	}
	if t.NumCDUs <= 0 || t.RacksPerCDU <= 0 {
		return fmt.Errorf("power: non-positive CDU counts")
	}
	if t.NumCDUs*t.RacksPerCDU < t.NumRacks() {
		return fmt.Errorf("power: %d CDUs × %d racks cannot serve %d racks",
			t.NumCDUs, t.RacksPerCDU, t.NumRacks())
	}
	return nil
}

// Breakdown is the Fig. 4 power-contributor decomposition (watts).
type Breakdown struct {
	GPU, CPU, RAM, NVMe, NIC float64
	Switches                 float64
	RectLoss, SivocLoss      float64
	CDUPumps                 float64
}

// Total sums every contributor.
func (b Breakdown) Total() float64 {
	return b.GPU + b.CPU + b.RAM + b.NVMe + b.NIC + b.Switches + b.RectLoss + b.SivocLoss + b.CDUPumps
}

// SystemPower is the full accounting for one evaluation instant.
type SystemPower struct {
	TotalW       float64 // Psystem: everything including CDU pumps
	NodeOutW     float64 // Σ P_S48V over all nodes
	RectLossW    float64
	SivocLossW   float64
	SwitchW      float64
	CDUPumpW     float64
	PerCDUInputW []float64 // rack input power (incl. switches) per CDU
	// PerRackInputW is the input power per rack (incl. switches) — the
	// spatial heat-map channel (§III-A's "visualizing heat maps").
	PerRackInputW []float64
	Breakdown     Breakdown
}

// LossW returns total conversion loss (Eq. 2 summed over the system).
func (p *SystemPower) LossW() float64 { return p.RectLossW + p.SivocLossW }

// Efficiency returns η_system per Eq. 1 measured at the aggregate level:
// node output power divided by the power entering the conversion chain.
func (p *SystemPower) Efficiency() float64 {
	in := p.NodeOutW + p.RectLossW + p.SivocLossW
	if in <= 0 {
		return 0
	}
	return p.NodeOutW / in
}

// Model evaluates system power for a vector of per-node utilizations.
type Model struct {
	Spec  ComponentSpec
	Chain ConversionChain
	Topo  Topology
	// CoolingEff converts CDU electrical input power to the heat carried
	// into the liquid loop (0.945, §III-B2).
	CoolingEff float64
}

// NewFrontierModel assembles the as-published Frontier power model.
func NewFrontierModel() *Model {
	return &Model{
		Spec:       FrontierComponents(),
		Chain:      FrontierChain(),
		Topo:       FrontierTopology(),
		CoolingEff: 0.945,
	}
}

// Compute evaluates the whole system. cpuUtil and gpuUtil hold one entry
// per node (length Topo.NodesTotal); missing trailing entries are treated
// as idle. The result is written into out to allow reuse in the 1 Hz
// simulation loop without allocation.
func (m *Model) Compute(cpuUtil, gpuUtil []float64, out *SystemPower) {
	t := m.Topo
	numRacks := t.NumRacks()
	if cap(out.PerCDUInputW) < t.NumCDUs {
		out.PerCDUInputW = make([]float64, t.NumCDUs)
	}
	out.PerCDUInputW = out.PerCDUInputW[:t.NumCDUs]
	for i := range out.PerCDUInputW {
		out.PerCDUInputW[i] = 0
	}
	if cap(out.PerRackInputW) < numRacks {
		out.PerRackInputW = make([]float64, numRacks)
	}
	out.PerRackInputW = out.PerRackInputW[:numRacks]
	out.TotalW, out.NodeOutW, out.RectLossW, out.SivocLossW, out.SwitchW = 0, 0, 0, 0, 0
	out.Breakdown = Breakdown{}

	nodeIdle := m.Spec.NodeIdle()
	node := 0
	for rack := 0; rack < numRacks; rack++ {
		rackInput := 0.0
		for ch := 0; ch < t.ChassisPerRack; ch++ {
			chassisOut := 0.0
			for i := 0; i < t.NodesPerChassis && node < t.NodesTotal; i++ {
				var p float64
				if node < len(cpuUtil) && node < len(gpuUtil) {
					cu, gu := cpuUtil[node], gpuUtil[node]
					p = m.Spec.NodePower(cu, gu)
					m.accumulateComponents(cu, gu, &out.Breakdown)
				} else {
					p = nodeIdle
					m.accumulateComponents(0, 0, &out.Breakdown)
				}
				chassisOut += p
				node++
			}
			res := m.Chain.Chassis(chassisOut)
			out.NodeOutW += chassisOut
			out.RectLossW += res.RectLossW
			out.SivocLossW += res.SivocLossW
			rackInput += res.InputW
		}
		sw := float64(t.SwitchesPerRack) * m.Spec.Switch
		rackInput += sw
		out.SwitchW += sw
		out.PerRackInputW[rack] = rackInput
		out.PerCDUInputW[t.CDUOfRack(rack)] += rackInput
		out.TotalW += rackInput
	}
	out.CDUPumpW = float64(t.NumCDUs) * m.Spec.CDUPump
	out.TotalW += out.CDUPumpW
	out.Breakdown.Switches = out.SwitchW
	out.Breakdown.RectLoss = out.RectLossW
	out.Breakdown.SivocLoss = out.SivocLossW
	out.Breakdown.CDUPumps = out.CDUPumpW
}

func (m *Model) accumulateComponents(cu, gu float64, b *Breakdown) {
	cu, gu = clamp01(cu), clamp01(gu)
	b.CPU += m.Spec.CPUIdle + cu*(m.Spec.CPUMax-m.Spec.CPUIdle)
	b.GPU += float64(m.Spec.GPUsPerNode) * (m.Spec.GPUIdle + gu*(m.Spec.GPUMax-m.Spec.GPUIdle))
	b.RAM += m.Spec.RAM
	b.NVMe += float64(m.Spec.NVMePerNode) * m.Spec.NVMe
	b.NIC += float64(m.Spec.NICsPerNode) * m.Spec.NIC
}

// ComputeUniform evaluates the system with every node at the same
// utilization — the Table III verification shortcut.
func (m *Model) ComputeUniform(cpuUtil, gpuUtil float64, activeNodes int, out *SystemPower) {
	n := m.Topo.NodesTotal
	if activeNodes > n {
		activeNodes = n
	}
	cu := make([]float64, n)
	gu := make([]float64, n)
	for i := 0; i < activeNodes; i++ {
		cu[i] = cpuUtil
		gu[i] = gpuUtil
	}
	m.Compute(cu, gu, out)
}

// CDUHeatW converts the per-CDU electrical input into the heat load fed to
// the cooling model (input power × cooling efficiency, §III-B2).
func (m *Model) CDUHeatW(p *SystemPower) []float64 {
	return m.CDUHeatInto(p, nil)
}

// CDUHeatInto is the allocation-free variant of CDUHeatW for the 1 Hz
// simulation loop: dst is reused when it has capacity.
func (m *Model) CDUHeatInto(p *SystemPower, dst []float64) []float64 {
	if cap(dst) < len(p.PerCDUInputW) {
		dst = make([]float64, len(p.PerCDUInputW))
	}
	dst = dst[:len(p.PerCDUInputW)]
	for i, w := range p.PerCDUInputW {
		dst[i] = w * m.CoolingEff
	}
	return dst
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
