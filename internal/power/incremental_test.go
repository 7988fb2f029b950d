package power

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// relDiff returns |a-b| / max(|a|,|b|,1).
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	m := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return d / m
}

func assertSystemPowerClose(t *testing.T, step int, want, got *SystemPower, tol float64) {
	t.Helper()
	check := func(name string, a, b float64) {
		t.Helper()
		if relDiff(a, b) > tol {
			t.Fatalf("step %d: %s: dense %v vs incremental %v (rel %v)", step, name, a, b, relDiff(a, b))
		}
	}
	check("TotalW", want.TotalW, got.TotalW)
	check("NodeOutW", want.NodeOutW, got.NodeOutW)
	check("RectLossW", want.RectLossW, got.RectLossW)
	check("SivocLossW", want.SivocLossW, got.SivocLossW)
	check("SwitchW", want.SwitchW, got.SwitchW)
	check("CDUPumpW", want.CDUPumpW, got.CDUPumpW)
	check("Breakdown.CPU", want.Breakdown.CPU, got.Breakdown.CPU)
	check("Breakdown.GPU", want.Breakdown.GPU, got.Breakdown.GPU)
	check("Breakdown.RAM", want.Breakdown.RAM, got.Breakdown.RAM)
	check("Breakdown.NVMe", want.Breakdown.NVMe, got.Breakdown.NVMe)
	check("Breakdown.NIC", want.Breakdown.NIC, got.Breakdown.NIC)
	check("Breakdown.Total", want.Breakdown.Total(), got.Breakdown.Total())
	if len(want.PerRackInputW) != len(got.PerRackInputW) {
		t.Fatalf("step %d: rack count %d vs %d", step, len(want.PerRackInputW), len(got.PerRackInputW))
	}
	for i := range want.PerRackInputW {
		check("PerRackInputW", want.PerRackInputW[i], got.PerRackInputW[i])
	}
	for i := range want.PerCDUInputW {
		check("PerCDUInputW", want.PerCDUInputW[i], got.PerCDUInputW[i])
	}
}

// TestIncrementalMatchesCompute drives a random sequence of job-shaped
// utilization updates through both the dense reference Compute and the
// incremental ComputeDelta, asserting every aggregate agrees to 1e-9
// relative at every step (§ISSUE acceptance; in practice agreement is
// ≲1e-12, and bit-exact for the non-breakdown fields).
func TestIncrementalMatchesCompute(t *testing.T) {
	for _, mode := range []Mode{ACBaseline, SmartRectifier, DC380} {
		m := NewFrontierModel()
		m.Chain.Mode = mode
		inc := m.NewIncremental()
		rng := rand.New(rand.NewSource(42))
		n := m.Topo.NodesTotal

		cpu := make([]float64, n)
		gpu := make([]float64, n)
		var ref SystemPower

		type alloc struct {
			nodes []int
		}
		var live []alloc
		for step := 0; step < 60; step++ {
			if len(live) > 0 && rng.Float64() < 0.3 {
				// Release a random allocation.
				k := rng.Intn(len(live))
				a := live[k]
				live = append(live[:k], live[k+1:]...)
				inc.SetNodesIdle(a.nodes)
				for _, nd := range a.nodes {
					cpu[nd], gpu[nd] = 0, 0
				}
			} else {
				// Start a job on a random contiguous-ish node set with a
				// single utilization pair (how RAPS drives the model).
				count := 1 + rng.Intn(800)
				start := rng.Intn(n)
				cu, gu := rng.Float64(), rng.Float64()
				nodes := make([]int, 0, count)
				for i := 0; i < count; i++ {
					nodes = append(nodes, (start+i)%n)
				}
				inc.SetNodes(nodes, cu, gu)
				for _, nd := range nodes {
					cpu[nd], gpu[nd] = cu, gu
				}
				live = append(live, alloc{nodes: nodes})
			}
			got := inc.ComputeDelta()
			m.Compute(cpu, gpu, &ref)
			assertSystemPowerClose(t, step, &ref, got, 1e-9)

			// Heat vectors agree too (per-CDU channel of the issue).
			wantHeat := m.CDUHeatW(&ref)
			gotHeat := m.CDUHeatInto(got, nil)
			for i := range wantHeat {
				if relDiff(wantHeat[i], gotHeat[i]) > 1e-9 {
					t.Fatalf("mode %v step %d: CDU %d heat %v vs %v", mode, step, i, wantHeat[i], gotHeat[i])
				}
			}
		}
	}
}

// TestIncrementalNoOpDelta pins the O(1) fast path: with no pending
// changes ComputeDelta returns the cached state unchanged.
func TestIncrementalNoOpDelta(t *testing.T) {
	m := NewFrontierModel()
	inc := m.NewIncremental()
	nodes := []int{0, 1, 2, 100, 5000}
	inc.SetNodes(nodes, 0.5, 0.8)
	first := *inc.ComputeDelta()
	if inc.Dirty() {
		t.Fatal("engine still dirty after ComputeDelta")
	}
	// Re-applying identical utilization must not dirty anything.
	inc.SetNodes(nodes, 0.5, 0.8)
	if inc.Dirty() {
		t.Fatal("identical utilization re-application dirtied the engine")
	}
	second := inc.ComputeDelta()
	if first.TotalW != second.TotalW || first.NodeOutW != second.NodeOutW {
		t.Fatalf("no-op delta changed totals: %v vs %v", first.TotalW, second.TotalW)
	}
}

// TestIncrementalUnalignedTopology covers node counts that do not fill
// the final chassis (the Setonix-style partitions), where the dense loop
// pads with idle filler slots.
func TestIncrementalUnalignedTopology(t *testing.T) {
	m := NewFrontierModel()
	m.Topo = Topology{
		NodesTotal:      1592, // 12.4 racks — last chassis partial
		NodesPerRack:    128,
		NodesPerChassis: 16,
		ChassisPerRack:  8,
		SwitchesPerRack: 32,
		RacksPerCDU:     3,
		NumCDUs:         5,
	}
	if err := m.Topo.Validate(); err != nil {
		t.Fatal(err)
	}
	inc := m.NewIncremental()
	n := m.Topo.NodesTotal
	cpu := make([]float64, n)
	gpu := make([]float64, n)
	rng := rand.New(rand.NewSource(9))
	var ref SystemPower
	for step := 0; step < 20; step++ {
		count := 1 + rng.Intn(300)
		start := rng.Intn(n)
		cu, gu := rng.Float64(), rng.Float64()
		nodes := make([]int, 0, count)
		for i := 0; i < count; i++ {
			nodes = append(nodes, (start+i)%n)
		}
		inc.SetNodes(nodes, cu, gu)
		for _, nd := range nodes {
			cpu[nd], gpu[nd] = cu, gu
		}
		got := inc.ComputeDelta()
		m.Compute(cpu, gpu, &ref)
		assertSystemPowerClose(t, step, &ref, got, 1e-9)
	}
}

// TestSetNodesOutOfRange: indices outside the machine are ignored, not
// panicked on (defensive parity with Compute's bounds handling).
func TestSetNodesOutOfRange(t *testing.T) {
	m := NewFrontierModel()
	inc := m.NewIncremental()
	before := inc.Power().TotalW
	inc.SetNodes([]int{-1, m.Topo.NodesTotal, m.Topo.NodesTotal + 5}, 1, 1)
	if inc.Dirty() {
		t.Fatal("out-of-range nodes dirtied the engine")
	}
	if got := inc.ComputeDelta().TotalW; got != before {
		t.Fatalf("total changed: %v vs %v", got, before)
	}
}

// choices is the stream of decisions that drives one slot-engine
// operation sequence: a seeded rand in the property test, the fuzzer's
// bytes in FuzzIncrementalMatchesCompute.
type choices interface {
	// intn returns a value in [0, n).
	intn(n int) int
}

type randChoices struct{ *rand.Rand }

func (r randChoices) intn(n int) int { return r.Intn(n) }

// slotTopologies are the machines the slot-engine checks run on:
// Frontier; a chassis-aligned machine whose last rack is short, so its
// tail chassis are all filler; and one whose last chassis is partial.
func slotTopologies() []Topology {
	return []Topology{
		FrontierTopology(),
		{NodesTotal: 200, NodesPerRack: 32, NodesPerChassis: 8, ChassisPerRack: 4,
			SwitchesPerRack: 4, RacksPerCDU: 2, NumCDUs: 4},
		{NodesTotal: 1592, NodesPerRack: 128, NodesPerChassis: 16, ChassisPerRack: 8,
			SwitchesPerRack: 32, RacksPerCDU: 3, NumCDUs: 5},
	}
}

// slotHandle is the harness's record of one allocation: the Slot the
// engine returned, the utilization it was last given, and how many nodes
// still hold it. Anonymous handles come from SetNodes, which drops the
// Slot, so they are never updated.
type slotHandle struct {
	slot   Slot
	cu, gu float64
	refs   int
	named  bool
}

// slotHarness drives an Incremental and a reference per-node
// utilization vector through the same operations and checks the engine
// against Compute on that vector.
type slotHarness struct {
	t testing.TB
	m *Model
	// models holds one model per chain the engine evaluates, each the
	// reference Compute runs under for that chain.
	models   []*Model
	inc      *Incremental
	cpu, gpu []float64
	owner    []int        // per node: index into handles, 0 = idle
	handles  []slotHandle // handles[0] is the idle placeholder
	ref      SystemPower
	steps    int
	// live counts the handles some node holds; peak is its maximum.
	live, peak int
}

// newSlotHarness builds the harness for an engine evaluating one chain
// per mode in modes, in lockstep; one mode is the plain NewIncremental
// engine.
func newSlotHarness(t testing.TB, topo Topology, modes ...Mode) *slotHarness {
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	var models []*Model
	var chains []ConversionChain
	for _, mode := range modes {
		m := NewFrontierModel()
		m.Topo = topo
		m.Chain.Mode = mode
		models = append(models, m)
		chains = append(chains, m.Chain)
	}
	m := models[0]
	inc := m.NewIncremental()
	if len(modes) > 1 {
		inc = m.NewIncrementalChains(chains)
	}
	n := topo.NodesTotal
	return &slotHarness{
		t: t, m: m, models: models, inc: inc,
		cpu: make([]float64, n), gpu: make([]float64, n),
		owner: make([]int, n), handles: make([]slotHandle, 1),
	}
}

// util draws a utilization: out-of-range values the engine clamps, a
// coarse grid that makes equal values across allocations common, or a
// fine one.
func util(c choices) float64 {
	switch k := c.intn(24); {
	case k < 4:
		return []float64{-0.5, 0, 1, 1.5}[k]
	case k < 12:
		return float64(k-4) / 8
	default:
		return float64(c.intn(1<<16)) / (1<<16 - 1)
	}
}

// nodeSet draws an allocation: a wrapping run, a chassis-aligned run,
// scattered nodes, or only out-of-range indices; sometimes with repeated
// and out-of-range indices.
func (h *slotHarness) nodeSet(c choices) []int {
	n := h.m.Topo.NodesTotal
	var nodes []int
	switch c.intn(4) {
	case 0:
		start, count := c.intn(n), 1+c.intn(min(n, 800))
		for i := 0; i < count; i++ {
			nodes = append(nodes, (start+i)%n)
		}
	case 1:
		per := h.m.Topo.NodesPerChassis
		start := c.intn(n) / per * per
		end := min(n, start+per*(1+c.intn(8)))
		for i := start; i < end; i++ {
			nodes = append(nodes, i)
		}
	case 2:
		for count := 1 + c.intn(64); count > 0; count-- {
			nodes = append(nodes, c.intn(n))
		}
	default:
		nodes = []int{-1 - c.intn(n), n + c.intn(n)}
	}
	if c.intn(4) == 0 {
		nodes = append(nodes, -1, n, n+7)
	}
	if c.intn(4) == 0 {
		nodes = append(nodes, nodes[c.intn(len(nodes))])
	}
	return nodes
}

// place records that nodes now hold handle id (0 = idle) at (cu, gu).
func (h *slotHarness) place(nodes []int, id int, cu, gu float64) {
	for _, nd := range nodes {
		if nd < 0 || nd >= len(h.owner) || h.owner[nd] == id {
			continue
		}
		if o := h.owner[nd]; o != 0 {
			if h.handles[o].refs--; h.handles[o].refs == 0 {
				h.live--
			}
		}
		if id != 0 {
			if h.handles[id].refs++; h.handles[id].refs == 1 {
				h.live++
			}
		}
		h.owner[nd] = id
		h.cpu[nd], h.gpu[nd] = cu, gu
	}
	h.peak = max(h.peak, h.live)
}

// liveNamed returns the named handles some node still holds.
func (h *slotHarness) liveNamed() []int {
	var ids []int
	for id := 1; id < len(h.handles); id++ {
		if h.handles[id].named && h.handles[id].refs > 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// step applies one operation drawn from c, then, most of the time,
// checks the engine.
func (h *slotHarness) step(c choices) {
	inc := h.inc
	switch op := c.intn(6); op {
	case 0, 1: // Assign, or SetNodes (Assign with the handle dropped)
		nodes, cu, gu := h.nodeSet(c), util(c), util(c)
		hd := slotHandle{cu: cu, gu: gu, named: op == 0}
		if hd.named {
			hd.slot = inc.Assign(nodes, cu, gu)
		} else {
			inc.SetNodes(nodes, cu, gu)
		}
		h.handles = append(h.handles, hd)
		id := len(h.handles) - 1
		h.place(nodes, id, cu, gu)
		if hd.named && (h.handles[id].refs == 0) != (hd.slot == 0) {
			h.t.Fatalf("step %d: Assign of %d in-range nodes returned slot %d", h.steps, h.handles[id].refs, hd.slot)
		}
	case 2:
		nodes := h.nodeSet(c)
		inc.SetNodesIdle(nodes)
		h.place(nodes, 0, 0, 0)
	case 3, 4: // Update to a new value, or to the current one
		ids := h.liveNamed()
		if len(ids) == 0 {
			return
		}
		id := ids[c.intn(len(ids))]
		hd := &h.handles[id]
		cu, gu := hd.cu, hd.gu
		if op == 3 {
			cu, gu = util(c), util(c)
		}
		wasDirty := inc.Dirty()
		inc.Update(hd.slot, cu, gu)
		if !wasDirty && inc.value(cu, gu) == inc.value(hd.cu, hd.gu) && inc.Dirty() {
			h.t.Fatalf("step %d: Update to an unchanged value dirtied the engine", h.steps)
		}
		hd.cu, hd.gu = cu, gu
		for nd, o := range h.owner {
			if o == id {
				h.cpu[nd], h.gpu[nd] = cu, gu
			}
		}
	default: // Update of the idle slot is a no-op
		wasDirty := inc.Dirty()
		inc.Update(0, util(c), util(c))
		if !wasDirty && inc.Dirty() {
			h.t.Fatalf("step %d: Update of the idle slot dirtied the engine", h.steps)
		}
	}
	h.steps++
	if c.intn(3) != 0 {
		h.check()
	}
}

// check compares every chain of the engine with Compute under that
// chain's model on the reference vector and checks the slot table's
// bookkeeping.
func (h *slotHarness) check() {
	t, inc := h.t, h.inc
	if got := inc.ComputeDelta(); got != inc.Power() {
		t.Fatalf("step %d: ComputeDelta returned another SystemPower than Power", h.steps)
	}
	if inc.Dirty() {
		t.Fatalf("step %d: engine still dirty after ComputeDelta", h.steps)
	}
	for k, m := range h.models {
		m.Compute(h.cpu, h.gpu, &h.ref)
		h.checkChain(k, &h.ref, inc.PowerOf(k))
	}
	h.checkSlots()
}

// checkChain compares chain k's aggregates with the reference: the
// headline fields bit for bit, the CPU/GPU breakdown to 1e-9 relative.
func (h *slotHarness) checkChain(k int, want, got *SystemPower) {
	t := h.t
	within := func(name string, a, b, tol float64) {
		t.Helper()
		if relDiff(a, b) > tol {
			t.Fatalf("step %d: chain %d: %s: dense %v vs incremental %v", h.steps, k, name, a, b)
		}
	}
	exact := func(name string, a, b float64) {
		t.Helper()
		if a != b {
			t.Fatalf("step %d: chain %d: %s: dense %v vs incremental %v", h.steps, k, name, a, b)
		}
	}
	exact("TotalW", want.TotalW, got.TotalW)
	exact("NodeOutW", want.NodeOutW, got.NodeOutW)
	exact("RectLossW", want.RectLossW, got.RectLossW)
	exact("SivocLossW", want.SivocLossW, got.SivocLossW)
	exact("SwitchW", want.SwitchW, got.SwitchW)
	exact("CDUPumpW", want.CDUPumpW, got.CDUPumpW)
	for i := range want.PerRackInputW {
		exact("PerRackInputW", want.PerRackInputW[i], got.PerRackInputW[i])
	}
	for i := range want.PerCDUInputW {
		exact("PerCDUInputW", want.PerCDUInputW[i], got.PerCDUInputW[i])
	}
	within("Breakdown.CPU", want.Breakdown.CPU, got.Breakdown.CPU, 1e-9)
	within("Breakdown.GPU", want.Breakdown.GPU, got.Breakdown.GPU, 1e-9)
	exact("Breakdown.RectLoss", want.Breakdown.RectLoss, got.Breakdown.RectLoss)
	exact("Breakdown.SivocLoss", want.Breakdown.SivocLoss, got.Breakdown.SivocLoss)
}

// checkSlots checks the slot table's bookkeeping against the harness's
// allocations.
func (h *slotHarness) checkSlots() {
	t, inc := h.t, h.inc

	// Every live allocation owns a distinct slot carrying its Eq. 3
	// power. The table holds exactly the live slots plus released ones
	// on the free list, and grows past the peak live count only by the
	// slot an Assign takes before its nodes leave their old slots.
	seen := make(map[Slot]bool)
	for _, hd := range h.handles[1:] {
		if hd.refs == 0 || !hd.named {
			continue
		}
		if hd.slot <= 0 || seen[hd.slot] {
			t.Fatalf("step %d: live allocation holds slot %d (shared or idle)", h.steps, hd.slot)
		}
		seen[hd.slot] = true
		onList := make(map[int32]bool)
		for _, c := range inc.slots[hd.slot].chassis {
			if onList[c] {
				t.Fatalf("step %d: slot %d lists chassis %d twice", h.steps, hd.slot, c)
			}
			onList[c] = true
		}
		if p := inc.NodePower(hd.slot); p != h.m.Spec.NodePower(hd.cu, hd.gu) {
			t.Fatalf("step %d: slot %d node power %v, want %v", h.steps, hd.slot, p, h.m.Spec.NodePower(hd.cu, hd.gu))
		}
	}
	if held := len(inc.slots) - 1 - len(inc.free); held != h.live {
		t.Fatalf("step %d: %d slots held, %d allocations live", h.steps, held, h.live)
	}
	if len(inc.slots) > h.peak+2 {
		t.Fatalf("step %d: slot table grew to %d with at most %d allocations live: released slots not reused",
			h.steps, len(inc.slots), h.peak)
	}
}

// TestIncrementalSlotsMatchCompute drives random Assign, Update,
// SetNodes and SetNodesIdle sequences — overlapping assigns that steal
// nodes from live slots, slot reuse after release, repeated and
// out-of-range indices — through the slot engine on three topologies and
// every Mode, checking the headline fields bit for bit against Compute
// and the CPU/GPU breakdown to 1e-9 relative.
func TestIncrementalSlotsMatchCompute(t *testing.T) {
	steps := 300
	if testing.Short() {
		steps = 60
	}
	for ti, topo := range slotTopologies() {
		for _, mode := range []Mode{ACBaseline, SmartRectifier, DC380} {
			h := newSlotHarness(t, topo, mode)
			c := randChoices{rand.New(rand.NewSource(int64(17*ti) + int64(mode)))}
			for i := 0; i < steps; i++ {
				h.step(c)
			}
			// Release everything: check then finds no slot held.
			all := make([]int, topo.NodesTotal)
			for i := range all {
				all[i] = i
			}
			h.inc.SetNodesIdle(all)
			h.place(all, 0, 0, 0)
			h.check()
		}
	}
}

// TestIncrementalChainsMatchCompute drives the same random operation
// sequences through engines that evaluate several conversion chains in
// lockstep — all three modes, two, and a repeated mode — and checks
// every chain against Compute under its own model, as the one-chain
// property test does.
func TestIncrementalChainsMatchCompute(t *testing.T) {
	steps := 200
	if testing.Short() {
		steps = 40
	}
	sets := [][]Mode{
		{ACBaseline, SmartRectifier, DC380},
		{DC380, ACBaseline},
		{SmartRectifier, SmartRectifier, ACBaseline},
	}
	for ti, topo := range slotTopologies() {
		for si, modes := range sets {
			h := newSlotHarness(t, topo, modes...)
			c := randChoices{rand.New(rand.NewSource(int64(31*ti + si)))}
			for i := 0; i < steps; i++ {
				h.step(c)
			}
			h.check()
		}
	}
}

func BenchmarkDenseCompute(b *testing.B) {
	m := NewFrontierModel()
	n := m.Topo.NodesTotal
	cpu := make([]float64, n)
	gpu := make([]float64, n)
	for i := range cpu {
		cpu[i], gpu[i] = 0.5, 0.7
	}
	var out SystemPower
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Compute(cpu, gpu, &out)
	}
}

// BenchmarkIncrementalDelta measures a representative event tick: one
// 268-node job (the Table IV average) crosses a trace quantum. chains=1
// is the engine of one power mode; chains=3 evaluates the three modes in
// lockstep over the same slots, the case to compare with three solo
// deltas.
func BenchmarkIncrementalDelta(b *testing.B) {
	for _, k := range []int{1, 3} {
		b.Run(fmt.Sprintf("chains=%d", k), func(b *testing.B) {
			m := NewFrontierModel()
			inc := m.NewIncrementalChains(modeChains(m.Chain)[:k])
			nodes := make([]int, 268)
			for i := range nodes {
				nodes[i] = i
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := 0.3 + 0.4*float64(i%2)
				inc.SetNodes(nodes, u, u)
				inc.ComputeDelta()
			}
		})
	}
}

// modeChains returns chain under each Mode, in Mode order.
func modeChains(chain ConversionChain) []ConversionChain {
	var out []ConversionChain
	for _, mode := range []Mode{ACBaseline, SmartRectifier, DC380} {
		chain.Mode = mode
		out = append(out, chain)
	}
	return out
}

// BenchmarkIncrementalUpdate measures the same tick through the slot
// API: the job's allocation holds one slot, and the quantum crossing
// rewrites that one value with Update.
func BenchmarkIncrementalUpdate(b *testing.B) {
	m := NewFrontierModel()
	inc := m.NewIncremental()
	nodes := make([]int, 268)
	for i := range nodes {
		nodes[i] = i
	}
	s := inc.Assign(nodes, 0.7, 0.7)
	inc.ComputeDelta()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := 0.3 + 0.4*float64(i%2)
		inc.Update(s, u, u)
		inc.ComputeDelta()
	}
}
