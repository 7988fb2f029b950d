package power

// Incremental is the event-driven evaluation engine for a Model. The
// dense Model.Compute sweeps every node and every chassis conversion
// chain on each call even though utilization is piecewise-constant — it
// only changes when a job starts, ends, or crosses a 15 s trace quantum.
// Incremental exploits that structure: per-chassis conversion results
// are cached, utilization updates mark the touched chassis dirty, and
// ComputeDelta re-evaluates only the dirty chassis before re-aggregating
// rack/CDU/system totals in exactly the summation order Compute uses. On
// Frontier-shaped topologies the headline fields (TotalW, NodeOutW,
// losses, per-rack and per-CDU inputs) are bit-identical to Compute; the
// Breakdown's CPU/GPU entries differ only by hierarchical-vs-flat
// summation rounding (≲1e-12 relative).
//
// State is kept per allocation, not per node. Each node holds a Slot, an
// index into a table of values (P_S48V and the CPU/GPU contributions
// feeding the Fig. 4 breakdown); slot 0 is the idle value every node
// starts on. Assign moves a job's nodes onto a fresh slot and records the
// chassis they landed in; Update rewrites that one value and marks only
// those chassis, so a trace-quantum crossing touches a job's chassis,
// not its nodes. A filler-free chassis whose nodes all hold one slot
// sums to a fixed left fold of that slot's value, so each slot memoises
// one such chassis's result and further uniform chassis copy it.
//
// The engine can evaluate several conversion chains in lockstep over
// the same slots (NewIncrementalChains): the slot values, dirty list,
// node-order folds and uniform memo sums are shared, and only the
// per-chassis conversion result, the re-aggregation and the SystemPower
// are kept per chain. Each chain's SystemPower is bit-identical to an
// engine built for that chain alone; NewIncremental is the one-chain
// case.
//
// A Slot returned by Assign is valid until its last node leaves it —
// released to idle, or moved onto another slot by a later Assign — after
// which the engine may hand the same Slot to a new allocation.
//
// The Model must not be mutated after NewIncremental — the engine caches
// component powers and the conversion chain. Compute remains the
// reference implementation; the equivalence is pinned by tests.
type Incremental struct {
	m *Model
	// chains are the conversion chains evaluated over the shared slots;
	// chain k's aggregates are sp[k].
	chains []ConversionChain

	// nodeSlot maps a node index to the slot holding its value;
	// nodeChassis maps it to its chassis.
	nodeSlot    []Slot
	nodeChassis []int32

	// vals is the slot table, indexed by Slot; slots holds each slot's
	// bookkeeping. They are kept apart so the node-order fold reads a
	// dense array.
	vals  []slotValue
	slots []slotState
	free  []Slot // released slots, reused before the table grows

	chassis   []chassisCache
	dirtyList []int
	// res[k][c] is chassis c's conversion result under chain k, and
	// memoRes[k][s] slot s's memo result under it.
	res     [][]ChassisResult
	memoRes [][]ChassisResult

	// chassisMark[c] == mark when chassis c is already on the chassis
	// list of the slot being assigned.
	chassisMark []uint64
	mark        uint64

	// Constant breakdown entries (independent of utilization), captured
	// from the seeding reference Compute so they match it bit-for-bit.
	ramW, nvmeW, nicW float64

	sp []SystemPower
}

// Slot identifies one value in an Incremental's slot table: the
// utilization every node of one allocation runs at.
type Slot int32

// slotValue is one node's Eq. 3 power and its CPU/GPU contributions.
type slotValue struct{ p, cpuW, gpuW float64 }

type slotState struct {
	refs int32 // nodes holding the slot (not tracked for idle slot 0)
	// chassis lists, once each, every chassis a node landed in when the
	// slot was assigned; Update marks exactly these dirty.
	chassis []int32
	// memo is one full uniform chassis's sums at the slot's value (its
	// conversion results in Incremental.memoRes), valid while memoOK;
	// cleared when the value changes or the slot is reused.
	memo   chassisSum
	memoOK bool
}

// chassisSum is one chassis's chain-independent evaluation: Σ P_S48V
// over its nodes and the breakdown contributions.
type chassisSum struct{ out, cpuW, gpuW float64 }

// chassisCache holds one chassis's cached evaluation. start/end bound the
// chassis's real nodes; filler counts the idle padding entries the dense
// loop processes for topologies whose node count is not a multiple of
// the chassis size (the cache replicates Compute's iteration exactly).
type chassisCache struct {
	start, end int
	filler     int
	dirty      bool
	chassisSum
}

// NewIncremental builds the engine for the model's own conversion
// chain, with every node idle and the cached state seeded from a
// reference Compute call.
func (m *Model) NewIncremental() *Incremental {
	return m.NewIncrementalChains([]ConversionChain{m.Chain})
}

// NewIncrementalChains builds the engine evaluating every chain in
// chains (at least one) over the model's components and topology; chain
// k's aggregates are PowerOf(k), each bit-identical to an engine of a
// model with that chain alone. The model's own Chain is used only when
// chains is empty.
func (m *Model) NewIncrementalChains(chains []ConversionChain) *Incremental {
	if len(chains) == 0 {
		chains = []ConversionChain{m.Chain}
	}
	t := m.Topo
	total := t.NodesTotal
	numChassis := t.NumRacks() * t.ChassisPerRack
	k := len(chains)
	inc := &Incremental{
		m:           m,
		chains:      append([]ConversionChain(nil), chains...),
		nodeSlot:    make([]Slot, total),
		nodeChassis: make([]int32, total),
		chassis:     make([]chassisCache, numChassis),
		chassisMark: make([]uint64, numChassis),
		res:         make([][]ChassisResult, k),
		memoRes:     make([][]ChassisResult, k),
		sp:          make([]SystemPower, k),
	}
	for j := range chains {
		inc.res[j] = make([]ChassisResult, numChassis)
		inc.memoRes[j] = make([]ChassisResult, 1)
	}
	inc.vals = []slotValue{inc.value(0, 0)}
	inc.slots = make([]slotState, 1)

	// Replicate Compute's slot iteration so chassis boundaries — including
	// the padded tail when NodesTotal is not chassis-aligned — match the
	// dense sweep exactly.
	cur := 0
	for c := range inc.chassis {
		start := cur
		for i := 0; i < t.NodesPerChassis; i++ {
			cur++
			if cur > total {
				break
			}
		}
		end := cur
		realStart, realEnd := start, end
		if realStart > total {
			realStart = total
		}
		if realEnd > total {
			realEnd = total
		}
		inc.chassis[c] = chassisCache{
			start:  realStart,
			end:    realEnd,
			filler: (end - start) - (realEnd - realStart),
		}
		for n := realStart; n < realEnd; n++ {
			inc.nodeChassis[n] = int32(c)
		}
	}
	for c := range inc.chassis {
		inc.refreshChassis(c)
	}

	// Seed the constant breakdown entries from the reference
	// implementation (they do not depend on the chain), then aggregate
	// incrementally so subsequent deltas are self-consistent.
	zero := make([]float64, total)
	m.Compute(zero, zero, &inc.sp[0])
	inc.ramW = inc.sp[0].Breakdown.RAM
	inc.nvmeW = inc.sp[0].Breakdown.NVMe
	inc.nicW = inc.sp[0].Breakdown.NIC
	inc.resum()
	return inc
}

// Power returns the first chain's live SystemPower. The pointer stays
// valid across ComputeDelta calls; slices within are reused, not
// reallocated.
func (inc *Incremental) Power() *SystemPower { return &inc.sp[0] }

// PowerOf returns chain k's live SystemPower, like Power.
func (inc *Incremental) PowerOf(k int) *SystemPower { return &inc.sp[k] }

// Dirty reports whether any utilization change is pending aggregation.
func (inc *Incremental) Dirty() bool { return len(inc.dirtyList) > 0 }

// value evaluates Eq. 3 and the breakdown contributions for one
// utilization pair.
func (inc *Incremental) value(cpuUtil, gpuUtil float64) slotValue {
	s := inc.m.Spec
	cu, gu := clamp01(cpuUtil), clamp01(gpuUtil)
	return slotValue{
		p:    s.NodePower(cpuUtil, gpuUtil),
		cpuW: s.CPUIdle + cu*(s.CPUMax-s.CPUIdle),
		gpuW: float64(s.GPUsPerNode) * (s.GPUIdle + gu*(s.GPUMax-s.GPUIdle)),
	}
}

// Assign moves a set of nodes — a job's allocation, where every node runs
// at the job's current trace sample — onto a fresh slot holding one
// utilization pair, evaluating Eq. 3 once for the whole set. A chassis is
// dirtied only where a node's value actually changes, once per run of
// nodes in it. Out-of-range and repeated indices are ignored; when no
// index is in range Assign returns the idle slot 0, which Update ignores.
func (inc *Incremental) Assign(nodes []int, cpuUtil, gpuUtil float64) Slot {
	s := inc.alloc(inc.value(cpuUtil, gpuUtil))
	inc.move(nodes, s)
	if inc.slots[s].refs == 0 {
		inc.release(s)
		return 0
	}
	return s
}

// Update sets slot s — every node still holding it — to a new utilization
// pair, marking only the chassis its nodes landed in. It touches no node.
// An unchanged value and the idle slot 0 are no-ops; a released slot has
// no chassis, so updating it marks nothing.
func (inc *Incremental) Update(s Slot, cpuUtil, gpuUtil float64) {
	if s == 0 {
		return
	}
	v := inc.value(cpuUtil, gpuUtil)
	if inc.vals[s] == v {
		return
	}
	inc.vals[s] = v
	sl := &inc.slots[s]
	sl.memoOK = false
	for _, c := range sl.chassis {
		inc.markDirty(int(c))
	}
}

// NodePower returns the Eq. 3 per-node power of slot s's current value.
func (inc *Incremental) NodePower(s Slot) float64 { return inc.vals[s].p }

// SetNodes applies one utilization pair to a set of nodes: Assign with the
// handle dropped.
func (inc *Incremental) SetNodes(nodes []int, cpuUtil, gpuUtil float64) {
	inc.Assign(nodes, cpuUtil, gpuUtil)
}

// SetNodesIdle resets a released allocation to idle (slot 0).
func (inc *Incremental) SetNodesIdle(nodes []int) { inc.move(nodes, 0) }

// alloc takes a slot from the free list, or grows the table, and sets
// its value.
func (inc *Incremental) alloc(v slotValue) Slot {
	var s Slot
	if k := len(inc.free); k > 0 {
		s = inc.free[k-1]
		inc.free = inc.free[:k-1]
	} else {
		s = Slot(len(inc.slots))
		inc.vals = append(inc.vals, slotValue{})
		inc.slots = append(inc.slots, slotState{})
		for k := range inc.memoRes {
			inc.memoRes[k] = append(inc.memoRes[k], ChassisResult{})
		}
	}
	inc.vals[s] = v
	return s
}

// release returns a slot no node holds to the free list.
func (inc *Incremental) release(s Slot) {
	sl := &inc.slots[s]
	sl.chassis = sl.chassis[:0]
	sl.memoOK = false
	inc.free = append(inc.free, s)
}

// move puts nodes on slot s, releasing every slot its last node leaves,
// and records on s's chassis list each chassis a node lands in.
func (inc *Incremental) move(nodes []int, s Slot) {
	inc.mark++
	to := &inc.slots[s]
	lastDirty := int32(-1)
	for _, n := range nodes {
		if n < 0 || n >= len(inc.nodeSlot) {
			continue
		}
		from := inc.nodeSlot[n]
		if from == s {
			continue
		}
		inc.nodeSlot[n] = s
		c := inc.nodeChassis[n]
		if c != lastDirty && inc.vals[from] != inc.vals[s] {
			inc.markDirty(int(c))
			lastDirty = c
		}
		if from != 0 {
			if inc.slots[from].refs--; inc.slots[from].refs == 0 {
				inc.release(from)
			}
		}
		if s != 0 {
			to.refs++
			if inc.chassisMark[c] != inc.mark {
				inc.chassisMark[c] = inc.mark
				to.chassis = append(to.chassis, c)
			}
		}
	}
}

func (inc *Incremental) markDirty(c int) {
	if !inc.chassis[c].dirty {
		inc.chassis[c].dirty = true
		inc.dirtyList = append(inc.dirtyList, c)
	}
}

// ComputeDelta re-evaluates the dirty chassis and refreshes every
// chain's aggregates, returning the first chain's live SystemPower. With
// no pending changes it returns the cached result untouched — the O(1)
// fast path for ticks where utilization did not move.
func (inc *Incremental) ComputeDelta() *SystemPower {
	if len(inc.dirtyList) == 0 {
		return &inc.sp[0]
	}
	for _, c := range inc.dirtyList {
		inc.refreshChassis(c)
	}
	inc.dirtyList = inc.dirtyList[:0]
	inc.resum()
	return &inc.sp[0]
}

// refreshChassis re-evaluates one chassis. A filler-free chassis whose
// nodes all hold one slot copies that slot's memo (filling it if empty);
// any other chassis is folded node by node.
func (inc *Incremental) refreshChassis(c int) {
	cc := &inc.chassis[c]
	cc.dirty = false
	nodes := inc.nodeSlot[cc.start:cc.end]
	if cc.filler == 0 && uniform(nodes) {
		s := nodes[0]
		sl := &inc.slots[s]
		if !sl.memoOK {
			sl.memo = inc.fold(nodes, 0)
			for k := range inc.chains {
				inc.memoRes[k][s] = inc.chains[k].Chassis(sl.memo.out)
			}
			sl.memoOK = true
		}
		cc.chassisSum = sl.memo
		for k, memo := range inc.memoRes {
			inc.res[k][c] = memo[s]
		}
		return
	}
	cc.chassisSum = inc.fold(nodes, cc.filler)
	for k := range inc.chains {
		inc.res[k][c] = inc.chains[k].Chassis(cc.out)
	}
}

// uniform reports whether a non-empty run of nodes all hold one slot.
func uniform(nodes []Slot) bool {
	if len(nodes) == 0 {
		return false
	}
	for _, s := range nodes[1:] {
		if s != nodes[0] {
			return false
		}
	}
	return true
}

// fold sums the nodes' values in node order, then filler idle values —
// Compute's left fold.
func (inc *Incremental) fold(nodes []Slot, filler int) chassisSum {
	vals := inc.vals
	var out, cpuW, gpuW float64
	for _, s := range nodes {
		v := &vals[s]
		out += v.p
		cpuW += v.cpuW
		gpuW += v.gpuW
	}
	idle := &vals[0]
	for k := 0; k < filler; k++ {
		out += idle.p
		cpuW += idle.cpuW
		gpuW += idle.gpuW
	}
	return chassisSum{out, cpuW, gpuW}
}

// resum rebuilds every chain's aggregates from the per-chassis caches
// in one pass, in the same rack-major order Compute uses, so each
// chain's rack, CDU, and system totals carry identical rounding to the
// dense sweep under that chain. The chain-independent sums (node
// output, switches, CPU/GPU) are taken once and shared.
func (inc *Incremental) resum() {
	m := inc.m
	t := m.Topo
	numRacks := t.NumRacks()
	for k := range inc.sp {
		out := &inc.sp[k]
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
	}

	// Each chain sums in Compute's rack-major order, so it rounds as
	// Compute does under that chain. The chain-independent sums ride on
	// the first chain's pass: a pass of their own would add its own chain
	// of dependent additions, slowing the one-chain engine.
	sw := float64(t.SwitchesPerRack) * m.Spec.Switch
	cpr := t.ChassisPerRack
	var nodeOut, switchW, cpuW, gpuW float64
	for j := range inc.sp {
		out, chassis, res := &inc.sp[j], inc.chassis, inc.res[j]
		var rect, sivoc, total float64
		for rack := 0; rack < numRacks; rack++ {
			rc, rr := chassis[rack*cpr:rack*cpr+cpr], res[rack*cpr:rack*cpr+cpr]
			rackInput := 0.0
			for c := range rc {
				if j == 0 {
					cc := &rc[c]
					nodeOut += cc.out
					cpuW += cc.cpuW
					gpuW += cc.gpuW
				}
				r := &rr[c]
				rect += r.RectLossW
				sivoc += r.SivocLossW
				rackInput += r.InputW
			}
			rackInput += sw
			if j == 0 {
				switchW += sw
			}
			out.PerRackInputW[rack] = rackInput
			out.PerCDUInputW[t.CDUOfRack(rack)] += rackInput
			total += rackInput
		}
		pumps := float64(t.NumCDUs) * m.Spec.CDUPump
		out.NodeOutW, out.SwitchW, out.CDUPumpW = nodeOut, switchW, pumps
		out.TotalW, out.RectLossW, out.SivocLossW = total+pumps, rect, sivoc
		out.Breakdown = Breakdown{
			CPU: cpuW, GPU: gpuW,
			RAM: inc.ramW, NVMe: inc.nvmeW, NIC: inc.nicW,
			Switches: switchW,
			RectLoss: rect, SivocLoss: sivoc,
			CDUPumps: pumps,
		}
	}
}
