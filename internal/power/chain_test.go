package power

import (
	"math"
	"math/rand"
	"testing"
)

// refChassis is the conversion of one chassis as one chain evaluates it
// on its own, written out step by step: the reference the shared
// evaluation and ConversionChain.Chassis are pinned to.
func refChassis(c ConversionChain, nodeOutW float64) ChassisResult {
	var res ChassisResult
	if nodeOutW <= 0 {
		return res
	}
	sivocIn := nodeOutW / c.EtaSIVOC
	res.SivocLossW = sivocIn - nodeOutW
	switch c.Mode {
	case DC380:
		in := sivocIn / c.EtaDCDistribution
		res.RectLossW = in - sivocIn
		res.InputW = in
		return res
	case SmartRectifier:
		best, bestEta := c.RectPerChassis, -1.0
		for n := 1; n <= c.RectPerChassis; n++ {
			per := sivocIn / float64(n)
			if per > c.Rect.PMaxW {
				continue
			}
			if eta := c.Rect.Eta(per); eta > bestEta {
				best, bestEta = n, eta
			}
		}
		res.RectsActive = best
	default:
		res.RectsActive = c.RectPerChassis
	}
	eta := c.Rect.Eta(sivocIn / float64(res.RectsActive))
	in := sivocIn / eta
	res.RectLossW = in - sivocIn
	res.InputW = in
	return res
}

// validatedMaxW is the largest chassis output a spec that passes
// validation can reach: every node of the bounded system (100× Frontier's
// 9,472) in one chassis, each with 256 GPUs, NICs and NVMe drives and
// every part at the 14 kW ceiling.
const validatedMaxW = 100 * 9472 * (2 + 3*256) * 14000.0

// randomStages draws a chain's SIVOC efficiency, rectifier curve and
// rectifier count: Frontier's half the time, else random ones within
// validation's ranges.
func randomStages(rng *rand.Rand) ConversionChain {
	ch := FrontierChain()
	if rng.Intn(2) == 0 {
		return ch
	}
	ch.EtaSIVOC = 0.5 + 0.5*rng.Float64()
	ch.Rect.EtaMax = 0.8 + 0.2*rng.Float64()
	ch.Rect.LowDroop = 0.2 * rng.Float64()
	ch.Rect.HighDroop = 0.2 * rng.Float64()
	ch.Rect.POptW = 1000 + 19000*rng.Float64()
	ch.Rect.PMaxW = ch.Rect.POptW * (1 + 2*rng.Float64())
	ch.RectPerChassis = 1 + rng.Intn(64)
	return ch
}

// chassisOutputs returns the outputs the chains are checked at: zero of
// both signs, negatives, subnormals, the validated maximum, ±Inf and
// NaN, random loads up to a few chassis of Frontier nodes at peak, and
// the loads at which each chain's smart staging changes count (n
// rectifiers at their rating, behind the SIVOC stage) with their
// neighbouring floats.
func chassisOutputs(rng *rand.Rand, chains []ConversionChain) []float64 {
	out := []float64{
		0, math.Copysign(0, -1), -1, -1e300, 5e-324, 1e-310, math.SmallestNonzeroFloat64 * 3,
		validatedMaxW, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for i := 0; i < 16; i++ {
		out = append(out, 200000*rng.Float64())
	}
	for _, c := range chains {
		for n := 1; n <= c.RectPerChassis; n++ {
			edge := float64(n) * c.Rect.PMaxW * c.EtaSIVOC
			lo, hi := edge, edge
			for step := 0; step < 3; step++ {
				lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
				out = append(out, lo, hi)
			}
			out = append(out, edge)
		}
	}
	return out
}

func sameResult(a, b ChassisResult) bool {
	return math.Float64bits(a.InputW) == math.Float64bits(b.InputW) &&
		math.Float64bits(a.SivocLossW) == math.Float64bits(b.SivocLossW) &&
		math.Float64bits(a.RectLossW) == math.Float64bits(b.RectLossW) &&
		a.RectsActive == b.RectsActive
}

// TestSharedChainsMatchChassis is the shared evaluation's property: over
// random sets of one to four chains — repeated modes, each chain sharing
// the first's stages or drawing its own SIVOC efficiency, rectifier
// curve and rectifier count (1–64), and its own DC distribution
// efficiency — an engine's one evaluation of a chassis gives every chain
// what its own ConversionChain.Chassis gives, bit for bit in every field
// and in RectsActive, and Chassis gives what refChassis does.
func TestSharedChainsMatchChassis(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	topo := Topology{NodesTotal: 8, NodesPerRack: 8, NodesPerChassis: 8, ChassisPerRack: 1,
		SwitchesPerRack: 1, RacksPerCDU: 1, NumCDUs: 1}
	trials := 400
	if testing.Short() {
		trials = 80
	}
	shared := 0
	for trial := 0; trial < trials; trial++ {
		base := randomStages(rng)
		chains := make([]ConversionChain, 1+rng.Intn(4))
		for k := range chains {
			ch := base
			if rng.Intn(4) == 0 {
				ch = randomStages(rng)
			}
			ch.Mode = Mode(rng.Intn(3))
			ch.EtaDCDistribution = 0.9 + 0.1*rng.Float64()
			chains[k] = ch
		}
		m := NewFrontierModel()
		m.Topo = topo
		inc := m.NewIncrementalChains(chains)
		if inc.span > 1 {
			shared++
		}
		got := make([]ChassisResult, len(chains))
		for _, w := range chassisOutputs(rng, chains) {
			inc.convert(w, got)
			for k, c := range chains {
				one, ref := c.Chassis(w), refChassis(c, w)
				if !sameResult(one, ref) {
					t.Fatalf("trial %d chain %d (%+v) at %v W: Chassis %+v, reference %+v", trial, k, c, w, one, ref)
				}
				if !sameResult(got[k], one) {
					t.Fatalf("trial %d chain %d of %d (%+v, shared %v) at %v W: engine %+v, Chassis %+v",
						trial, k, len(chains), c, inc.span > 1, w, got[k], one)
				}
			}
		}
	}
	if shared < trials/4 {
		t.Fatalf("only %d of %d chain sets took the shared evaluation", shared, trials)
	}
}
