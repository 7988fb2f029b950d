package power

import "testing"

// byteChoices reads decisions from fuzz input, a byte per 256 choices;
// past the end every choice is 0.
type byteChoices []byte

func (b *byteChoices) intn(n int) int {
	v := 0
	for need := n - 1; need > 0; need >>= 8 {
		v <<= 8
		if len(*b) > 0 {
			v |= int((*b)[0])
			*b = (*b)[1:]
		}
	}
	return v % n
}

// FuzzIncrementalMatchesCompute decodes arbitrary bytes into a topology,
// a Mode and a sequence of Assign, Update, SetNodes and SetNodesIdle
// operations, and checks the slot engine against Compute after them as
// TestIncrementalSlotsMatchCompute does. It must never panic. The seed
// corpus under testdata/fuzz holds recorded random sequences on both
// small machines in every Mode, and the empty input.
func FuzzIncrementalMatchesCompute(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := byteChoices(data)
		// The two small machines keep an execution cheap; Frontier runs
		// in the property test.
		topos := slotTopologies()[1:]
		topo := topos[c.intn(len(topos))]
		h := newSlotHarness(t, topo, Mode(c.intn(3)))
		for i := 0; i < 64 && len(c) > 0; i++ {
			h.step(&c)
		}
		h.check()
	})
}

// FuzzIncrementalChainsMatchCompute is FuzzIncrementalMatchesCompute
// for an engine evaluating one to three conversion chains in lockstep
// (modes drawn from the input, repeats allowed): every chain must match
// Compute under its own mode's model after the operations. The seed
// corpus under testdata/fuzz holds recorded sequences on both small
// machines with two and three chains, and the empty input.
func FuzzIncrementalChainsMatchCompute(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := byteChoices(data)
		topos := slotTopologies()[1:]
		topo := topos[c.intn(len(topos))]
		modes := make([]Mode, 1+c.intn(3))
		for k := range modes {
			modes[k] = Mode(c.intn(3))
		}
		h := newSlotHarness(t, topo, modes...)
		for i := 0; i < 64 && len(c) > 0; i++ {
			h.step(&c)
		}
		h.check()
	})
}
