package cooling

// NoClassSharing puts every CDU of p in a class of its own, so each one's
// derivatives are computed — the reference a shared plant must match.
func NoClassSharing(p *Plant) { p.noShare = true }

// PackedState returns a copy of p's thermal state vector.
func PackedState(p *Plant) []float64 {
	y := make([]float64, p.Dim())
	p.packState(y)
	return y
}

// BitsFirstDiff is bitsFirstDiff for the external test package.
var BitsFirstDiff = bitsFirstDiff
