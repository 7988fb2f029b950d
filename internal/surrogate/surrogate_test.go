package surrogate

import (
	"math"
	"testing"

	"exadigit/internal/cooling"
	"exadigit/internal/la"
)

func TestRidgeExactOnLinearData(t *testing.T) {
	// y = 3 + 2a − b over exact features: OLS recovers the coefficients.
	var X [][]float64
	var y []float64
	for a := 0.0; a < 4; a++ {
		for b := 0.0; b < 4; b++ {
			X = append(X, []float64{1, a, b})
			y = append(y, 3+2*a-b)
		}
	}
	w, err := ridgeFit(X, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -1}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-9 {
			t.Errorf("w[%d] = %v, want %v", i, w[i], want[i])
		}
	}
	if got := la.Dot(w, []float64{1, 2, 1}); math.Abs(got-6) > 1e-9 {
		t.Errorf("predict = %v, want 6", got)
	}
}

func TestRidgeRegularizationShrinks(t *testing.T) {
	X := [][]float64{{1, 1}, {1, 2}, {1, 3}}
	y := []float64{2, 4, 6}
	ols, err := ridgeFit(X, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := ridgeFit(X, y, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(reg[1]) >= math.Abs(ols[1]) {
		t.Errorf("ridge slope %v should shrink below OLS %v", reg[1], ols[1])
	}
}

func TestRidgeValidation(t *testing.T) {
	if _, err := ridgeFit(nil, nil, 0); err == nil {
		t.Error("empty fit should fail")
	}
	if _, err := ridgeFit([][]float64{{1, 2}}, []float64{1, 2}, 0); err == nil {
		t.Error("row/target mismatch should fail")
	}
	if _, err := ridgeFit([][]float64{{1, 2}, {1}}, []float64{1, 2}, 0); err == nil {
		t.Error("ragged rows should fail")
	}
	if _, err := ridgeFit([][]float64{{}}, []float64{1}, 0); err == nil {
		t.Error("zero-width features should fail")
	}
}

func TestPUESurrogateTrainsAndGeneralizes(t *testing.T) {
	if testing.Short() {
		t.Skip("plant sweep")
	}
	s, err := TrainPUESurrogate(cooling.Frontier(),
		[]float64{6, 12, 18, 24},
		[]float64{8, 16, 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.TrainingPoints) != 12 {
		t.Fatalf("training points = %d", len(s.TrainingPoints))
	}
	// The fit must explain the training sweep.
	if r2 := s.R2(); r2 < 0.9 {
		t.Errorf("R² = %v on the training sweep", r2)
	}
	// Held-out point: simulate the true plant at an off-grid operating
	// point and compare.
	plant, err := cooling.New(cooling.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	heat := make([]float64, 25)
	for i := range heat {
		heat[i] = 15e6 / 25
	}
	in := cooling.Inputs{CDUHeatW: heat, WetBulbC: 18, ITPowerW: 15e6 / 0.945}
	if err := plant.SettleToSteadyState(in, 3*3600); err != nil {
		t.Fatal(err)
	}
	truth := plant.PUE()
	pred, err := s.Predict(15, 18)
	if err != nil {
		t.Fatal(err)
	}
	// Pinned float64 bits: the quadratic features, their normalization
	// and the ridge solve together fix these numbers, so any change to
	// one of them shows here first.
	if got, want := math.Float64bits(pred), uint64(0x3ff0910ec5c4772c); got != want {
		t.Errorf("Predict(15, 18) bits %#x, want %#x", got, want)
	}
	if math.Abs(pred-truth) > 0.01 {
		t.Errorf("held-out PUE: surrogate %v vs plant %v", pred, truth)
	}
	aux, err := s.PredictAuxMW(15, 18)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := math.Float64bits(aux), uint64(0x3fe3ad61e4083cac); got != want {
		t.Errorf("PredictAuxMW(15, 18) bits %#x, want %#x", got, want)
	}
	if math.Abs(aux-plant.AuxPowerW()/1e6) > 0.12 {
		t.Errorf("held-out aux: surrogate %v MW vs plant %v MW", aux, plant.AuxPowerW()/1e6)
	}
	// Physical sanity: warmer weather degrades PUE.
	cool, _ := s.Predict(15, 8)
	warm, _ := s.Predict(15, 26)
	if warm <= cool {
		t.Errorf("PUE should worsen with wet bulb: %v vs %v", warm, cool)
	}
}

func TestPUESurrogateValidation(t *testing.T) {
	if _, err := TrainPUESurrogate(cooling.Frontier(), []float64{10}, []float64{20}); err == nil {
		t.Error("1×1 grid should fail")
	}
	// 4 points cannot determine the 6 quadratic features; the grid is
	// rejected before any plant is settled.
	if _, err := TrainPUESurrogate(cooling.Frontier(), []float64{10, 20}, []float64{15, 25}); err == nil {
		t.Error("2×2 grid should fail")
	}
	var s PUESurrogate
	if _, err := s.Predict(10, 20); err == nil {
		t.Error("untrained predict should fail")
	}
	if _, err := s.PredictAuxMW(10, 20); err == nil {
		t.Error("untrained aux predict should fail")
	}
}

func BenchmarkSurrogatePredict(b *testing.B) {
	// The L3 value proposition: inference in nanoseconds vs seconds of
	// L4 simulation. The PUESurrogate's model shape, fitted on a
	// synthetic 4×3 response surface so no plant is settled.
	m, err := NewModel([]float64{5, 5}, []float64{25, 25}, []string{"pue", "aux_mw"}, 1e-6)
	if err != nil {
		b.Fatal(err)
	}
	var X, Y [][]float64
	for _, h := range []float64{5, 12, 18, 25} {
		for _, wb := range []float64{5, 15, 25} {
			X = append(X, []float64{h, wb})
			Y = append(Y, []float64{1.04 + 0.0005*h + 0.001*wb, 0.3 + 0.02*h + 0.01*wb})
		}
	}
	if err := m.Fit(X, Y); err != nil {
		b.Fatal(err)
	}
	x := []float64{15, 18}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := m.Predict(x); err != nil {
			b.Fatal(err)
		}
	}
}
