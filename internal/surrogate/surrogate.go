// Package surrogate implements the L3 (predictive) layer of the twin
// taxonomy (Fig. 2): data-driven models trained on L4 simulation output.
// The paper notes that first-principles simulations "are extrapolative
// and can be effectively used for virtual prototyping", but too slow for
// real time, and that "an alternative approach is to use the simulations
// to generate data to train a machine-learned surrogate model, which has
// the advantage of being able to run in real-time". This package does
// exactly that: a ridge-regression surrogate over polynomial features,
// trained on steady-state sweeps of the cooling plant, predicting PUE
// and auxiliary power from (heat load, wet-bulb) in nanoseconds.
package surrogate

import (
	"fmt"
	"slices"

	"exadigit/internal/cooling"
)

// PUESurrogate predicts PUE and auxiliary cooling power from the total
// heat load and the outdoor wet bulb: a 2-input Model with the targets
// pue and aux_mw.
type PUESurrogate struct {
	model *Model

	// TrainingPoints records the L4 samples the model was fitted on.
	TrainingPoints []TrainingPoint
}

// TrainingPoint is one simulated steady state.
type TrainingPoint struct {
	HeatMW   float64
	WetBulbC float64
	PUE      float64
	AuxMW    float64
}

// TrainPUESurrogate sweeps the plant over the (heat, wet-bulb) grid,
// settling at each point, and fits the surrogate on the results. The
// plant is reused across points (warm start) so the sweep is cheap.
// The grid needs at least two values per axis and at least
// Model.MinTrainRows (6) points in all.
func TrainPUESurrogate(cfg cooling.Config, heatsMW, wetBulbsC []float64) (*PUESurrogate, error) {
	if len(heatsMW) < 2 || len(wetBulbsC) < 2 {
		return nil, fmt.Errorf("surrogate: need at least a 2×2 grid, got %d×%d",
			len(heatsMW), len(wetBulbsC))
	}
	m, err := NewModel(
		[]float64{slices.Min(heatsMW), slices.Min(wetBulbsC)},
		[]float64{slices.Max(heatsMW), slices.Max(wetBulbsC)},
		[]string{"pue", "aux_mw"}, 1e-6)
	if err != nil {
		return nil, err
	}
	if n := len(heatsMW) * len(wetBulbsC); n < m.MinTrainRows() {
		return nil, fmt.Errorf("surrogate: a %d×%d grid has %d points, the fit needs %d",
			len(heatsMW), len(wetBulbsC), n, m.MinTrainRows())
	}
	plant, err := cooling.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &PUESurrogate{model: m}
	var X, Y [][]float64
	heat := make([]float64, cfg.NumCDUs)
	for _, wb := range wetBulbsC {
		for _, h := range heatsMW {
			for i := range heat {
				heat[i] = h * 1e6 / float64(cfg.NumCDUs)
			}
			in := cooling.Inputs{CDUHeatW: heat, WetBulbC: wb, ITPowerW: h * 1e6 / 0.945}
			if err := plant.SettleToSteadyState(in, 3*3600); err != nil {
				return nil, err
			}
			pt := TrainingPoint{
				HeatMW: h, WetBulbC: wb,
				PUE:   plant.PUE(),
				AuxMW: plant.AuxPowerW() / 1e6,
			}
			s.TrainingPoints = append(s.TrainingPoints, pt)
			X = append(X, []float64{h, wb})
			Y = append(Y, []float64{pt.PUE, pt.AuxMW})
		}
	}
	if err := m.Fit(X, Y); err != nil {
		return nil, err
	}
	return s, nil
}

// predict evaluates both targets at one operating point.
func (s *PUESurrogate) predict(heatMW, wetBulbC float64) ([]float64, error) {
	if s.model == nil {
		return nil, fmt.Errorf("surrogate: not trained")
	}
	return s.model.Predict([]float64{heatMW, wetBulbC})
}

// Predict returns the PUE estimate at the given operating point.
func (s *PUESurrogate) Predict(heatMW, wetBulbC float64) (float64, error) {
	y, err := s.predict(heatMW, wetBulbC)
	if err != nil {
		return 0, err
	}
	return y[0], nil
}

// PredictAuxMW returns the auxiliary-power estimate in MW.
func (s *PUESurrogate) PredictAuxMW(heatMW, wetBulbC float64) (float64, error) {
	y, err := s.predict(heatMW, wetBulbC)
	if err != nil {
		return 0, err
	}
	return y[1], nil
}

// R2 computes the coefficient of determination of the PUE model on its
// own training points (an upper bound on held-out skill; tests check
// held-out points separately).
func (s *PUESurrogate) R2() float64 {
	if len(s.TrainingPoints) == 0 {
		return 0
	}
	mean := 0.0
	for _, p := range s.TrainingPoints {
		mean += p.PUE
	}
	mean /= float64(len(s.TrainingPoints))
	var ssRes, ssTot float64
	for _, p := range s.TrainingPoints {
		pred, err := s.Predict(p.HeatMW, p.WetBulbC)
		if err != nil {
			return 0
		}
		ssRes += (p.PUE - pred) * (p.PUE - pred)
		ssTot += (p.PUE - mean) * (p.PUE - mean)
	}
	if ssTot == 0 {
		return 1
	}
	return 1 - ssRes/ssTot
}
