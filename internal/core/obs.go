package core

import (
	"strconv"

	"exadigit/internal/cooling"
	"exadigit/internal/obs"
)

// CoolingSolverStats returns the most recent run's plant thermal-solver
// accounting (zero before any run or when cooling was disabled) —
// shorthand for Simulation().CoolingSolverStats() that stays nil-safe.
func (tw *Twin) CoolingSolverStats() cooling.SolverStats {
	sim, _ := tw.currentRun()
	if sim == nil {
		return cooling.SolverStats{}
	}
	return sim.CoolingSolverStats()
}

// RegisterTwinMetrics attaches the live twin's last-run gauges to a
// metrics registry: facility power (total and per partition), PUE,
// utilization, scheduler queue depth, and the cooling solver's work
// accounting. Everything is collected at scrape time from the most
// recent run's final sample — registration adds zero work to the tick
// path, which is what keeps the /metrics overhead on a simulation run
// unmeasurable.
func RegisterTwinMetrics(reg *obs.Registry, tw *Twin) {
	reg.GaugeFunc("exadigit_twin_power_watts",
		"Facility power at the most recent run's last sample.",
		func() float64 { return tw.Status().PowerMW * 1e6 })
	reg.GaugeFunc("exadigit_twin_loss_watts",
		"Rectification/distribution losses at the most recent run's last sample.",
		func() float64 { return tw.Status().LossMW * 1e6 })
	reg.GaugeFunc("exadigit_twin_pue",
		"Power usage effectiveness at the most recent run's last sample.",
		func() float64 { return tw.Status().PUE })
	reg.GaugeFunc("exadigit_twin_utilization",
		"Node utilization at the most recent run's last sample.",
		func() float64 { return tw.Status().Utilization })
	reg.GaugeFunc("exadigit_twin_jobs_running",
		"Jobs running at the most recent run's last sample.",
		func() float64 { return float64(tw.Status().JobsRunning) })
	reg.GaugeFunc("exadigit_twin_jobs_pending",
		"Jobs pending at the most recent run's last sample.",
		func() float64 { return float64(tw.Status().JobsPending) })
	reg.VecFunc(obs.KindGauge, "exadigit_twin_partition_power_watts",
		"Per-partition power at the most recent run's last sample.",
		[]string{"partition"},
		func(emit func([]string, float64)) {
			for i, mw := range tw.Status().PartPowerMW {
				emit([]string{strconv.Itoa(i)}, mw*1e6)
			}
		})
	reg.GaugeFunc("exadigit_cooling_quiescent_fraction",
		"Share of the most recent cooled run fast-forwarded through equilibrium holds.",
		func() float64 { return tw.CoolingSolverStats().QuiescentFraction() })
	reg.VecFunc(obs.KindGauge, "exadigit_cooling_solver_steps",
		"Cooling thermal-solver work for the most recent run, by step kind.",
		[]string{"kind"},
		func(emit func([]string, float64)) {
			st := tw.CoolingSolverStats()
			emit([]string{"accepted"}, float64(st.Accepted))
			emit([]string{"rejected"}, float64(st.Rejected))
			emit([]string{"control"}, float64(st.ControlSteps))
			emit([]string{"holds"}, float64(st.Holds))
			emit([]string{"cdu_solved"}, float64(st.CDUSolved))
			emit([]string{"cdu_shared"}, float64(st.CDUShared))
		})
}
