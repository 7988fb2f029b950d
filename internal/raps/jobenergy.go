package raps

import "sort"

// JobEnergy is the per-job energy attribution of §III-A's first use case
// ("visualizing energy consumption on a per-job basis").
type JobEnergy struct {
	JobID     int
	Name      string
	NodeCount int
	// NodeEnergyMWh is the energy measured at the 48 V node input
	// (Eq. 1's P_S48V) integrated over the job's runtime.
	NodeEnergyMWh float64
	// FacilityEnergyMWh scales NodeEnergyMWh by the system-wide ratio of
	// facility energy to node-output energy, attributing each job its
	// proportional share of conversion losses, switches, and CDU pumps.
	FacilityEnergyMWh float64
	// CO2Tons and CostUSD price the facility share with the run's
	// emission factor and tariff.
	CO2Tons float64
	CostUSD float64
}

// trackJobEnergy accumulates one partition's per-job node-level energy
// each tick; called from Tick with the current utilizations already
// applied. Under the event engine the per-node power is read from the
// job's value slot in the power engine, so the Eq. 3 re-evaluation is
// skipped.
func (s *Simulation) trackJobEnergy(pt *partSim, dt float64) {
	if pt.jobEnergyJ == nil {
		pt.jobEnergyJ = make(map[int]float64)
	}
	for _, r := range pt.sch.Running() {
		var p float64
		if rs, ok := pt.runStates[r.ID]; ok {
			p = pt.inc.NodePower(rs.slot) * float64(r.NodeCount)
		} else {
			cu, gu := r.UtilAt(s.now - r.StartTime)
			p = pt.model.Spec.NodePower(cu, gu) * float64(r.NodeCount)
		}
		pt.jobEnergyJ[r.ID] += p * dt
	}
}

// JobEnergyReport returns every started job's attributed energy across
// all partitions, sorted by facility share descending, under the run's
// own conversion chain (view 0). The facility multiplier is the run-wide
// total energy divided by node-output energy, so per-job facility
// shares sum to the total minus the idle floor. Job
// IDs are per-partition namespaces; the twin layer offsets generated IDs
// so multi-partition reports stay unambiguous.
func (s *Simulation) JobEnergyReport() []JobEnergy {
	w := &s.views[0]
	mult := 1.0
	if w.nodeOutJ > 0 {
		mult = w.energyJ / w.nodeOutJ
	}
	ef := 0.0
	if w.convInJ > 0 {
		eta := w.nodeOutJ / w.convInJ
		if eta > 0 {
			ef = emissionIntensity / 2204.6 / eta
		}
	}
	var out []JobEnergy
	for _, pt := range s.parts {
		// Duplicate job IDs within a partition (replay datasets carry
		// IDs verbatim) share one energy bucket; emit it once, not once
		// per instance, so report rows still sum to the run total.
		seen := make(map[int]bool, len(pt.jobEnergyJ))
		add := func(id int, name string, nodes int) {
			if seen[id] {
				return
			}
			if joules, ok := pt.jobEnergyJ[id]; ok {
				seen[id] = true
				mwh := joules / 3.6e9
				fac := mwh * mult
				out = append(out, JobEnergy{
					JobID: id, Name: name, NodeCount: nodes,
					NodeEnergyMWh:     mwh,
					FacilityEnergyMWh: fac,
					CO2Tons:           fac * ef,
					CostUSD:           fac * electricityUSDPerMWh,
				})
			}
		}
		for _, j := range pt.completed {
			add(j.ID, j.Name, j.NodeCount)
		}
		for _, j := range pt.sch.Running() {
			add(j.ID, j.Name, j.NodeCount)
		}
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].FacilityEnergyMWh != out[k].FacilityEnergyMWh {
			return out[i].FacilityEnergyMWh > out[k].FacilityEnergyMWh
		}
		return out[i].JobID < out[k].JobID
	})
	return out
}

// TopConsumers returns the n largest jobs by facility energy.
func (s *Simulation) TopConsumers(n int) []JobEnergy {
	all := s.JobEnergyReport()
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}
