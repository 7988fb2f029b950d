package core

import (
	"bytes"
	"testing"

	"exadigit/internal/obs"
)

// TestTwinMetricsReportCDUClasses checks that the cooling solver gauge
// carries the CDU class split of the last cooled run: solved plus shared
// covers every CDU of every control period, and a run whose CDUs start
// out on identical loads shares some of them.
func TestTwinMetricsReportCDUClasses(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Run(Scenario{
		Workload: WorkloadHPL, BenchmarkWallSec: 1800,
		HorizonSec: 3600, TickSec: 15, Cooling: true, WetBulbC: 18,
	}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	RegisterTwinMetrics(reg, tw)
	var buf bytes.Buffer
	if err := reg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	expo, err := obs.ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	fam := expo.Families["exadigit_cooling_solver_steps"]
	if fam == nil {
		t.Fatal("exadigit_cooling_solver_steps missing")
	}
	kinds := map[string]float64{}
	for _, s := range fam.Series {
		kinds[s.Labels["kind"]] = s.Value
	}
	st := tw.CoolingSolverStats()
	nCDU := float64(tw.Simulation().CoolingPlant().Config().NumCDUs)
	if kinds["cdu_solved"] != float64(st.CDUSolved) || kinds["cdu_shared"] != float64(st.CDUShared) {
		t.Errorf("gauge cdu_solved=%v cdu_shared=%v, stats %d/%d",
			kinds["cdu_solved"], kinds["cdu_shared"], st.CDUSolved, st.CDUShared)
	}
	if got, want := kinds["cdu_solved"]+kinds["cdu_shared"], kinds["control"]*nCDU; got != want || got == 0 {
		t.Errorf("solved+shared = %v CDU periods, want control steps × CDUs = %v", got, want)
	}
	if kinds["cdu_shared"] == 0 {
		t.Error("an HPL run shared no CDU solves")
	}
}
