package exp

import (
	"math"
	"strings"
	"testing"

	"exadigit/internal/stats"
)

func TestTableI(t *testing.T) {
	tbl := TableI()
	out := tbl.String()
	for _, want := range []string{"Nodes Total", "9472", "Number of CDUs", "25", "8700"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestTableII(t *testing.T) {
	tbl, err := TableII()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "317") {
		t.Error("Table II should document the 317-output contract")
	}
}

// TestTableIII verifies the headline verification result: all three
// operating points within a few percent of the paper's telemetry.
func TestTableIII(t *testing.T) {
	tbl, rows, err := TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Our model matches the paper's RAPS predictions closely...
		if math.Abs(r.RAPSMW-r.PaperRAPSMW)/r.PaperRAPSMW > 0.015 {
			t.Errorf("%s: ours %v MW vs paper's RAPS %v MW", r.Name, r.RAPSMW, r.PaperRAPSMW)
		}
		// ...and therefore sits within ~5 % of the paper's telemetry
		// (the paper's own errors are 2.1-4.7 %).
		if r.ErrPct > 6 {
			t.Errorf("%s: %v %% error vs telemetry", r.Name, r.ErrPct)
		}
	}
	if !strings.Contains(tbl.String(), "Idle power") {
		t.Error("table text malformed")
	}
}

// TestFig4Shape verifies the breakdown: GPUs dominate with ≈21.2 MW and
// contributors sum to the 28.2 MW total.
func TestFig4Shape(t *testing.T) {
	tbl, rows := Fig4()
	if rows[0].Component != "GPUs" {
		t.Fatalf("first row = %q", rows[0].Component)
	}
	if math.Abs(rows[0].MW-21.2) > 0.2 {
		t.Errorf("GPU MW = %v, want ≈21.2", rows[0].MW)
	}
	if rows[0].Percent < 70 {
		t.Errorf("GPUs %v %% should dominate", rows[0].Percent)
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.MW
	}
	if math.Abs(sum-28.2) > 0.3 {
		t.Errorf("breakdown sums to %v MW, want ≈28.2", sum)
	}
	if !strings.Contains(tbl.String(), "Total") {
		t.Error("table missing total row")
	}
}

// TestTableIVShape runs a reduced multi-day study and checks the Table IV
// shape: average power in the mid-teens MW, losses ≈6-8 %, carbon
// consistent with Eq. 6.
func TestTableIVShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day study")
	}
	tbl, sum, err := TableIV(DailyConfig{Days: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if sum.PowerMW.Mean < 9 || sum.PowerMW.Mean > 24 {
		t.Errorf("avg power = %v MW, want Table IV's 10-23 band", sum.PowerMW.Mean)
	}
	if sum.LossPct.Mean < 5.5 || sum.LossPct.Mean > 8.5 {
		t.Errorf("loss %% = %v, want ≈6.7", sum.LossPct.Mean)
	}
	// Energy ≈ power × 24 h.
	if math.Abs(sum.EnergyMWh.Mean-sum.PowerMW.Mean*24)/sum.EnergyMWh.Mean > 0.01 {
		t.Errorf("energy %v MWh vs power %v MW", sum.EnergyMWh.Mean, sum.PowerMW.Mean)
	}
	// Carbon per Eq. 6 at η≈0.93: ≈0.414 t/MWh.
	ratio := sum.CO2Tons.Mean / sum.EnergyMWh.Mean
	if ratio < 0.39 || ratio < 0 || ratio > 0.43 {
		t.Errorf("CO2/energy = %v t/MWh, want ≈0.414", ratio)
	}
	// Daily variation present (min < max across days).
	if !(sum.PowerMW.Min < sum.PowerMW.Max) || sum.Jobs.Std == 0 {
		t.Error("daily statistics show no spread")
	}
	if !strings.Contains(tbl.String(), "Avg Power (MW)") {
		t.Error("table text malformed")
	}
}

func TestRunDaysValidation(t *testing.T) {
	if _, err := RunDays(DailyConfig{Days: 0}); err == nil {
		t.Error("zero days should fail")
	}
}

// TestFig7Shape: the validation errors should be small relative to the
// signal (the paper's "within reasonable bounds"; PUE within 1.4 %).
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("day-long cooling validation")
	}
	tbl, data, err := Fig7(Fig7Config{HorizonSec: 6 * 3600, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Channels) != 4 {
		t.Fatalf("%d channels", len(data.Channels))
	}
	for _, ch := range data.Channels {
		if len(ch.Predicted) != len(data.TimeSec) {
			t.Fatalf("%s: series length mismatch", ch.Name)
		}
	}
	// PUE within a few percent (paper: 1.4 %).
	pue := data.Channels[3]
	if pue.MAPE > 4 {
		t.Errorf("PUE MAPE = %v %%, want < 4", pue.MAPE)
	}
	// Flow prediction within ~15 % of the perturbed "physical" plant.
	flow := data.Channels[0]
	if flow.MAPE > 15 {
		t.Errorf("flow MAPE = %v %%", flow.MAPE)
	}
	// Return temperature within ~2 °C MAE.
	temp := data.Channels[1]
	if temp.MAE > 2.5 {
		t.Errorf("return temp MAE = %v °C", temp.MAE)
	}
	if !strings.Contains(tbl.String(), "PUE") {
		t.Error("table malformed")
	}
}

// TestFig8Shape: the benchmark square wave and thermal transient.
func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("cooled benchmark run")
	}
	tbl, data, err := Fig8(1800)
	if err != nil {
		t.Fatal(err)
	}
	// Idle ≈7.2 MW; HPL core ≈22.3 MW; OpenMxP slightly above HPL
	// (hotter GPUs).
	if math.Abs(data.IdlePowerMW-7.24) > 0.3 {
		t.Errorf("idle = %v MW", data.IdlePowerMW)
	}
	if math.Abs(data.HPLPowerMW-22.3) > 0.8 {
		t.Errorf("HPL core = %v MW", data.HPLPowerMW)
	}
	if data.OpenMxPPowerMW <= data.HPLPowerMW {
		t.Errorf("OpenMxP %v MW should exceed HPL %v MW", data.OpenMxPPowerMW, data.HPLPowerMW)
	}
	// The cooling loop feels the surge: return temperature rises by
	// multiple degrees and lags the power step.
	if data.TempRiseHPLC < 2 {
		t.Errorf("temp rise = %v °C, want > 2", data.TempRiseHPLC)
	}
	if !strings.Contains(tbl.String(), "HPL core") {
		t.Error("table malformed")
	}
}

// TestFig9Shape: the day contains the right workload mix and the
// prediction tracks the measured channel.
func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("24 h replay")
	}
	tbl, data, err := Fig9(Fig9Config{Seed: 7, HorizonSec: 6 * 3600})
	if err != nil {
		t.Fatal(err)
	}
	if data.TotalJobs < 100 {
		t.Errorf("only %d jobs in the window", data.TotalJobs)
	}
	frac := float64(data.SingleNode) / float64(data.TotalJobs)
	if frac < 0.2 || frac > 0.5 {
		t.Errorf("single-node fraction = %v, want ≈0.32", frac)
	}
	if data.HPLJobs != 4 {
		t.Errorf("HPL jobs = %d, want 4", data.HPLJobs)
	}
	// Prediction vs measured: only sensor noise separates them.
	if data.MAPEPercent > 2.5 {
		t.Errorf("MAPE = %v %%", data.MAPEPercent)
	}
	// η_cooling ≈ 0.93 and η_system ≈ 0.92-0.95 through the day.
	if m := stats.Mean(data.EtaCooling); m < 0.9 || m > 0.95 {
		t.Errorf("eta_cooling = %v", m)
	}
	if data.AvgEtaSystem < 0.92 || data.AvgEtaSystem > 0.95 {
		t.Errorf("eta_system = %v", data.AvgEtaSystem)
	}
	if !strings.Contains(tbl.String(), "HPL") {
		t.Error("table malformed")
	}
}

// TestWhatIfShapes: DC380 beats smart rectifiers by roughly the paper's
// factor (542k vs 120k ≈ 4.5×), efficiencies land near 97.3 % and the
// carbon drop is meaningful.
func TestWhatIfShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day what-if study")
	}
	_, smart, err := SmartRectifier(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	_, dc, err := DC380(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Both variants must save power.
	if smart.SavingMW <= 0 {
		t.Errorf("smart rectifier saving = %v MW", smart.SavingMW)
	}
	if dc.SavingMW <= smart.SavingMW {
		t.Errorf("DC380 (%v MW) should out-save smart staging (%v MW)", dc.SavingMW, smart.SavingMW)
	}
	// DC380 efficiency ≈97.3 %.
	if math.Abs(dc.VariantEta-0.973) > 0.004 {
		t.Errorf("DC380 η = %v", dc.VariantEta)
	}
	// Smart staging is a modest gain (paper: ≈0.1 %); ours is the same
	// order of magnitude.
	if smart.EtaGain <= 0 || smart.EtaGain > 0.02 {
		t.Errorf("smart η gain = %v", smart.EtaGain)
	}
	// Carbon: DC380 cuts ≈8 % (Eq. 6's 1/η amplification).
	if dc.CarbonReductionPct < 5 || dc.CarbonReductionPct > 11 {
		t.Errorf("DC380 carbon cut = %v %%, want ≈8.2", dc.CarbonReductionPct)
	}
	if dc.YearlySavingUSD <= 0 {
		t.Error("DC380 yearly saving should be positive")
	}
	// Who-wins factor: DC380 saving several times the smart-rectifier
	// saving (paper: ≈4.5×).
	if ratio := dc.YearlySavingUSD / math.Max(smart.YearlySavingUSD, 1); ratio < 2 {
		t.Errorf("DC380/smart saving ratio = %v, want ≳2", ratio)
	}
}

func TestAblationControlDt(t *testing.T) {
	if testing.Short() {
		t.Skip("plant sweep")
	}
	tbl, err := AblationControlDt([]float64{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if !strings.Contains(tbl.String(), "HTW return") {
		t.Error("table malformed")
	}
}

func TestAblationTickFaithful(t *testing.T) {
	if testing.Short() {
		t.Skip("two-tick comparison")
	}
	_, divergence, err := AblationTick(3600, 13)
	if err != nil {
		t.Fatal(err)
	}
	// The 15 s fast path must stay within 1 % of the 1 s reference.
	if divergence > 1.0 {
		t.Errorf("tick divergence = %v %%", divergence)
	}
}

func TestAblationCoolingCost(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled run")
	}
	_, ratio, err := AblationCoolingCost(3600, 13)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's ratio is ≈3× (9 min vs 3 min); ours must at least show
	// that coupling costs real time.
	if ratio < 1.5 {
		t.Errorf("cooling coupling ratio = %v, expected a clear cost", ratio)
	}
}

func TestAblationSchedulers(t *testing.T) {
	if testing.Short() {
		t.Skip("three policy runs")
	}
	_, reports, err := AblationSchedulers(2*3600, 21)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("policies = %d", len(reports))
	}
	// Backfill must not complete fewer jobs than plain FCFS on an
	// oversubscribed trace.
	if reports["easy"].JobsCompleted < reports["fcfs"].JobsCompleted {
		t.Errorf("easy %d < fcfs %d completed jobs",
			reports["easy"].JobsCompleted, reports["fcfs"].JobsCompleted)
	}
	for p, r := range reports {
		if r.AvgUtilization <= 0 {
			t.Errorf("%s: zero utilization", p)
		}
	}
}

func TestVirtualExpansionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point plant study")
	}
	tbl, res, err := VirtualExpansion(8, []float64{0, 4, 10}, 33.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Monotone stress: more secondary load warms the shared HTW loop and
	// degrades PUE headroom of the existing system.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].HTWSupplyC < res.Points[i-1].HTWSupplyC-0.05 {
			t.Errorf("HTW supply should not fall as secondary load grows: %+v", res.Points)
		}
	}
	// Zero secondary load must be supportable.
	if !res.Points[0].WithinSpec {
		t.Error("zero secondary load must be within spec")
	}
	if !strings.Contains(tbl.String(), "max supportable") {
		t.Error("table malformed")
	}
}

func TestWeatherCorrelationStrong(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day cooled run")
	}
	tbl, rGPU, err := WeatherCorrelation(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Under constant load, outdoor wet bulb should strongly drive the
	// loop and device temperatures (the use case's hypothesis).
	if rGPU < 0.6 {
		t.Errorf("wet-bulb/GPU-temp correlation = %v, want strong positive", rGPU)
	}
	if !strings.Contains(tbl.String(), "Pearson") {
		t.Error("table malformed")
	}
}
