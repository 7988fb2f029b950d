package anomaly

import (
	"strings"
	"testing"

	"exadigit/internal/cooling"
)

func typicalInputs() cooling.Inputs {
	heat := make([]float64, 25)
	for i := range heat {
		heat[i] = 16e6 / 25
	}
	return cooling.Inputs{CDUHeatW: heat, WetBulbC: 20, ITPowerW: 16.9e6}
}

func settledPlant(t *testing.T) *cooling.Plant {
	t.Helper()
	p, err := cooling.New(cooling.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SettleToSteadyState(typicalInputs(), 2*3600); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestHealthyPlantRaisesNoAlarms(t *testing.T) {
	p := settledPlant(t)
	d := NewDetector()
	for i := 0; i < 20; i++ {
		if err := p.Step(15, typicalInputs()); err != nil {
			t.Fatal(err)
		}
		if alarms := d.CheckCooling(p.Snapshot(), p.Time()); len(alarms) != 0 {
			t.Fatalf("healthy plant alarmed: %v", alarms)
		}
	}
}

// TestBlockageDetection is the §III-A failure-injection scenario: fouling
// one CDU's blade loops must trip the flow-deviation rule on exactly that
// CDU.
func TestBlockageDetection(t *testing.T) {
	p := settledPlant(t)
	// 2.5× loop resistance ≈ heavy biological growth; flow drops ≈37 %
	// even after the pump PID pushes back.
	if err := p.InjectSecondaryFouling(7, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := p.Step(600, typicalInputs()); err != nil {
		t.Fatal(err)
	}
	d := NewDetector()
	alarms := d.CheckCooling(p.Snapshot(), p.Time())
	var flowAlarms []Alarm
	for _, a := range alarms {
		if a.Kind == KindFlowLow {
			flowAlarms = append(flowAlarms, a)
		}
	}
	if len(flowAlarms) != 1 {
		t.Fatalf("want exactly 1 flow alarm, got %v", alarms)
	}
	if flowAlarms[0].Subject != "cdu[8]" { // CDU index 7 → 1-based name
		t.Errorf("alarm on %s, want cdu[8]", flowAlarms[0].Subject)
	}
	if !strings.Contains(flowAlarms[0].String(), "secondary-flow-low") {
		t.Errorf("alarm string: %s", flowAlarms[0])
	}
}

func TestFoulingValidation(t *testing.T) {
	p := settledPlant(t)
	if err := p.InjectSecondaryFouling(99, 2); err == nil {
		t.Error("out-of-range CDU should fail")
	}
	if err := p.InjectSecondaryFouling(0, 0.5); err == nil {
		t.Error("factor < 1 should fail")
	}
}

// TestBlockageThermalConsequences: a fouled CDU under heavy load holds
// its supply setpoint (the control valve compensates) but runs a much
// hotter secondary return, and its blades — starved of flow — cross the
// throttle early-warning line. This is the full §III-A diagnostic chain.
func TestBlockageThermalConsequences(t *testing.T) {
	p := settledPlant(t)
	cleanFlow := p.Snapshot().CDUs[3].SecondaryFlowM3s
	if err := p.InjectSecondaryFouling(3, 6); err != nil {
		t.Fatal(err)
	}
	in := typicalInputs()
	in.CDUHeatW[3] = 1.3e6 // hot CDU with blocked loops
	if err := p.Step(3600, in); err != nil {
		t.Fatal(err)
	}
	o := p.Snapshot()
	blocked := o.CDUs[3]
	peer := o.CDUs[10]
	// The control valve keeps the supply near setpoint...
	if blocked.SecSupplyTempC > 36 {
		t.Errorf("supply temp = %v, valve should mostly compensate", blocked.SecSupplyTempC)
	}
	// ...but the return runs far hotter than the peers'.
	if blocked.SecReturnTempC < peer.SecReturnTempC+8 {
		t.Errorf("blocked return %v °C should far exceed peer %v °C",
			blocked.SecReturnTempC, peer.SecReturnTempC)
	}
	// Blade-level: per-device flow scales with the CDU flow ratio; the
	// starved blades trip the throttle early warning at full GPU power.
	d := NewDetector()
	flowRatio := blocked.SecondaryFlowM3s / cleanFlow
	if flowRatio > 0.6 {
		t.Fatalf("fouling barely reduced flow: ratio %v", flowRatio)
	}
	// Blockage concentrates in specific blades (§III-A: "blockage to
	// specific nodes"); the worst blade sees a small fraction of the
	// already-reduced CDU flow.
	perDevice := plateFlowM3s * flowRatio * 0.12
	a, hit := d.CheckThrottle("cdu[4]/blade[12]/gpu[2]", 560, blocked.SecSupplyTempC, perDevice, p.Time())
	if !hit {
		t.Errorf("starved blade should be at throttle risk (flow ratio %v)", flowRatio)
	} else if a.Value <= throttleLimitC-throttleMarginC {
		t.Errorf("alarm value %v below warning line", a.Value)
	}
}

func TestSupplyTempRuleRequiresPersistence(t *testing.T) {
	d := NewDetector()
	o := &cooling.Outputs{CDUs: make([]cooling.CDUOutputs, 2)}
	for i := range o.CDUs {
		o.CDUs[i].SecondaryFlowM3s = 0.029
		o.CDUs[i].SecSupplyTempC = 32
	}
	// A short spike (< hold steps) must not alarm.
	o.CDUs[0].SecSupplyTempC = 36
	for i := 0; i < 3; i++ {
		for _, a := range d.CheckCooling(o, float64(i*15)) {
			if a.Kind == KindSupplyTempHigh {
				t.Fatal("alarmed before hold elapsed")
			}
		}
	}
	o.CDUs[0].SecSupplyTempC = 32 // recovers: counter resets
	d.CheckCooling(o, 60)
	o.CDUs[0].SecSupplyTempC = 36
	count := 0
	for i := 0; i < 12; i++ {
		for _, a := range d.CheckCooling(o, float64(100+i*15)) {
			if a.Kind == KindSupplyTempHigh {
				count++
			}
		}
	}
	if count != 1 {
		t.Errorf("sustained excursion should alarm exactly once, got %d", count)
	}
}

func TestPUERule(t *testing.T) {
	d := NewDetector()
	o := &cooling.Outputs{CDUs: make([]cooling.CDUOutputs, 1), PUE: 1.15}
	o.CDUs[0].SecondaryFlowM3s = 0.029
	o.CDUs[0].SecSupplyTempC = 32
	found := false
	for _, a := range d.CheckCooling(o, 0) {
		if a.Kind == KindPUEHigh {
			found = true
		}
	}
	if !found {
		t.Error("PUE 1.15 should alarm at limit 1.10")
	}
}

func TestThrottleDetection(t *testing.T) {
	d := NewDetector()
	// Nominal GPU: 560 W at 32 °C coolant, design flow → no risk.
	if _, hit := d.CheckThrottle("gpu[0]", 560, 32, 0, 0); hit {
		t.Error("nominal GPU should not be at risk")
	}
	// Same GPU behind a badly blocked plate (~1/17 flow): device temp
	// blows past the early-warning line.
	a, hit := d.CheckThrottle("gpu[0]", 560, 32, 0.07e-5, 100)
	if !hit {
		t.Fatal("blocked plate should trip throttle risk")
	}
	if a.Kind != KindThrottleRisk || a.Value < 90 {
		t.Errorf("alarm = %+v", a)
	}
	// Hot coolant alone can also trip it.
	if _, hit := d.CheckThrottle("gpu[1]", 560, 78, 0, 0); !hit {
		t.Error("hot coolant should trip the early warning")
	}
}

func TestMedianHelpers(t *testing.T) {
	if median(nil) != 0 {
		t.Error("empty median")
	}
	if median([]float64{3, 1, 2}) != 2 {
		t.Error("odd median")
	}
	if median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("even median")
	}
}
