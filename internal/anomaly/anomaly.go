// Package anomaly implements rule-based health monitoring for the
// digital twin, covering the §III-A forensic/diagnostic use cases:
// detecting blade-level coolant blockage from biological growth (flow
// deviation across CDU peers), early detection of thermal throttling
// (cold-plate device-temperature estimates), and sustained
// temperature-setpoint violations. The rule-based style follows the
// tier-0 HPC anomaly detection the paper cites for Marconi100.
package anomaly

import (
	"fmt"
	"sort"

	"exadigit/internal/cooling"
	"exadigit/internal/thermal"
)

// Kind classifies an alarm.
type Kind string

// Alarm kinds.
const (
	// KindFlowLow flags a CDU whose secondary flow has fallen below its
	// peers — the blockage signature (§III-A: "blockage to specific
	// nodes ... can these types of blockages be detected?").
	KindFlowLow Kind = "secondary-flow-low"
	// KindSupplyTempHigh flags a sustained secondary-supply excursion
	// above setpoint.
	KindSupplyTempHigh Kind = "secondary-supply-high"
	// KindThrottleRisk flags device temperatures near the throttling
	// limit (§III-A: "early detection of thermal throttling").
	KindThrottleRisk Kind = "thermal-throttle-risk"
	// KindPUEHigh flags facility-efficiency degradation.
	KindPUEHigh Kind = "pue-high"
)

// Alarm is one detected condition.
type Alarm struct {
	Kind      Kind
	Subject   string // e.g. "cdu[7]"
	Value     float64
	Threshold float64
	TimeSec   float64
}

// String renders the alarm for logs.
func (a Alarm) String() string {
	return fmt.Sprintf("[%s] %s: %.3f (threshold %.3f) at t=%.0fs",
		a.Kind, a.Subject, a.Value, a.Threshold, a.TimeSec)
}

// Frontier-appropriate detector thresholds.
const (
	// flowDeviationFrac flags a CDU whose secondary flow is below
	// (1 − frac) × the peer median.
	flowDeviationFrac = 0.15
	// supplySetpointC is the secondary supply setpoint; a supply
	// supplyTempMarginC above it trips the temperature rule after
	// supplyTempHoldSteps consecutive violations (2 min at the 15 s
	// step).
	supplySetpointC     = 32.0
	supplyTempMarginC   = 2.0
	supplyTempHoldSteps = 8
	// pueLimit trips the facility-efficiency rule.
	pueLimit = 1.10
	// throttleLimitC is the device junction limit and throttleMarginC
	// the early-warning margin below it.
	throttleLimitC  = 95.0
	throttleMarginC = 5.0
	// plateFlowM3s is the per-device coolant allocation at design.
	plateFlowM3s = 1.2e-5
)

// plate is the cold-plate conduction model used for device-temperature
// estimates.
var plate = thermal.ColdPlate{RConduction: 0.010, RConvNom: 0.012, QNominal: 1.2e-5}

// Detector evaluates the rules over successive cooling snapshots with
// fixed Frontier-appropriate thresholds.
type Detector struct {
	tempHolds []int // consecutive over-temperature steps per CDU
}

// NewDetector builds a detector.
func NewDetector() *Detector { return &Detector{} }

// CheckCooling evaluates the flow, temperature, and PUE rules against one
// cooling snapshot taken at simulation time tSec.
func (d *Detector) CheckCooling(o *cooling.Outputs, tSec float64) []Alarm {
	var alarms []Alarm
	n := len(o.CDUs)
	if d.tempHolds == nil {
		d.tempHolds = make([]int, n)
	}

	// Rule 1 — flow deviation from the peer median (blockage signature):
	// under identical pump-speed control every healthy CDU settles at
	// nearly the same secondary flow.
	flows := make([]float64, n)
	for i := range o.CDUs {
		flows[i] = o.CDUs[i].SecondaryFlowM3s
	}
	med := median(flows)
	if med > 0 {
		for i, q := range flows {
			limit := med * (1 - flowDeviationFrac)
			if q < limit {
				alarms = append(alarms, Alarm{
					Kind: KindFlowLow, Subject: fmt.Sprintf("cdu[%d]", i+1),
					Value: q, Threshold: limit, TimeSec: tSec,
				})
			}
		}
	}

	// Rule 2 — sustained secondary-supply temperature excursion.
	for i := range o.CDUs {
		if o.CDUs[i].SecSupplyTempC > supplySetpointC+supplyTempMarginC {
			d.tempHolds[i]++
		} else {
			d.tempHolds[i] = 0
		}
		if d.tempHolds[i] == supplyTempHoldSteps {
			alarms = append(alarms, Alarm{
				Kind: KindSupplyTempHigh, Subject: fmt.Sprintf("cdu[%d]", i+1),
				Value:     o.CDUs[i].SecSupplyTempC,
				Threshold: supplySetpointC + supplyTempMarginC,
				TimeSec:   tSec,
			})
		}
	}

	// Rule 3 — facility efficiency.
	if o.PUE > pueLimit {
		alarms = append(alarms, Alarm{
			Kind: KindPUEHigh, Subject: "facility",
			Value: o.PUE, Threshold: pueLimit, TimeSec: tSec,
		})
	}
	return alarms
}

// CheckThrottle estimates the device temperature of a component drawing
// powerW cooled by coolant at coolantC with per-device flow flowM3s
// (≤0 uses the design allocation) and flags throttle risk.
func (d *Detector) CheckThrottle(subject string, powerW, coolantC, flowM3s, tSec float64) (Alarm, bool) {
	if flowM3s <= 0 {
		flowM3s = plateFlowM3s
	}
	tDev := plate.DeviceTemp(powerW, coolantC, flowM3s)
	warn := throttleLimitC - throttleMarginC
	if tDev >= warn {
		return Alarm{
			Kind: KindThrottleRisk, Subject: subject,
			Value: tDev, Threshold: warn, TimeSec: tSec,
		}, true
	}
	return Alarm{}, false
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return 0.5 * (sorted[mid-1] + sorted[mid])
}
