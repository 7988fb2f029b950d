// Package viz is the visual-analytics module (§III-D) adapted to a Go
// library: the paper couples an Unreal Engine 5 augmented-reality model
// with a web dashboard; here the same insights — spatial heat maps of the
// machine room, time-series of power/PUE/temperatures, and launching
// what-if simulations — are provided as terminal renderings and an
// HTTP/JSON API (see server.go).
package viz

import (
	"fmt"
	"math"
	"strings"
)

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders vals as a unicode sparkline of at most width points,
// downsampling by averaging when the series is longer.
func Sparkline(vals []float64, width int) string {
	if len(vals) == 0 || width <= 0 {
		return ""
	}
	pts := resampleMean(vals, width)
	lo, hi := minMax(pts)
	var sb strings.Builder
	for _, v := range pts {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkLevels)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkLevels) {
			idx = len(sparkLevels) - 1
		}
		sb.WriteRune(sparkLevels[idx])
	}
	return sb.String()
}

var heatLevels = []rune(" .:-=+*#%@")

// Heatmap renders per-cell intensities as an ASCII grid with the given
// number of columns. Values are normalized to [lo, hi]; out-of-range
// values clamp. Used for the rack heat map (the §III-A "visualizing heat
// maps in the system" use case).
func Heatmap(vals []float64, cols int, lo, hi float64) string {
	if len(vals) == 0 || cols <= 0 {
		return ""
	}
	var sb strings.Builder
	for i, v := range vals {
		if i > 0 && i%cols == 0 {
			sb.WriteByte('\n')
		}
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(heatLevels)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(heatLevels) {
			idx = len(heatLevels) - 1
		}
		sb.WriteRune(heatLevels[idx])
	}
	return sb.String()
}

// Gauge renders a labeled horizontal bar: "label [#####.....] 50.0%".
func Gauge(label string, frac float64, width int) string {
	if width <= 0 {
		width = 20
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	filled := int(frac*float64(width) + 0.5)
	return fmt.Sprintf("%-12s [%s%s] %5.1f%%",
		label, strings.Repeat("#", filled), strings.Repeat(".", width-filled), frac*100)
}

// StatusPanel is the data behind one dashboard frame.
type StatusPanel struct {
	TimeSec       float64
	PowerMW       float64
	LossMW        float64
	Utilization   float64
	PUE           float64
	JobsRunning   int
	JobsPending   int
	PowerSeriesMW []float64 // recent history for the sparkline
	RackPowerKW   []float64 // per-rack power for the heat map
	HTWSupplyC    float64
	HTWReturnC    float64
	CellsStaged   int
	TotalCells    int
}

// Render draws the full terminal dashboard frame.
func (p *StatusPanel) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ExaDigiT ── t=%8.0fs  power %6.2f MW  loss %5.2f MW  PUE %5.3f\n",
		p.TimeSec, p.PowerMW, p.LossMW, p.PUE)
	fmt.Fprintf(&sb, "jobs: %d running, %d pending\n", p.JobsRunning, p.JobsPending)
	sb.WriteString(Gauge("utilization", p.Utilization, 30))
	sb.WriteByte('\n')
	if len(p.PowerSeriesMW) > 0 {
		fmt.Fprintf(&sb, "power (MW)   %s\n", Sparkline(p.PowerSeriesMW, 60))
	}
	if len(p.RackPowerKW) > 0 {
		lo, hi := minMax(p.RackPowerKW)
		fmt.Fprintf(&sb, "rack heat map (%.0f-%.0f kW):\n%s\n",
			lo, hi, Heatmap(p.RackPowerKW, 25, lo, hi))
	}
	if p.HTWReturnC > 0 {
		fmt.Fprintf(&sb, "cooling: HTW %0.1f→%0.1f °C, %d/%d tower cells\n",
			p.HTWSupplyC, p.HTWReturnC, p.CellsStaged, p.TotalCells)
	}
	return sb.String()
}

func resampleMean(vals []float64, width int) []float64 {
	if len(vals) <= width {
		return vals
	}
	out := make([]float64, width)
	for i := range out {
		start := i * len(vals) / width
		end := (i + 1) * len(vals) / width
		if end <= start {
			end = start + 1
		}
		sum := 0.0
		for _, v := range vals[start:end] {
			sum += v
		}
		out[i] = sum / float64(end-start)
	}
	return out
}

func minMax(vals []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if math.IsInf(lo, 1) {
		return 0, 0
	}
	return lo, hi
}
