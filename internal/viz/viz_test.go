package viz

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if utf8.RuneCountInString(s) != 8 {
		t.Fatalf("rune count = %d", utf8.RuneCountInString(s))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Errorf("endpoints = %c %c", runes[0], runes[7])
	}
	// Monotone input → non-decreasing glyph levels.
	for i := 1; i < len(runes); i++ {
		if runes[i] < runes[i-1] {
			t.Errorf("sparkline not monotone at %d: %s", i, s)
		}
	}
}

func TestSparklineDownsamplesAndDegenerates(t *testing.T) {
	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i % 100)
	}
	s := Sparkline(long, 40)
	if utf8.RuneCountInString(s) != 40 {
		t.Errorf("downsampled width = %d", utf8.RuneCountInString(s))
	}
	if Sparkline(nil, 10) != "" {
		t.Error("empty series should render empty")
	}
	if Sparkline([]float64{1}, 0) != "" {
		t.Error("zero width should render empty")
	}
	flat := Sparkline([]float64{5, 5, 5}, 3)
	if utf8.RuneCountInString(flat) != 3 {
		t.Error("flat series should still render")
	}
}

func TestHeatmap(t *testing.T) {
	vals := []float64{0, 25, 50, 75, 100, 0}
	hm := Heatmap(vals, 3, 0, 100)
	lines := strings.Split(hm, "\n")
	if len(lines) != 2 {
		t.Fatalf("rows = %d, want 2", len(lines))
	}
	if utf8.RuneCountInString(lines[0]) != 3 {
		t.Errorf("cols = %d", utf8.RuneCountInString(lines[0]))
	}
	r := []rune(hm)
	if r[0] != ' ' {
		t.Errorf("cold cell = %q", r[0])
	}
	if !strings.ContainsRune(hm, '@') {
		t.Error("hot cell glyph missing")
	}
	if Heatmap(nil, 3, 0, 1) != "" {
		t.Error("empty heatmap")
	}
}

func TestGauge(t *testing.T) {
	g := Gauge("util", 0.5, 10)
	if !strings.Contains(g, "#####.....") {
		t.Errorf("gauge = %q", g)
	}
	if !strings.Contains(g, "50.0%") {
		t.Errorf("gauge label = %q", g)
	}
	if !strings.Contains(Gauge("x", -1, 10), "0.0%") {
		t.Error("negative clamps to 0")
	}
	if !strings.Contains(Gauge("x", 2, 10), "100.0%") {
		t.Error("over-unity clamps to 1")
	}
}

func TestStatusPanelRender(t *testing.T) {
	p := &StatusPanel{
		TimeSec: 3600, PowerMW: 17.2, LossMW: 1.1, Utilization: 0.8, PUE: 1.05,
		JobsRunning: 42, JobsPending: 7,
		PowerSeriesMW: []float64{16, 17, 18, 17},
		RackPowerKW:   make([]float64, 74),
		HTWSupplyC:    23.5, HTWReturnC: 34.2, CellsStaged: 18, TotalCells: 20,
	}
	for i := range p.RackPowerKW {
		p.RackPowerKW[i] = float64(100 + i)
	}
	out := p.Render()
	for _, want := range []string{"17.20 MW", "PUE 1.050", "42 running", "rack heat map", "18/20 tower cells", "power (MW)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// fakeSource implements Source for handler tests.
type fakeSource struct {
	cooling map[string]float64
}

func (f *fakeSource) Status() Status {
	return Status{TimeSec: 60, PowerMW: 17, Utilization: 0.8, JobsRunning: 3}
}

func (f *fakeSource) Series() []SeriesPoint {
	return []SeriesPoint{{TimeSec: 0, PowerMW: 16}, {TimeSec: 15, PowerMW: 17}}
}

func (f *fakeSource) CoolingOutputs() map[string]float64 { return f.cooling }

func TestServerStatusAndSeries(t *testing.T) {
	srv := httptest.NewServer(NewServer(&fakeSource{}).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.PowerMW != 17 || st.JobsRunning != 3 {
		t.Errorf("status = %+v", st)
	}

	resp2, err := http.Get(srv.URL + "/api/series")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var series []SeriesPoint
	if err := json.NewDecoder(resp2.Body).Decode(&series); err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[1].PowerMW != 17 {
		t.Errorf("series = %+v", series)
	}
}

func TestServerCooling(t *testing.T) {
	// Without cooling: 404.
	srv := httptest.NewServer(NewServer(&fakeSource{}).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/cooling")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d", resp.StatusCode)
	}
	// With cooling: 200 + values.
	srv2 := httptest.NewServer(NewServer(&fakeSource{cooling: map[string]float64{"pue": 1.05}}).Handler())
	defer srv2.Close()
	resp2, err := http.Get(srv2.URL + "/api/cooling")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp2.StatusCode)
	}
}
