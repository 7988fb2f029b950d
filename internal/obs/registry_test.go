package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func mustWrite(t *testing.T, r *Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustParse(t *testing.T, data []byte) *Exposition {
	t.Helper()
	e, err := ParseExposition(data)
	if err != nil {
		t.Fatalf("exposition failed strict validation: %v\n%s", err, data)
	}
	return e
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("exadigit_test_events_total", "Test events.")
	c.Add(3)
	g := r.Gauge("exadigit_test_depth", "Test depth.")
	g.Set(2.5)
	cv := r.CounterVec("exadigit_test_routed_total", "Routed.", "route", "code")
	cv.With("/api/sweeps", "2xx").Add(7)
	cv.With("/api/sweeps", "5xx").Inc()

	e := mustParse(t, mustWrite(t, r))
	series := e.Series()
	checks := map[string]float64{
		`exadigit_test_events_total{}`:                               3,
		`exadigit_test_depth{}`:                                      2.5,
		`exadigit_test_routed_total{code="2xx",route="/api/sweeps"}`: 7,
		`exadigit_test_routed_total{code="5xx",route="/api/sweeps"}`: 1,
	}
	for id, want := range checks {
		if got, ok := series[id]; !ok || got != want {
			t.Errorf("series %s = %v (present=%v), want %v", id, got, ok, want)
		}
	}
	if err := ValidateConventions(e, "exadigit_"); err != nil {
		t.Errorf("conventions: %v", err)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("exadigit_test_latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	e := mustParse(t, mustWrite(t, r))
	s := e.Series()
	wants := map[string]float64{
		`exadigit_test_latency_seconds_bucket{le="0.1"}`:  1,
		`exadigit_test_latency_seconds_bucket{le="1"}`:    3,
		`exadigit_test_latency_seconds_bucket{le="10"}`:   4,
		`exadigit_test_latency_seconds_bucket{le="+Inf"}`: 5,
		`exadigit_test_latency_seconds_count{}`:           5,
	}
	for id, want := range wants {
		if s[id] != want {
			t.Errorf("%s = %v, want %v", id, s[id], want)
		}
	}
	if got, want := s[`exadigit_test_latency_seconds_sum{}`], 56.05; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	if h.Count() != 5 {
		t.Errorf("Count() = %d", h.Count())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	gv := r.GaugeVec("exadigit_test_weird", "Weird labels.", "path")
	gv.With("a\"b\\c\nd").Set(1)
	e := mustParse(t, mustWrite(t, r))
	f := e.Families["exadigit_test_weird"]
	if f == nil || len(f.Series) != 1 {
		t.Fatalf("family missing: %+v", e.Families)
	}
	if got := f.Series[0].Labels["path"]; got != "a\"b\\c\nd" {
		t.Errorf("round-tripped label = %q", got)
	}
}

func TestFuncBackedSeries(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.CounterFunc("exadigit_test_pulls_total", "Pulls.", func() float64 { n++; return n })
	r.VecFunc(KindGauge, "exadigit_test_power_watts", "Power.", []string{"partition"},
		func(emit func([]string, float64)) {
			emit([]string{"0"}, 10e6)
			emit([]string{"1"}, 5e6)
		})
	e := mustParse(t, mustWrite(t, r))
	s := e.Series()
	if s[`exadigit_test_pulls_total{}`] != 42 {
		t.Errorf("func counter = %v", s[`exadigit_test_pulls_total{}`])
	}
	if s[`exadigit_test_power_watts{partition="1"}`] != 5e6 {
		t.Errorf("vec func = %v", s[`exadigit_test_power_watts{partition="1"}`])
	}
}

func TestSharedFamilyAcrossRegistrations(t *testing.T) {
	r := NewRegistry()
	// Two subsystems each attach a collector to the same family — the
	// dashboard and sweep middleware stacks sharing one registry.
	for _, server := range []string{"dashboard", "sweeps"} {
		srv := server
		r.VecFunc(KindCounter, "exadigit_test_http_requests_total", "Requests.",
			[]string{"server"},
			func(emit func([]string, float64)) { emit([]string{srv}, 1) })
	}
	e := mustParse(t, mustWrite(t, r))
	f := e.Families["exadigit_test_http_requests_total"]
	if f == nil || len(f.Series) != 2 {
		t.Fatalf("expected one family with 2 series, got %+v", f)
	}
}

func TestNamingEnforcedAtRegistration(t *testing.T) {
	r := NewRegistry()
	for _, tc := range []func(){
		func() { r.Counter("exadigit_bad_counter", "no _total") },
		func() { r.Gauge("exadigit_bad_gauge_total", "gauge with _total") },
		func() { r.Histogram("exadigit_bad_hist", "no unit", nil) },
		func() { r.Counter("Exadigit_Caps_total", "caps") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad name registration did not panic")
				}
			}()
			tc()
		}()
	}
	// Schema mismatch on re-registration panics too.
	r.Counter("exadigit_ok_total", "ok")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("schema mismatch did not panic")
			}
		}()
		r.Gauge("exadigit_ok_total", "now a gauge")
	}()
}

func TestValidatorRejectsMalformed(t *testing.T) {
	bad := map[string]string{
		"duplicate series": `# HELP exadigit_x_total X.
# TYPE exadigit_x_total counter
exadigit_x_total 1
exadigit_x_total 2
`,
		"type without help": `# TYPE exadigit_x_total counter
exadigit_x_total 1
`,
		"sample without type": `exadigit_x_total 1
`,
		"interleaved families": `# HELP exadigit_a A.
# TYPE exadigit_a gauge
exadigit_a 1
# HELP exadigit_b B.
# TYPE exadigit_b gauge
exadigit_a 2
`,
		"negative counter": `# HELP exadigit_x_total X.
# TYPE exadigit_x_total counter
exadigit_x_total -1
`,
		"non-cumulative histogram": `# HELP exadigit_h_seconds H.
# TYPE exadigit_h_seconds histogram
exadigit_h_seconds_bucket{le="1"} 5
exadigit_h_seconds_bucket{le="2"} 3
exadigit_h_seconds_bucket{le="+Inf"} 5
exadigit_h_seconds_sum 1
exadigit_h_seconds_count 5
`,
		"histogram without inf": `# HELP exadigit_h_seconds H.
# TYPE exadigit_h_seconds histogram
exadigit_h_seconds_bucket{le="1"} 5
exadigit_h_seconds_sum 1
exadigit_h_seconds_count 5
`,
	}
	for name, text := range bad {
		if _, err := ParseExposition([]byte(text)); err == nil {
			t.Errorf("%s: validator accepted malformed exposition", name)
		}
	}
}

func TestConventionViolationsCaught(t *testing.T) {
	text := `# HELP other_metric X.
# TYPE other_metric gauge
other_metric 1
`
	e := mustParse(t, []byte(text))
	if err := ValidateConventions(e, "exadigit_"); err == nil {
		t.Error("missing prefix not caught")
	}
}

func TestConcurrentInstrumentsRaceClean(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("exadigit_race_total", "race")
	g := r.Gauge("exadigit_race_depth", "race")
	h := r.Histogram("exadigit_race_lat_seconds", "race", nil)
	cv := r.CounterVec("exadigit_race_routed_total", "race", "route")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j) / 100)
				cv.With("/r").Inc()
			}
		}(i)
	}
	// Scrape concurrently with the writers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for j := 0; j < 20; j++ {
				buf.Reset()
				if err := r.Write(&buf); err != nil {
					t.Error(err)
				}
				if _, err := ParseExposition(buf.Bytes()); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %v", g.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d", h.Count())
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("exadigit_test_x", "multi\nline \\help")
	out := string(mustWrite(t, r))
	if !strings.Contains(out, `multi\nline \\help`) {
		t.Errorf("help not escaped: %s", out)
	}
	mustParse(t, []byte(out))
}
