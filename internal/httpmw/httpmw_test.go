package httpmw

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"exadigit/internal/obs"
)

// scrape registers m under server="test" in a fresh registry and
// returns the parsed exposition.
func scrape(t *testing.T, m *Metrics) *obs.Exposition {
	t.Helper()
	reg := obs.NewRegistry()
	m.Register(reg, "test")
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	e, err := obs.ParseExposition(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	return e
}

// requests reads one route's status-class series from a scrape.
func requests(e *obs.Exposition, route, code string) float64 {
	return e.Series()[obs.ExpoSeries{Name: "exadigit_http_requests_total",
		Labels: map[string]string{"server": "test", "route": route, "code": code}}.ID()]
}

// routeTotals sums a scrape's request series by route.
func routeTotals(e *obs.Exposition) map[string]float64 {
	totals := make(map[string]float64)
	for _, s := range e.Families["exadigit_http_requests_total"].Series {
		totals[s.Labels["route"]] += s.Value
	}
	return totals
}

func TestWrapRecoversPanicsAndCounts(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	})
	mux.HandleFunc("/missing", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusNotFound)
	})
	mux.HandleFunc("/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})

	var logged []string
	m := &Metrics{}
	srv := httptest.NewServer(Wrap(mux, func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}, m))
	defer srv.Close()

	get := func(path string) int {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/ok"); code != http.StatusOK {
		t.Fatalf("/ok = %d", code)
	}
	if code := get("/missing"); code != http.StatusNotFound {
		t.Fatalf("/missing = %d", code)
	}
	// A panicking handler returns 500 to the client instead of killing
	// the connection.
	if code := get("/boom"); code != http.StatusInternalServerError {
		t.Fatalf("/boom = %d", code)
	}

	e := scrape(t, m)
	for _, c := range []struct{ route, code string }{
		{"/ok", "2xx"}, {"/missing", "4xx"}, {"/boom", "5xx"},
	} {
		if got := requests(e, c.route, c.code); got != 1 {
			t.Errorf("%s %s = %v, want 1", c.route, c.code, got)
		}
	}
	series := e.Series()
	if got := series[`exadigit_http_panics_total{server="test"}`]; got != 1 {
		t.Fatalf("panics = %v, want 1", got)
	}
	if got, ok := series[`exadigit_http_in_flight_requests{server="test"}`]; !ok || got != 0 {
		t.Fatalf("in-flight = %v after requests drained", got)
	}
	if len(logged) != 3 {
		t.Fatalf("logged %d lines: %v", len(logged), logged)
	}
	foundPanic := false
	for _, line := range logged {
		if strings.Contains(line, "panic") && strings.Contains(line, "kaboom") {
			foundPanic = true
		}
	}
	if !foundPanic {
		t.Fatalf("panic not logged: %v", logged)
	}
}

func TestWrapPreservesFlusher(t *testing.T) {
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := w.(http.Flusher); !ok {
			t.Error("middleware dropped http.Flusher — streaming endpoints would stall")
		}
	}), nil, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	if _, err := srv.Client().Get(srv.URL); err != nil {
		t.Fatal(err)
	}
}

// TestSummaryLine: the shutdown flush line carries the counters a server
// would otherwise lose at exit.
func TestSummaryLine(t *testing.T) {
	m := &Metrics{}
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/missing" {
			http.NotFound(w, r)
		}
	}), nil, m)
	srv := httptest.NewServer(h)
	defer srv.Close()
	for _, p := range []string{"/", "/missing"} {
		if _, err := srv.Client().Get(srv.URL + p); err != nil {
			t.Fatal(err)
		}
	}
	sum := m.Summary()
	for _, want := range []string{"requests=2", "2xx=1", "4xx=1", "panics=0"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary %q missing %q", sum, want)
		}
	}
}

// TestRouteLabel pins the cardinality-bounding normalization: generated
// identifiers collapse to {id}, everything else passes through.
func TestRouteLabel(t *testing.T) {
	cases := map[string]string{
		"":                          "/",
		"/":                         "/",
		"/api/sweeps":               "/api/sweeps",
		"/api/sweeps/sw-12":         "/api/sweeps/{id}",
		"/api/sweeps/sw-97/results": "/api/sweeps/{id}/results",
		"/api/sweeps/sw-/results":   "/api/sweeps/sw-/results", // not an id
		// Durable time-prefixed ids: sw-<hex nanos>-<hex suffix>.
		"/api/sweeps/sw-18f3a2b4c5d6e7f8-9abc":        "/api/sweeps/{id}",
		"/api/sweeps/sw-18f3a2b4c5d6e7f8-9abc/stream": "/api/sweeps/{id}/stream",
		"/api/sweeps/sw-NOPE/results":                 "/api/sweeps/sw-NOPE/results", // uppercase: not an id
		"/api/optimize/42":                            "/api/optimize/{id}",
		"/api/scenarios/deadbeefdeadbeef":             "/api/scenarios/{id}",     // 16 hex chars
		"/api/scenarios/deadbeef":                     "/api/scenarios/deadbeef", // too short for a hash
		"/metrics":                                    "/metrics",
	}
	for path, want := range cases {
		if got := RouteLabel(path); got != want {
			t.Errorf("RouteLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestPerRouteCounters: the exposition breaks requests down by
// normalized route and status class.
func TestPerRouteCounters(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("GET /api/sweeps", func(w http.ResponseWriter, r *http.Request) {})
	m := &Metrics{}
	srv := httptest.NewServer(Wrap(mux, nil, m))
	defer srv.Close()

	for _, p := range []string{"/api/sweeps/sw-1", "/api/sweeps/sw-2", "/api/sweeps", "/nope"} {
		resp, err := srv.Client().Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	e := scrape(t, m)
	totals := routeTotals(e)
	if len(totals) != 3 {
		t.Fatalf("routes = %v, want 3", totals)
	}
	if got := requests(e, "/api/sweeps/{id}", "2xx"); got != 2 || totals["/api/sweeps/{id}"] != 2 {
		t.Fatalf("/api/sweeps/{id} 2xx = %v of %v, want 2 of 2", got, totals["/api/sweeps/{id}"])
	}
	if got := totals["/api/sweeps"]; got != 1 {
		t.Fatalf("/api/sweeps total = %v, want 1", got)
	}
	if got := requests(e, "/nope", "4xx"); got != 1 {
		t.Fatalf("/nope 4xx = %v, want 1", got)
	}
}

// TestRouteOverflowLandsInOther: the per-route map is bounded; a path
// scan past the cap accumulates under "other" instead of growing the
// exposition's cardinality without bound.
func TestRouteOverflowLandsInOther(t *testing.T) {
	m := &Metrics{}
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}), nil, m)
	for i := 0; i < maxRoutes+10; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/scan/path-%c%d", 'a'+i%26, i), nil))
	}
	totals := routeTotals(scrape(t, m))
	if len(totals) > maxRoutes+1 {
		t.Fatalf("route map grew to %d entries (cap %d + other)", len(totals), maxRoutes)
	}
	if totals["other"] == 0 {
		t.Fatalf("overflow routes not folded into other: %v", totals)
	}
	var sum float64
	for _, v := range totals {
		sum += v
	}
	if sum != maxRoutes+10 {
		t.Fatalf("total %v, want %d", sum, maxRoutes+10)
	}
}

// TestRegisterExposesSeries: two stacks share one family under distinct
// server labels, each reporting its own requests.
func TestRegisterExposesSeries(t *testing.T) {
	reg := obs.NewRegistry()
	ma, mb := &Metrics{}, &Metrics{}
	ma.Register(reg, "sweeps")
	mb.Register(reg, "dashboard")

	ha := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}), nil, ma)
	hb := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusNotFound)
	}), nil, mb)
	for i := 0; i < 3; i++ {
		ha.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/api/sweeps", nil))
	}
	hb.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/api/status", nil))

	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	e, err := obs.ParseExposition(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	series := e.Series()
	get := func(name string, labels map[string]string) float64 {
		return series[obs.ExpoSeries{Name: name, Labels: labels}.ID()]
	}
	if got := get("exadigit_http_requests_total",
		map[string]string{"server": "sweeps", "route": "/api/sweeps", "code": "2xx"}); got != 3 {
		t.Errorf("sweeps 2xx series = %v, want 3", got)
	}
	if got := get("exadigit_http_requests_total",
		map[string]string{"server": "dashboard", "route": "/api/status", "code": "4xx"}); got != 1 {
		t.Errorf("dashboard 4xx series = %v, want 1", got)
	}
	if got := get("exadigit_http_request_duration_seconds_count",
		map[string]string{"server": "sweeps"}); got != 3 {
		t.Errorf("sweeps duration count = %v, want 3", got)
	}
	if got := get("exadigit_http_in_flight_requests",
		map[string]string{"server": "dashboard"}); got != 0 {
		t.Errorf("dashboard in-flight = %v, want 0", got)
	}
}
