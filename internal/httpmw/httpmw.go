// Package httpmw is the shared HTTP middleware layer for the twin's two
// servers — the viz dashboard API and the sweep service. Both previously
// hand-rolled their endpoints with no recovery or observability; this
// package gives them one stack: panic recovery (a crashing handler
// returns 500 instead of killing the connection), optional request
// logging, and request metrics (per-route status-class counters, an
// in-flight gauge, panics, and a request-duration histogram).
//
// The counters leave the process one way: attached to an obs.Registry
// via Register, Metrics is the storage behind the Prometheus /metrics
// series. Summary reads the same storage for the log heartbeat.
package httpmw

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"exadigit/internal/obs"
)

// Logf is the logging hook (log.Printf-shaped). nil disables logging.
type Logf func(format string, args ...any)

// statusClasses are the response classes tracked per route.
var statusClasses = [4]string{"2xx", "3xx", "4xx", "5xx"}

// routeMetrics is one route's counters.
type routeMetrics struct {
	classes [4]atomic.Uint64 // 2xx, 3xx, 4xx, 5xx
}

// maxRoutes bounds the per-route map so a path scan cannot grow it (and
// the exposition's cardinality) without bound; overflow lands in the
// "other" route.
const maxRoutes = 64

// Metrics holds the counters one middleware stack accumulates. All
// methods are safe for concurrent use; the zero value is ready.
type Metrics struct {
	inFlight atomic.Int64
	panics   atomic.Uint64

	latOnce sync.Once
	latency *obs.Histogram

	mu     sync.RWMutex
	routes map[string]*routeMetrics
}

// hist lazily initializes the request-duration histogram so the zero
// value stays usable.
func (m *Metrics) hist() *obs.Histogram {
	m.latOnce.Do(func() { m.latency = obs.NewHistogram(obs.DefBuckets) })
	return m.latency
}

// route returns (creating on first use) the counters for the
// normalized route of path.
func (m *Metrics) route(path string) *routeMetrics {
	key := RouteLabel(path)
	m.mu.RLock()
	rt := m.routes[key]
	m.mu.RUnlock()
	if rt != nil {
		return rt
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.routes == nil {
		m.routes = make(map[string]*routeMetrics)
	}
	if rt := m.routes[key]; rt != nil {
		return rt
	}
	if len(m.routes) >= maxRoutes {
		key = "other"
		if rt := m.routes[key]; rt != nil {
			return rt
		}
	}
	rt = &routeMetrics{}
	m.routes[key] = rt
	return rt
}

// RouteLabel normalizes a request path into a bounded-cardinality route
// label: sweep ids and content hashes become "{id}", so
// /api/sweeps/sw-12/results and /api/sweeps/sw-97/results are one
// route.
func RouteLabel(path string) string {
	if path == "" || path == "/" {
		return "/"
	}
	segs := strings.Split(path, "/")
	for i, s := range segs {
		if isIDSegment(s) {
			segs[i] = "{id}"
		}
	}
	return strings.Join(segs, "/")
}

// isIDSegment reports whether a path segment looks like a generated
// identifier: a sweep id ("sw-" + hex and dashes — both the historical
// counter form sw-12 and the collision-free sw-<hexnano>-<rand> form),
// a pure number, or a content hash (≥16 hex chars).
func isIDSegment(s string) bool {
	if rest, ok := strings.CutPrefix(s, "sw-"); ok && rest != "" && allHexDash(rest) {
		return true
	}
	if s != "" && allDigits(s) {
		return true
	}
	if len(s) >= 16 && allHex(s) {
		return true
	}
	return false
}

func allDigits(s string) bool {
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

func allHex(s string) bool {
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allHexDash(s string) bool {
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && c != '-' {
			return false
		}
	}
	return true
}

// Register attaches the stack's counters to a metrics registry under
// the given server label (e.g. "sweeps", "dashboard"). The registry
// reads the stack's own storage at scrape time — registration adds a
// view, not a second set of counters. Several stacks may share one
// registry; each contributes its own server="..." series to the shared
// families.
func (m *Metrics) Register(reg *obs.Registry, server string) {
	reg.VecFunc(obs.KindCounter, "exadigit_http_requests_total",
		"HTTP requests completed, by server, normalized route, and status class.",
		[]string{"server", "route", "code"},
		func(emit func([]string, float64)) {
			m.mu.RLock()
			defer m.mu.RUnlock()
			for route, rt := range m.routes {
				for i, class := range statusClasses {
					emit([]string{server, route, class}, float64(rt.classes[i].Load()))
				}
			}
		})
	reg.VecFunc(obs.KindGauge, "exadigit_http_in_flight_requests",
		"HTTP requests currently being handled.",
		[]string{"server"},
		func(emit func([]string, float64)) {
			emit([]string{server}, float64(m.inFlight.Load()))
		})
	reg.VecFunc(obs.KindCounter, "exadigit_http_panics_total",
		"Handler panics recovered by the middleware.",
		[]string{"server"},
		func(emit func([]string, float64)) {
			emit([]string{server}, float64(m.panics.Load()))
		})
	reg.HistogramFunc("exadigit_http_request_duration_seconds",
		"HTTP request handling time.",
		[]string{"server"}, obs.DefBuckets,
		func(emit func([]string, obs.HistogramSnapshot)) {
			emit([]string{server}, m.hist().Snapshot())
		})
}

// Summary renders the counters as one log line — the periodic metrics
// heartbeat and the final flush a graceful shutdown emits so a server's
// request accounting is not lost with the process. Requests are the
// completed ones, summed over routes and status classes.
func (m *Metrics) Summary() string {
	var classes [4]uint64
	m.mu.RLock()
	for _, rt := range m.routes {
		for i := range classes {
			classes[i] += rt.classes[i].Load()
		}
	}
	m.mu.RUnlock()
	var avgMs float64
	if h := m.hist().Snapshot(); h.Count > 0 {
		avgMs = h.Sum / float64(h.Count) * 1e3
	}
	return fmt.Sprintf("requests=%d in_flight=%d 2xx=%d 3xx=%d 4xx=%d 5xx=%d panics=%d avg_ms=%.2f",
		classes[0]+classes[1]+classes[2]+classes[3], m.inFlight.Load(),
		classes[0], classes[1], classes[2], classes[3], m.panics.Load(), avgMs)
}

// RequireBearer enforces an Authorization: Bearer token in front of h —
// the opt-in auth layer for twin deployments exposed beyond localhost
// (enable with `exadigit serve -token` or EXADIGIT_TOKEN). An empty
// token disables enforcement and returns h unchanged, so unauthenticated
// development setups keep working. Comparison is constant-time; a
// missing or wrong token is a 401 JSON envelope with a WWW-Authenticate
// challenge.
func RequireBearer(token string, h http.Handler) http.Handler {
	if token == "" {
		return h
	}
	want := []byte(token)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || subtle.ConstantTimeCompare([]byte(got), want) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="exadigit"`)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnauthorized)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "unauthorized"})
			return
		}
		h.ServeHTTP(w, r)
	})
}

// statusRecorder captures the response code (and whether the handler
// wrote one) without disturbing streaming: Flush is forwarded when the
// underlying writer supports it, which the sweep service's NDJSON
// endpoints rely on.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (sr *statusRecorder) WriteHeader(code int) {
	if !sr.wrote {
		sr.code = code
		sr.wrote = true
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if !sr.wrote {
		sr.code = http.StatusOK
		sr.wrote = true
	}
	return sr.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer, preserving http.Flusher for
// streaming handlers.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// classIndex maps a status code to its class counter slot.
func classIndex(code int) int {
	switch {
	case code >= 500:
		return 3
	case code >= 400:
		return 2
	case code >= 300:
		return 1
	default:
		return 0
	}
}

// Wrap layers panic recovery, metrics accounting, and (when logf is
// non-nil) request logging around h. m may be nil to skip metrics.
func Wrap(h http.Handler, logf Logf, m *Metrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w}
		var rt *routeMetrics
		if m != nil {
			rt = m.route(r.URL.Path)
			m.inFlight.Add(1)
		}
		defer func() {
			if m != nil {
				m.inFlight.Add(-1)
				m.hist().Observe(time.Since(start).Seconds())
			}
			if rec := recover(); rec != nil {
				if m != nil {
					m.panics.Add(1)
					rt.classes[3].Add(1)
				}
				if !sr.wrote {
					http.Error(w, "internal server error", http.StatusInternalServerError)
				}
				if logf != nil {
					logf("http: panic in %s %s: %v", r.Method, r.URL.Path, rec)
				}
				return
			}
			code := sr.code
			if !sr.wrote {
				code = http.StatusOK
			}
			if m != nil {
				rt.classes[classIndex(code)].Add(1)
			}
			if logf != nil {
				logf("http: %s %s -> %d (%s)", r.Method, r.URL.Path, code,
					time.Since(start).Round(time.Microsecond))
			}
		}()
		h.ServeHTTP(sr, r)
	})
}
