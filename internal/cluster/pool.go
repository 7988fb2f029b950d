// Package cluster is the coordinator side of the distributed sweep
// fabric: a client pool that fans a sweep's scenarios out to remote
// worker `exadigit serve` instances over the exact same /api/sweeps
// HTTP API a human client uses, and streams the results back.
//
// The Pool implements service.ScenarioRunner, so a coordinator is just
// a Service with Options.Runner set — admission control, the memory
// cache, single-flight, retries, spans, and streaming all keep working
// unchanged while the simulation happens on another node. Scenarios
// shard to workers by rendezvous hash of their content hash (stable
// affinity → warm worker-local caches), dead or slow workers are marked
// unhealthy and their shards re-dispatched to survivors, and worker
// backpressure (429 + Retry-After) is honored with the server-derived
// delay instead of a client-side guess.
//
// Exactly-once compute across the cluster does NOT come from this pool
// — it comes from the shared store's leases (store.AcquireLease): each
// worker leases a key before simulating it, so two workers handed the
// same key by racing coordinators compute it once. The pool only
// provides at-least-once dispatch.
package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/obs"
	"exadigit/internal/service"
	"exadigit/internal/store"
)

// Backpressure bounds for one shard on one worker.
const (
	// maxThrottleWaits bounds how many 429 Retry-After waits the pool
	// spends on one worker per shard before moving to the next
	// candidate.
	maxThrottleWaits = 4
	// maxRetryAfter caps a single honored Retry-After delay, so one
	// overloaded worker cannot stall a shard for a minute when a
	// sibling is idle.
	maxRetryAfter = 10 * time.Second
)

// Options configures a Pool: the workers, their token, the shared
// store, metrics, health probing and diagnostics. Submits and result
// streams go through http.DefaultClient, which has no overall timeout
// (streams are long-lived; per-shard bounds come from StallTimeout).
// A worker's 429 backpressure is honored for at most 4 Retry-After
// waits per shard, each capped at 10 s, before the shard moves on.
type Options struct {
	// Workers are the worker base URLs (e.g. "http://host:8080"); at
	// least one is required.
	Workers []string
	// Token is the bearer token the workers require, if any.
	Token string
	// Registry receives the coordinator metric families
	// (exadigit_cluster_*). nil → a private registry.
	Registry *obs.Registry
	// Store is the shared result store, when the coordinator can reach
	// the same directory as its workers. It is used to re-read a
	// completed shard's full-fidelity result (history, telemetry) —
	// the NDJSON stream carries only the report. nil → streamed reports
	// only.
	Store *store.Store
	// StallTimeout bounds one shard's submit+stream wall time on one
	// worker; past it the worker is marked unhealthy and the shard
	// re-dispatched (0 → no per-worker bound; the sweep's scenario
	// timeout still applies end to end).
	StallTimeout time.Duration
	// ProbeAfter is how long an unhealthy worker sits out before the
	// pool risks a shard on it again (0 → 5s).
	ProbeAfter time.Duration
	// Logf receives dispatch diagnostics (log.Printf-shaped; nil → off).
	Logf func(format string, args ...any)
}

// worker is one remote serve instance and its health state.
type worker struct {
	url      string // base URL, no trailing slash
	healthy  atomic.Bool
	lastFail atomic.Int64 // UnixNano of the most recent failure
}

// available reports whether the pool should offer this worker a shard:
// healthy, or unhealthy but past the probe cooldown (every cooldown
// expiry risks exactly the one probing shard, not the whole sweep).
func (w *worker) available(now time.Time, probeAfter time.Duration) bool {
	return w.healthy.Load() || now.Sub(time.Unix(0, w.lastFail.Load())) >= probeAfter
}

func (w *worker) markHealthy() { w.healthy.Store(true) }

func (w *worker) markUnhealthy(now time.Time) {
	w.healthy.Store(false)
	w.lastFail.Store(now.UnixNano())
}

// Pool is the coordinator's worker client pool. It is safe for
// concurrent use by every sweep goroutine of the coordinating Service.
type Pool struct {
	workers      []*worker
	token        string
	store        *store.Store
	stallTimeout time.Duration
	probeAfter   time.Duration
	logf         func(string, ...any)

	specMu    sync.Mutex
	specJSON  map[string]json.RawMessage // spec hash → marshaled spec
	specOrder []string

	dispatched   *obs.CounterVec
	redispatched *obs.CounterVec
	throttled    *obs.CounterVec
	shardSec     *obs.Histogram
}

// maxCachedSpecs bounds the marshaled-spec cache like the service's
// compiled-spec cache: arbitrary inline specs must not pin JSON forever.
const maxCachedSpecs = 64

// New builds a Pool over the given workers.
func New(opts Options) (*Pool, error) {
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("cluster: at least one worker URL required")
	}
	if opts.ProbeAfter <= 0 {
		opts.ProbeAfter = 5 * time.Second
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	p := &Pool{
		token:        opts.Token,
		store:        opts.Store,
		stallTimeout: opts.StallTimeout,
		probeAfter:   opts.ProbeAfter,
		logf:         opts.Logf,
		specJSON:     make(map[string]json.RawMessage),
	}
	seen := make(map[string]bool)
	for _, u := range opts.Workers {
		u = strings.TrimSuffix(strings.TrimSpace(u), "/")
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		w := &worker{url: u}
		w.healthy.Store(true)
		p.workers = append(p.workers, w)
	}
	if len(p.workers) == 0 {
		return nil, fmt.Errorf("cluster: no usable worker URLs in %v", opts.Workers)
	}
	p.registerMetrics(reg)
	return p, nil
}

func (p *Pool) registerMetrics(reg *obs.Registry) {
	p.dispatched = reg.CounterVec("exadigit_cluster_dispatched_total",
		"Scenario shards successfully completed per worker.", "worker")
	p.redispatched = reg.CounterVec("exadigit_cluster_redispatched_total",
		"Scenario shards moved off a worker after a failure or stall.", "worker")
	p.throttled = reg.CounterVec("exadigit_cluster_throttled_total",
		"Worker 429 backpressure responses honored (Retry-After waits).", "worker")
	p.shardSec = reg.Histogram("exadigit_cluster_shard_seconds",
		"Wall time of one completed scenario shard (submit through final stream line).", nil)
	reg.GaugeFunc("exadigit_cluster_workers",
		"Configured worker count.",
		func() float64 { return float64(len(p.workers)) })
	reg.VecFunc(obs.KindGauge, "exadigit_cluster_worker_healthy",
		"1 when the worker is accepting shards, 0 while it sits out a failure cooldown.",
		[]string{"worker"},
		func(emit func([]string, float64)) {
			for _, w := range p.workers {
				v := 0.0
				if w.healthy.Load() {
					v = 1.0
				}
				emit([]string{w.url}, v)
			}
		})
}

// Workers returns the configured worker URLs.
func (p *Pool) Workers() []string {
	out := make([]string, len(p.workers))
	for i, w := range p.workers {
		out[i] = w.url
	}
	return out
}

// HealthyWorkers returns how many workers are currently accepting shards.
func (p *Pool) HealthyWorkers() int {
	n := 0
	for _, w := range p.workers {
		if w.healthy.Load() {
			n++
		}
	}
	return n
}

// specBody returns (caching) the marshaled spec for specHash.
func (p *Pool) specBody(specHash string, spec config.SystemSpec) (json.RawMessage, error) {
	p.specMu.Lock()
	defer p.specMu.Unlock()
	if raw, ok := p.specJSON[specHash]; ok {
		return raw, nil
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("cluster: marshal spec: %w", err)
	}
	p.specJSON[specHash] = raw
	p.specOrder = append(p.specOrder, specHash)
	for len(p.specOrder) > maxCachedSpecs {
		delete(p.specJSON, p.specOrder[0])
		p.specOrder = p.specOrder[1:]
	}
	return raw, nil
}

// submitEnvelope is the wire body of a single-scenario shard submission
// — field-compatible with service.SubmitRequest, with the spec held as
// pre-marshaled JSON so a 10k-scenario sweep encodes the spec once, not
// 10k times.
type submitEnvelope struct {
	Name      string                    `json:"name,omitempty"`
	Spec      json.RawMessage           `json:"spec"`
	Scenarios []service.ScenarioRequest `json:"scenarios"`
	// Ephemeral keeps shard sweeps out of the worker's durable sweep
	// journal: a shard is the coordinator's re-dispatchable work, and the
	// coordinator's own journal is what survives a crash. A worker that
	// re-adopted half-done shards would race the coordinator's
	// re-dispatch of the same scenarios.
	Ephemeral bool `json:"ephemeral,omitempty"`
}

// candidates orders the workers for a scenario hash: rendezvous
// (highest-random-weight) hashing gives each key a stable worker
// affinity — re-dispatches of one scenario land on the same worker,
// whose memory cache is warm — with the remaining workers as a
// deterministic failover order. Available workers sort ahead of ones
// sitting out a failure cooldown.
func (p *Pool) candidates(scenHash string, now time.Time) []*worker {
	type scored struct {
		w     *worker
		score uint64
		avail bool
	}
	list := make([]scored, len(p.workers))
	for i, w := range p.workers {
		h := fnv.New64a()
		io.WriteString(h, w.url)
		io.WriteString(h, "\x00")
		io.WriteString(h, scenHash)
		list[i] = scored{w: w, score: h.Sum64(), avail: w.available(now, p.probeAfter)}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].avail != list[j].avail {
			return list[i].avail
		}
		return list[i].score > list[j].score
	})
	out := make([]*worker, len(list))
	for i, s := range list {
		out[i] = s.w
	}
	return out
}

// errShardFailed marks a worker-side terminal scenario failure — the
// worker is fine, the scenario failed; re-dispatching it to a sibling
// would just fail again, so the error goes back to the coordinating
// service's own retry budget.
type errShardFailed struct{ msg string }

func (e *errShardFailed) Error() string { return e.msg }

// RunScenario dispatches one scenario to the cluster: submit it as a
// single-scenario sweep on its affinity worker, stream the result back,
// and re-dispatch to the next candidate when the worker is dead, slow,
// or saturated past patience. It implements service.ScenarioRunner; a
// returned error re-enters the coordinating sweep's retry/backoff loop.
func (p *Pool) RunScenario(ctx context.Context, req service.RunRequest) (*core.Result, error) {
	wire, err := service.ScenarioRequestFrom(req.Scenario)
	if err != nil {
		return nil, err
	}
	specRaw, err := p.specBody(req.SpecHash, req.Spec)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(submitEnvelope{
		Name:      fmt.Sprintf("shard-%.12s", req.ScenarioHash),
		Spec:      specRaw,
		Scenarios: []service.ScenarioRequest{wire},
		Ephemeral: true,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: marshal shard: %w", err)
	}
	var errs []error
	for _, w := range p.candidates(req.ScenarioHash, time.Now()) {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		res, rerr := p.runOn(ctx, w, req, body)
		if rerr == nil {
			return res, nil
		}
		var terminal *errShardFailed
		if errors.As(rerr, &terminal) || errors.Is(rerr, context.Canceled) {
			return nil, rerr
		}
		// Worker-side trouble: count the move and try the next candidate.
		p.redispatched.With(w.url).Inc()
		if p.logf != nil {
			p.logf("cluster: %s: shard %.12s re-dispatched: %v", w.url, req.ScenarioHash, rerr)
		}
		errs = append(errs, fmt.Errorf("%s: %w", w.url, rerr))
	}
	return nil, fmt.Errorf("cluster: shard %.12s failed on every worker: %w",
		req.ScenarioHash, errors.Join(errs...))
}

// runOn runs one shard on one worker: submit (honoring 429 backpressure
// with the server-derived Retry-After), then stream the terminal result
// line. Any transport failure, 5xx, or stall marks the worker unhealthy
// and returns a retriable error; scenario-level failures come back as
// *errShardFailed.
func (p *Pool) runOn(ctx context.Context, w *worker, req service.RunRequest, body []byte) (*core.Result, error) {
	if p.stallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.stallTimeout)
		defer cancel()
	}
	start := time.Now()
	sub, err := p.submit(ctx, w, req, body)
	if err != nil {
		return nil, err
	}
	res, err := p.streamResult(ctx, w, req, sub.ID)
	if err != nil {
		// The worker may still be grinding on the shard; a best-effort
		// cancel keeps an abandoned submission from occupying its pool.
		p.cancelShard(w, sub.ID)
		return nil, err
	}
	w.markHealthy()
	p.dispatched.With(w.url).Inc()
	p.shardSec.Observe(time.Since(start).Seconds())
	return res, nil
}

// submit POSTs the shard, waiting out 429 backpressure up to the
// patience bound.
func (p *Pool) submit(ctx context.Context, w *worker, req service.RunRequest, body []byte) (*service.SubmitResponse, error) {
	throttles := 0
	for {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
			w.url+"/api/sweeps", strings.NewReader(string(body)))
		if err != nil {
			return nil, fmt.Errorf("cluster: build submit: %w", err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		if p.token != "" {
			hreq.Header.Set("Authorization", "Bearer "+p.token)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			w.markUnhealthy(time.Now())
			return nil, fmt.Errorf("cluster: submit: %w", err)
		}
		switch {
		case resp.StatusCode == http.StatusAccepted:
			var sub service.SubmitResponse
			err := json.NewDecoder(resp.Body).Decode(&sub)
			resp.Body.Close()
			if err != nil {
				w.markUnhealthy(time.Now())
				return nil, fmt.Errorf("cluster: decode submit response: %w", err)
			}
			// The worker hashed the wire-form scenario independently; a
			// mismatch means the round trip was lossy and the shared
			// store would dedup against the wrong key. Fail loudly — this
			// is a protocol bug, not a worker fault.
			if len(sub.ScenarioHashes) != 1 || sub.ScenarioHashes[0] != req.ScenarioHash {
				return nil, &errShardFailed{msg: fmt.Sprintf(
					"cluster: %s derived scenario hash %v, coordinator has %s (lossy wire round trip)",
					w.url, sub.ScenarioHashes, req.ScenarioHash)}
			}
			if sub.SpecHash != req.SpecHash {
				return nil, &errShardFailed{msg: fmt.Sprintf(
					"cluster: %s derived spec hash %s, coordinator has %s (spec drift)",
					w.url, sub.SpecHash, req.SpecHash)}
			}
			return &sub, nil
		case resp.StatusCode == http.StatusTooManyRequests:
			// Backpressure, not failure: the worker is alive and telling
			// us when its queue should drain. Honor the hint (capped, with
			// a little client-side jitter on top) and resubmit; past the
			// patience bound, let a less-loaded candidate take the shard.
			drainBody(resp)
			throttles++
			p.throttled.With(w.url).Inc()
			if throttles > maxThrottleWaits {
				return nil, fmt.Errorf("cluster: %s still saturated after %d Retry-After waits", w.url, throttles-1)
			}
			if err := sleepCtx(ctx, p.retryDelay(resp)); err != nil {
				return nil, err
			}
		case resp.StatusCode >= 500:
			drainBody(resp)
			w.markUnhealthy(time.Now())
			return nil, fmt.Errorf("cluster: submit: %s returned %s", w.url, resp.Status)
		default:
			// 400/401/...: every worker would answer the same — surface it
			// as terminal instead of burning the candidate list.
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
			resp.Body.Close()
			return nil, &errShardFailed{msg: fmt.Sprintf(
				"cluster: submit rejected by %s: %s: %s", w.url, resp.Status, strings.TrimSpace(string(msg)))}
		}
	}
}

// retryDelay extracts the worker's Retry-After hint, caps it, and adds
// ±20% client jitter so coordinator goroutines throttled together do
// not resubmit together.
func (p *Pool) retryDelay(resp *http.Response) time.Duration {
	d := time.Second
	if s := resp.Header.Get("Retry-After"); s != "" {
		if sec, err := strconv.Atoi(s); err == nil && sec > 0 {
			d = time.Duration(sec) * time.Second
		}
	}
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return time.Duration((0.8 + 0.4*rand.Float64()) * float64(d))
}

// streamResult tails the shard's NDJSON stream and converts its single
// terminal line into a result. When the shared store is reachable it
// re-reads the full-fidelity result the worker persisted (the stream
// carries only the report).
func (p *Pool) streamResult(ctx context.Context, w *worker, req service.RunRequest, sweepID string) (*core.Result, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet,
		w.url+"/api/sweeps/"+sweepID+"/stream", nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: build stream: %w", err)
	}
	if p.token != "" {
		hreq.Header.Set("Authorization", "Bearer "+p.token)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		w.markUnhealthy(time.Now())
		return nil, fmt.Errorf("cluster: stream: %w", err)
	}
	defer drainBody(resp)
	if resp.StatusCode != http.StatusOK {
		w.markUnhealthy(time.Now())
		return nil, fmt.Errorf("cluster: stream: %s returned %s", w.url, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var entry service.ResultEntry
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			w.markUnhealthy(time.Now())
			return nil, fmt.Errorf("cluster: stream: bad line from %s: %w", w.url, err)
		}
		switch entry.State {
		case service.StateDone, service.StateCached:
			return p.materialize(req, entry), nil
		case service.StateFailed:
			return nil, &errShardFailed{msg: fmt.Sprintf(
				"cluster: scenario failed on %s: %s", w.url, entry.Error)}
		case service.StateCancelled:
			// The worker died mid-drain or an operator cancelled it —
			// either way the shard should run elsewhere.
			w.markUnhealthy(time.Now())
			return nil, fmt.Errorf("cluster: shard cancelled on %s", w.url)
		}
	}
	if err := sc.Err(); err != nil {
		w.markUnhealthy(time.Now())
		return nil, fmt.Errorf("cluster: stream from %s broke: %w", w.url, err)
	}
	if ctx.Err() != nil {
		w.markUnhealthy(time.Now())
		return nil, fmt.Errorf("cluster: shard on %s stalled: %w", w.url, ctx.Err())
	}
	w.markUnhealthy(time.Now())
	return nil, fmt.Errorf("cluster: stream from %s ended without a terminal result", w.url)
}

// materialize converts a completed shard's stream entry into the
// coordinator-side result, preferring the full-fidelity store entry the
// worker persisted over the report-only stream line.
func (p *Pool) materialize(req service.RunRequest, entry service.ResultEntry) *core.Result {
	if p.store != nil {
		if res, err := p.store.Get(req.SpecHash, req.ScenarioHash); err == nil {
			return res
		}
	}
	return &core.Result{
		Scenario: req.Scenario,
		Report:   entry.Report,
		WallSec:  entry.WallSec,
	}
}

// cancelShard best-effort cancels an abandoned worker-side sweep so a
// re-dispatched shard does not keep burning the old worker's pool.
func (p *Pool) cancelShard(w *worker, sweepID string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.url+"/api/sweeps/"+sweepID+"/cancel", nil)
	if err != nil {
		return
	}
	if p.token != "" {
		hreq.Header.Set("Authorization", "Bearer "+p.token)
	}
	if resp, err := http.DefaultClient.Do(hreq); err == nil {
		drainBody(resp)
	}
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// drainBody discards and closes a response body so the transport can
// reuse the connection.
func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
