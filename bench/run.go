package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"os"
	"runtime"
	"time"

	"exadigit/bench/stat"
	"exadigit/internal/obs"
	"exadigit/internal/service"
)

// scale sizes every workload. fullScale is what the benchmark measures;
// the smoke test runs tinyScale through the same code.
type scale struct {
	full bool // expected digests apply only at full scale

	coolHorizon float64 // cooled-sweep scenario length
	coolSeeds   int     // job seeds per cooled-sweep round (×3 plants)

	whatifHorizon float64 // whatif-sweep scenario length

	warmKeys     int     // distinct results populated at set-up
	warmHorizon  float64 // their scenario length
	warmRequests int     // requests per client per epoch

	setups     int           // set-ups per run at least; setup_s is their median
	setupSpend time.Duration // and more while they have taken less than this,
	maxSetups  int           // up to this many
	restarts   int           // restarts after the timed part; restart_ms is their median
	sample     time.Duration // length of a host-speed sample; 0 takes none
	replayCap  int           // cooling samples replayed per plant in the layer trace
}

var fullScale = scale{
	full:        true,
	coolHorizon: 6 * 3600, coolSeeds: 2,
	whatifHorizon: 86400,
	warmKeys:      256, warmHorizon: 3600, warmRequests: 200,
	setups: 3, setupSpend: time.Second, maxSetups: 20, restarts: 50, sample: sampleTime, replayCap: 5760,
}

var tinyScale = scale{
	coolHorizon: 1800, coolSeeds: 1,
	whatifHorizon: 3 * 3600,
	warmKeys:      16, warmHorizon: 1800, warmRequests: 4,
	setups: 2, restarts: 2, replayCap: 120,
}

// derive maps the run seed and a path of integers to an independent
// generator seed, so every input depends on -seed alone and a round's
// inputs do not depend on how many rounds ran before it.
func derive(seed int64, path ...int) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	for _, p := range path {
		fmt.Fprint(h, "/", p)
	}
	return int64(h.Sum64() >> 2)
}

// unit maps a derived seed onto [0, 1).
func unit(v int64) float64 { return float64(v) / float64(int64(1)<<62) }

// runner executes one workload: set-up, the timed closed loop,
// restarts, output checks and, when tracing, the layer replays.
type runner struct {
	name    string
	wl      workload
	seed    int64
	sc      scale
	seconds time.Duration
	trace   bool
	work    string // scratch directory owned by this run

	storeDir string
	srv      *server
	hc       *http.Client
	cl       *client

	host      speedLog // host-speed samples around every timed item
	setups    []interval
	rounds    []interval
	restarts  []interval
	reqs      []reqTiming
	terminal  int // scenarios completed in the timed part
	attempted int
	failed    int

	spans      []obs.Span
	problems   []string     // failed output checks
	observed   *expectation // digests taken for expected.json
	recordOnly bool         // take digests without comparing them
}

func (r *runner) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *runner) attach(s *server) {
	r.srv = s
	r.cl.base = s.base
}

// stopServer takes the current instance down, keeping its spans on a
// traced run.
func (r *runner) stopServer() {
	spans := r.srv.stop()
	if r.trace {
		r.spans = append(r.spans, spans...)
	}
	r.srv = nil
	r.hc.CloseIdleConnections()
}

// account books one sweep request of n scenarios.
func (r *runner) account(n int, entries []service.ResultEntry, t reqTiming, err error) {
	r.attempted += n
	if err != nil {
		r.failed += n
		r.fail("request: %v", err)
		return
	}
	r.reqs = append(r.reqs, t)
	r.terminal += len(entries)
	ok := 0
	for _, e := range entries {
		if e.State == service.StateDone || e.State == service.StateCached {
			ok++
		}
	}
	r.failed += n - ok
}

// restart kills the instance and brings up a new one over the same
// store; the restart time ends when the new instance accepts the
// workload's probe sweep.
func (r *runner) restart() error {
	r.stopServer()
	// A restarted process starts with an empty heap; collecting the old
	// instance's garbage first keeps its cost out of the new one's start.
	runtime.GC()
	start := time.Now()
	srv, err := startServer(r.storeDir, r.trace)
	if err != nil {
		return err
	}
	r.attach(srv)
	probe := r.wl.probe()
	var ack service.SubmitResponse
	if err := r.cl.post("/api/sweeps", probe, &ack); err != nil {
		return err
	}
	r.restarts = append(r.restarts, interval{start, time.Since(start)})
	// Drain the probe so nothing is in flight at the next stop.
	n := 0
	err = r.cl.stream("/api/sweeps/"+ack.ID+"/stream", func(line []byte) error {
		n++
		return nil
	})
	if err == nil && n != len(probe.Scenarios) {
		err = fmt.Errorf("restart probe streamed %d of %d results", n, len(probe.Scenarios))
	}
	return err
}

// result is one run's outcome, from which the last stdout line is built.
type result struct {
	correct   bool
	attempted int
	failed    int
	e2e       map[string]float64
	layers    map[string]float64 // traced runs only
}

func (r *runner) run() (res result, err error) {
	r.hc = newHTTPClient()
	defer r.hc.CloseIdleConnections()
	r.cl = &client{hc: r.hc}
	defer func() {
		if r.srv != nil {
			r.srv.stop()
		}
	}()
	if r.sc.sample > 0 {
		r.host = speedLog{probe: newHostProbe(), d: r.sc.sample}
	}

	// A set-up of a few milliseconds is mostly scheduling jitter, so cheap
	// set-ups repeat until a second has gone into them, up to maxSetups.
	var spent time.Duration
	r.host.mark()
	for i := 0; i < r.sc.setups || (spent < r.sc.setupSpend && i < r.sc.maxSetups); i++ {
		if r.srv != nil {
			r.srv.stop() // an earlier set-up's instance: not the measured one
			r.srv = nil
			r.hc.CloseIdleConnections()
		}
		start := time.Now()
		if r.storeDir, err = freshDir(r.work, "store"); err != nil {
			return res, err
		}
		srv, err := startServer(r.storeDir, r.trace)
		if err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		r.attach(srv)
		if err := r.wl.warm(r); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, interval{start, time.Since(start)})
		spent += r.setups[i].d
		r.host.mark()
	}

	// The timed part is a fixed amount of work — the same rounds on every
	// run of a seed — sized so it lasts about r.seconds on the reference
	// host. Only a host so slow that the work would take 30 % longer than
	// that cuts it short, which keeps a run's length bounded.
	rounds := int(math.Max(1, math.Round(r.seconds.Seconds()/r.wl.roundSec())))
	begin := time.Now()
	for i := 0; i < rounds; i++ {
		if i > 0 && time.Since(begin) > r.seconds*13/10 {
			fmt.Printf("host too slow: stopped after %d of %d rounds\n", i, rounds)
			break
		}
		start := time.Now()
		if err := r.wl.round(r, i); err != nil {
			return res, fmt.Errorf("round %d: %w", i, err)
		}
		r.rounds = append(r.rounds, interval{start, time.Since(start)})
		r.host.mark()
	}

	if len(r.restarts) == 0 {
		// A restart takes milliseconds and the host's speed wanders over
		// seconds, so there are many, each between two speed samples.
		for i := 0; i < r.sc.restarts; i++ {
			if err := r.restart(); err != nil {
				return res, fmt.Errorf("restart: %w", err)
			}
			r.host.mark()
		}
	}
	r.stopServer()
	r.wl.check(r)

	res = result{attempted: r.attempted, failed: r.failed, e2e: r.endToEnd()}
	if r.trace {
		fmt.Println("traced run, end to end:")
		printMetrics(res.e2e, e2eMetrics)
		if res.layers, err = r.layers(); err != nil {
			return res, err
		}
	}
	for _, p := range r.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	res.correct = len(r.problems) == 0
	return res, nil
}

// endToEnd computes the end-to-end metrics as they would read on the
// reference host, and prints them as measured on this one.
func (r *runner) endToEnd() map[string]float64 {
	// Each metric's per-item values: as measured, and on the reference host.
	raw, ref := map[string][]float64{}, map[string][]float64{}
	add := func(name string, iv interval, scale float64) {
		raw[name] = append(raw[name], iv.d.Seconds()*scale)
		ref[name] = append(ref[name], r.host.ref(iv)*scale)
	}
	for _, iv := range r.setups {
		add("setup_s", iv, 1)
	}
	for _, iv := range r.rounds {
		add("round_s", iv, 1)
	}
	for _, t := range r.reqs {
		add("first_result_s", interval{t.start, t.first}, 1)
		add("req_p50_ms", interval{t.start, t.total}, 1000)
	}
	for _, iv := range r.restarts {
		add("restart_ms", iv, 1000)
	}
	rss, err := peakRSSMB()
	if err != nil {
		r.fail("peak RSS: %v", err)
	}
	metrics := func(v map[string][]float64) map[string]float64 {
		return map[string]float64{
			"setup_s":        stat.Median(v["setup_s"]),
			"scen_per_s":     float64(r.terminal) / sum(v["round_s"]),
			"first_result_s": stat.Median(v["first_result_s"]),
			"req_p50_ms":     stat.Median(v["req_p50_ms"]),
			"restart_ms":     stat.Median(v["restart_ms"]),
			"peak_rss_mb":    rss,
		}
	}
	fmt.Println("as measured on this host:")
	printMetrics(metrics(raw), e2eMetrics)
	if n := len(r.host.speed); n > 0 {
		q1, med, q3 := stat.Quartiles(r.host.speed)
		fmt.Printf("host speed (reference host = 1): median %.3f, quartiles %.3f–%.3f; %d samples, %.2f s\n",
			med, q1, q3, n, r.host.spent.Seconds())
	}
	fmt.Printf("%d requests, %d scenarios in %d rounds, %.2f s; %d set-ups; %d restarts\n",
		len(r.reqs), r.terminal, len(r.rounds), sum(raw["round_s"]), len(r.setups), len(r.restarts))
	return metrics(ref)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// metric names a reported value and its unit; the lists below are the
// ones BENCHMARK.json declares, in its order.
type metric struct{ name, unit string }

var e2eMetrics = []metric{
	{"setup_s", "s"},
	{"scen_per_s", "1/s"},
	{"first_result_s", "s"},
	{"req_p50_ms", "ms"},
	{"restart_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

func printMetrics(m map[string]float64, list []metric) {
	for _, mt := range list {
		fmt.Printf("  %-28s %14.6g %s\n", mt.name, m[mt.name], mt.unit)
	}
}

// workDir creates the run's scratch directory under the current
// directory — the repository root when run through run.sh — so a run
// writes nowhere else.
func workDir() (string, error) {
	dir := fmt.Sprintf(".bench_build/work-%d", os.Getpid())
	return dir, os.MkdirAll(dir, 0o755)
}
