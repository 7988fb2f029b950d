// Command exadigit runs the integrated digital twin and serves it over
// HTTP (the paper's web-dashboard backend, §III-B6/III-D): it simulates
// a scenario on the Frontier twin, then serves the dashboard's
// /api/status, /api/series and /api/cooling, the scenario-sweep API and
// the Prometheus /metrics exposition. What-if experiments are launched
// and recalled as sweeps (POST /api/sweeps, NDJSON result streaming), as
// through the paper's Kubernetes-hosted dashboard.
//
// The serve subcommand starts the twin-as-a-service backend: the same
// handler tree over a sweep service with production knobs (worker pool,
// admission bound, timeouts, durable store, auth, pprof). Passing worker
// URLs instead of a worker count turns the instance into a cluster
// coordinator that fans sweeps out to those workers over the same API
// (see README "Distributed sweeps").
//
// Usage:
//
//	exadigit [-addr :8080] [-workload synthetic] [-horizon 2h]
//	         [-cooling] [-once]
//	exadigit serve [-addr :8080] [-workers N|url,url,...] [-cache 1024]
//	               [-cache-bytes 268435456] [-spec spec.json] [-warm 15m]
//	               [-presets plants.json] [-token SECRET]
//	               [-store DIR] [-lease-ttl 0] [-quarantine-ttl 0]
//	               [-shard-stall 2m] [-scenario-timeout 0]
//	               [-max-attempts 3] [-max-pending 4096] [-drain 30s]
//	               [-trace FILE] [-metrics-log-every 60s] [-pprof]
//	exadigit metrics-dump   print the fully wired /metrics exposition
//	exadigit metrics-lint   validate it (format + naming conventions)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"exadigit"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("exadigit: ")

	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			serve(os.Args[2:])
			return
		case "metrics-dump":
			metricsExposition(true)
			return
		case "metrics-lint":
			metricsExposition(false)
			return
		}
	}

	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		workload = flag.String("workload", "synthetic", "initial scenario workload")
		horizon  = flag.Duration("horizon", 2*time.Hour, "initial scenario duration")
		cool     = flag.Bool("cooling", true, "couple the cooling model")
		once     = flag.Bool("once", false, "run the scenario, print status, and exit (no server)")
	)
	flag.Parse()

	tw, err := exadigit.NewFrontierTwin()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("running initial %s scenario (%v)...", *workload, *horizon)
	res, err := tw.Run(exadigit.Scenario{
		Workload:   exadigit.WorkloadKind(*workload),
		HorizonSec: horizon.Seconds(),
		TickSec:    15,
		Cooling:    *cool,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("scenario done: %.2f MW avg, %d jobs, PUE %.3f",
		res.Report.AvgPowerMW, res.Report.JobsCompleted, res.Report.AvgPUE)
	fmt.Print(exadigit.RenderStatus(tw))

	if *once {
		return
	}
	// What-ifs go through an in-memory sweep service with default
	// options: the same admission, worker slots and cache as serve.
	h, _ := handler(exadigit.NewSweepService(exadigit.SweepServiceOptions{}), tw, log.Printf, false)
	log.Printf("serving dashboard and sweep API on %s", *addr)
	logRoutes(false)
	if err := http.ListenAndServe(*addr, h); err != nil {
		log.Fatal(err)
	}
}

// handler builds the one handler tree every mode serves: the sweep and
// optimize API, the dashboard over tw, GET /metrics and, with pprofOn,
// /debug/pprof. The dashboard's request counters, the twin's gauges and
// the Go runtime join the service's registry, so /metrics covers every
// subsystem. logf (nil for none) logs requests on both stacks and the
// service's journal events.
func handler(svc *exadigit.SweepService, tw *exadigit.Twin, logf func(string, ...any), pprofOn bool) (http.Handler, *exadigit.DashboardServer) {
	svc.SetLogf(logf)
	dash := exadigit.NewDashboardServer(tw)
	dash.SetLogf(logf)
	reg := svc.Registry()
	dash.RegisterMetrics(reg)
	exadigit.RegisterTwinMetrics(reg, tw)
	exadigit.RegisterGoMetrics(reg)

	mux := http.NewServeMux()
	sweepAPI := svc.Handler()
	for _, pattern := range []string{"/api/sweeps", "/api/sweeps/", "/api/optimize", "/api/optimize/"} {
		mux.Handle(pattern, sweepAPI)
	}
	mux.Handle("GET /metrics", reg.Handler())
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.Handle("/", dash.Handler())
	return mux, dash
}

// logRoutes lists the handler tree's endpoints at startup.
func logRoutes(pprofOn bool) {
	routes := []string{
		"GET  /api/status               — live status of the dashboard twin",
		"GET  /api/series               — power/PUE/utilization history",
		"GET  /api/cooling              — the compiled plant's output channels",
		"POST /api/sweeps               — submit a what-if sweep (per-scenario cooling_spec mixes plants)",
		"GET  /api/sweeps               — list sweeps",
		"GET  /api/sweeps/{id}          — sweep status",
		"GET  /api/sweeps/{id}/results  — completed results",
		"GET  /api/sweeps/{id}/stream   — NDJSON results as they complete",
		"POST /api/sweeps/{id}/cancel   — cancel queued and in-flight work (aborts mid-day)",
		"GET  /api/sweeps/trace         — NDJSON scenario lifecycle spans (?limit=N)",
		"POST /api/optimize             — submit a co-design study (surrogate-screened search)",
		"GET  /api/optimize/{id}/stream — NDJSON per-generation progress, then the result",
		"GET  /metrics                  — Prometheus text exposition",
	}
	if pprofOn {
		routes = append(routes, "GET  /debug/pprof/             — runtime profiling (heap, cpu, goroutines)")
	}
	for _, r := range routes {
		log.Printf("  %s", r)
	}
}

// serve runs the twin-as-a-service mode: the shared handler tree over a
// sweep service configured from the flags, behind optional bearer-token
// auth, with a graceful drain on shutdown.
func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr       = fs.String("addr", ":8080", "HTTP listen address")
		workers    = fs.String("workers", "0", "an integer bounds concurrent local simulations (0 = all CPUs); comma-separated base URLs (http://host:8080,...) switch to coordinator mode, fanning sweeps out to those worker serve instances")
		cacheCap   = fs.Int("cache", 1024, "result-cache capacity (scenario results)")
		cacheBytes = fs.Int64("cache-bytes", 256<<20, "result-cache byte bound (approximate resident size)")
		specPath   = fs.String("spec", "", "system spec JSON for the dashboard twin (default: built-in Frontier)")
		warm       = fs.Duration("warm", 15*time.Minute, "warm-up scenario horizon for the dashboard twin (0 skips)")
		presets    = fs.String("presets", "", "cooling preset registry JSON ({\"name\": {plant config}}), resolved before built-ins")
		token      = fs.String("token", "", "bearer token required on every request (default $EXADIGIT_TOKEN; empty disables auth)")
		storeDir   = fs.String("store", "", "durable result-store directory: completed scenario results persist here and survive restarts (empty = memory-only)")
		leaseTTL   = fs.Duration("lease-ttl", 0, "cross-node single-flight: lease each store key this long before computing it, so nodes sharing -store never duplicate a run; size for worst-case scenario compute (0 disables; ignored in coordinator mode)")
		quarTTL    = fs.Duration("quarantine-ttl", 0, "delete *.corrupt quarantine files older than this from -store at startup (0 keeps them forever)")
		shardStall = fs.Duration("shard-stall", 2*time.Minute, "coordinator mode: one shard's submit+stream bound on one worker before it is re-dispatched elsewhere (0 = no per-worker bound)")
		scenTO     = fs.Duration("scenario-timeout", 0, "per-scenario attempt deadline (0 = none); overrunning attempts are retried")
		attempts   = fs.Int("max-attempts", 3, "simulation attempts per scenario before its failure is permanent")
		maxPending = fs.Int("max-pending", 4096, "queued+running scenario bound; beyond it submissions get 429 + Retry-After")
		drain      = fs.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight sweeps before cancelling them")
		resume     = fs.Bool("resume", true, "re-adopt journaled sweeps from -store at startup: finished sweeps stay queryable, interrupted sweeps resume where the previous process died (needs -store)")
		traceFile  = fs.String("trace", "", "append every scenario lifecycle span to FILE as NDJSON (the /api/sweeps/trace ring persisted)")
		logEvery   = fs.Duration("metrics-log-every", time.Minute, "period of the metrics heartbeat log line (0 disables; final flush still happens at shutdown)")
		pprofOn    = fs.Bool("pprof", true, "mount /debug/pprof profiling endpoints (behind the bearer token when one is set)")
	)
	_ = fs.Parse(args)
	if *token == "" {
		// Read the env fallback after parsing rather than as the flag
		// default, so usage/error output never prints the secret.
		*token = os.Getenv("EXADIGIT_TOKEN")
	}

	// -workers dual-parses: an integer keeps the historical meaning
	// (local simulation pool size); anything else is a comma-separated
	// worker URL list that switches this instance into coordinator mode.
	localWorkers := 0
	var workerURLs []string
	if n, err := strconv.Atoi(strings.TrimSpace(*workers)); err == nil {
		localWorkers = n
	} else {
		for _, u := range strings.Split(*workers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				workerURLs = append(workerURLs, u)
			}
		}
		if len(workerURLs) == 0 {
			log.Fatalf("-workers %q: not an integer and no worker URLs", *workers)
		}
	}

	if *presets != "" {
		names, err := exadigit.RegisterCoolingPresetsFromFile(*presets)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("registered cooling presets from %s: %v", *presets, names)
	}

	spec := exadigit.FrontierSpec()
	if *specPath != "" {
		loaded, err := exadigit.LoadSpec(*specPath)
		if err != nil {
			log.Fatal(err)
		}
		spec = *loaded
	}
	tw, err := exadigit.NewTwin(spec)
	if err != nil {
		log.Fatal(err)
	}
	if *warm > 0 {
		log.Printf("warming dashboard twin with a %v synthetic scenario...", *warm)
		if _, err := tw.Run(exadigit.Scenario{
			Workload:   exadigit.WorkloadSynthetic,
			HorizonSec: warm.Seconds(),
			TickSec:    15,
		}); err != nil {
			log.Fatal(err)
		}
	}

	var resultStore *exadigit.ResultStore
	if *storeDir != "" {
		var err error
		resultStore, err = exadigit.OpenResultStoreOptions(*storeDir,
			exadigit.ResultStoreOptions{QuarantineTTL: *quarTTL})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("durable result store at %s (%d entries indexed)", *storeDir, resultStore.Len())
	}

	// One registry serves every subsystem: the sweep service, the
	// coordinator pool (when present), the dashboard stack, the live
	// twin's gauges, and the Go runtime.
	reg := exadigit.NewMetricsRegistry()

	svcOpts := exadigit.SweepServiceOptions{
		Workers: localWorkers, CacheCap: *cacheCap, CacheMaxBytes: *cacheBytes,
		Store: resultStore, ScenarioTimeout: *scenTO,
		MaxAttempts: *attempts, MaxPending: *maxPending,
		LeaseTTL: *leaseTTL, Registry: reg,
	}
	if len(workerURLs) > 0 {
		pool, err := exadigit.NewClusterPool(exadigit.ClusterOptions{
			Workers: workerURLs, Token: *token, Registry: reg,
			Store: resultStore, StallTimeout: *shardStall, Logf: log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		svcOpts.Runner = pool
		if localWorkers == 0 {
			// Dispatch slots only wait on worker HTTP, so size the pool
			// well past the CPU count: keep every worker's queue fed.
			svcOpts.Workers = 8 * len(workerURLs)
		}
		log.Printf("coordinator mode: dispatching to %d worker(s) %v (shard stall bound %v)",
			len(workerURLs), workerURLs, *shardStall)
	}
	svc := exadigit.NewSweepService(svcOpts)
	h, dash := handler(svc, tw, log.Printf, *pprofOn)
	if *resume && resultStore != nil {
		// Recovery must precede serving: a request for a journaled sweep
		// id races the re-adoption otherwise.
		stats, err := svc.Recover()
		if err != nil {
			log.Printf("sweep recovery: %v (continuing without)", err)
		} else if stats.Adopted+stats.Finished > 0 {
			log.Printf("sweep recovery: resumed %d interrupted sweep(s) (%d scenarios restored terminal, %d re-enqueued), re-registered %d finished",
				stats.Adopted, stats.Terminal, stats.Requeued, stats.Finished)
		}
	}
	var traceSink *os.File
	if *traceFile != "" {
		var err error
		traceSink, err = os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		svc.Tracer().SetSink(traceSink)
		log.Printf("appending scenario lifecycle spans to %s", *traceFile)
	}

	h = exadigit.RequireBearerToken(*token, h)
	if *token != "" {
		log.Printf("bearer-token auth enabled (every request needs Authorization: Bearer <token>)")
	}

	// Periodic metrics heartbeat: the counters appear in the log on a
	// cadence, not only at shutdown, so a wedged or killed -9 process
	// still leaves recent accounting behind.
	heartbeatDone := make(chan struct{})
	if *logEvery > 0 {
		go func() {
			t := time.NewTicker(*logEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					log.Printf("metrics: sweeps %s | http %s", svc.Summary(), svc.Metrics().Summary())
				case <-heartbeatDone:
					return
				}
			}
		}()
	}

	log.Printf("serving twin-as-a-service on %s (%d workers, cache %d entries / %d MiB)",
		*addr, svc.Workers(), *cacheCap, *cacheBytes>>20)
	logRoutes(*pprofOn)

	server := &http.Server{Addr: *addr, Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		return
	case sig := <-sigc:
		log.Printf("received %v; draining in-flight sweeps (up to %v, signal again to cancel them)", sig, *drain)
	}

	// Shutdown sequence: stop admitting sweeps (refused submissions get
	// a Retry-After derived from the drain window), drain what's running
	// (a second signal cancels instead of waiting), then shut the
	// listener down and flush the final metrics so the process's
	// accounting isn't lost with it.
	svc.CloseDraining(*drain)
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drain)
	go func() {
		<-sigc
		log.Printf("second signal: cancelling in-flight sweeps")
		svc.CancelAll()
	}()
	if err := svc.Drain(drainCtx); err != nil {
		log.Printf("drain incomplete (%v); cancelling remaining sweeps", err)
		svc.CancelAll()
		fallback, cancelFallback := context.WithTimeout(context.Background(), 5*time.Second)
		_ = svc.Drain(fallback)
		cancelFallback()
	}
	cancelDrain()

	shutCtx, cancelShut := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelShut()
	if err := server.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}

	close(heartbeatDone)
	log.Printf("sweep http: %s", svc.Metrics().Summary())
	log.Printf("dashboard http: %s", dash.Metrics().Summary())
	log.Printf("sweeps: %s", svc.Summary())
	if traceSink != nil {
		if err := svc.Tracer().SinkErr(); err != nil {
			log.Printf("trace sink detached after write error: %v", err)
		}
		_ = traceSink.Close()
	}
	if st := svc.Store(); st != nil {
		sm := st.Stats()
		log.Printf("store: hits=%d misses=%d puts=%d put_errors=%d corrupt=%d entries=%d bytes=%d",
			sm.Hits, sm.Misses, sm.Puts, sm.PutErrors, sm.CorruptQuarantined, sm.Entries, sm.Bytes)
	}
	log.Printf("shutdown complete")
}

// metricsExposition wires the full serve-mode registry through the
// shared handler tree (sweep service, dashboard stack, twin gauges, Go
// runtime), exercises it with one tiny sweep and a couple of requests so
// the labeled families carry series, and either prints the exposition
// (dump=true) or runs the strict format validator plus the
// naming-convention lint over it — the engine
// behind scripts/metrics_lint.sh and `make check`.
func metricsExposition(dump bool) {
	tw, err := exadigit.NewFrontierTwin()
	if err != nil {
		log.Fatal(err)
	}
	svc := exadigit.NewSweepService(exadigit.SweepServiceOptions{Workers: 2})
	reg := svc.Registry()
	h, _ := handler(svc, tw, nil, false)

	sw, err := svc.Submit(exadigit.FrontierSpec(), []exadigit.Scenario{
		{Workload: exadigit.WorkloadSynthetic, HorizonSec: 60, TickSec: 15, NoExport: true, NoHistory: true},
	}, exadigit.SweepOptions{Name: "metrics-lint"})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := sw.Wait(ctx); err != nil {
		log.Fatal(err)
	}
	for _, path := range []string{"/api/sweeps", "/api/sweeps/" + sw.ID(), "/api/status"} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", path, nil))
	}

	// Coordinator families: run one shard through an in-process worker
	// so the exadigit_cluster_* series exist and get linted too.
	wsvc := exadigit.NewSweepService(exadigit.SweepServiceOptions{Workers: 1})
	wsrv := httptest.NewServer(wsvc.Handler())
	defer wsrv.Close()
	pool, err := exadigit.NewClusterPool(exadigit.ClusterOptions{Workers: []string{wsrv.URL}, Registry: reg})
	if err != nil {
		log.Fatal(err)
	}
	coord := exadigit.NewSweepService(exadigit.SweepServiceOptions{Workers: 2, Runner: pool})
	csw, err := coord.Submit(exadigit.FrontierSpec(), []exadigit.Scenario{
		{Workload: exadigit.WorkloadIdle, HorizonSec: 60, TickSec: 15, NoExport: true, NoHistory: true},
	}, exadigit.SweepOptions{Name: "metrics-lint-cluster"})
	if err != nil {
		log.Fatal(err)
	}
	if err := csw.Wait(ctx); err != nil {
		log.Fatal(err)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.Bytes()
	if dump {
		os.Stdout.Write(body)
		return
	}
	e, err := exadigit.ParseMetricsExposition(body)
	if err != nil {
		log.Fatalf("metrics-lint: exposition invalid: %v", err)
	}
	if err := exadigit.ValidateMetricsConventions(e, "exadigit_"); err != nil {
		log.Fatalf("metrics-lint: naming conventions violated: %v", err)
	}
	fmt.Printf("metrics-lint ok: %d families, %d series, %d bytes\n",
		len(e.FamilyNames()), len(e.Series()), len(body))
}
