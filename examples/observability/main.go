// Observability: the unified metrics and tracing layer end to end.
//
// The sweep service, the live twin, and the Go runtime all report into
// one metric registry; this example runs a small sweep with duplicate
// scenarios (so the cache tiers show up in the traces), then:
//
//  1. scrapes /metrics and prints the Prometheus exposition highlights,
//  2. re-validates the scrape under the strict format parser and the
//     exadigit_ naming conventions — the same gate `make check` runs,
//  3. pulls the per-scenario lifecycle traces from /api/sweeps/trace
//     and prints each scenario's attempt timeline (queue wait, run
//     time, outcome, cache tier), showing the memory-tier hits of the
//     duplicate scenarios.
//
// /metrics is the only metrics surface: every service, store, HTTP and
// twin counter is one of its families.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"net/http/httptest"
	"sort"
	"strings"

	"exadigit"
)

func main() {
	log.SetFlags(0)

	svc := exadigit.NewSweepService(exadigit.SweepServiceOptions{Workers: 4})
	reg := svc.Registry()
	exadigit.RegisterGoMetrics(reg)

	tw, err := exadigit.NewFrontierTwin()
	if err != nil {
		log.Fatal(err)
	}
	exadigit.RegisterTwinMetrics(reg, tw)

	// A 6-scenario sweep: four distinct runs, one duplicated twice (the
	// duplicates resolve from the in-memory cache tier).
	var scenarios []exadigit.Scenario
	for _, seed := range []int64{1, 2, 3, 4, 1, 1} {
		gen := exadigit.DefaultGeneratorConfig()
		gen.Seed = seed
		scenarios = append(scenarios, exadigit.Scenario{
			Name: fmt.Sprintf("obs-%d", seed), Workload: exadigit.WorkloadSynthetic,
			HorizonSec: 3 * 3600, TickSec: 15, Generator: gen,
			NoExport: true, NoHistory: true,
		})
	}

	fmt.Println("running a 6-scenario sweep (4 unique + 2 cache-hit duplicates)...")
	sw, err := svc.Submit(exadigit.FrontierSpec(), scenarios, exadigit.SweepOptions{Name: "observability"})
	if err != nil {
		log.Fatal(err)
	}
	<-sw.Done()
	st := sw.Status()
	fmt.Printf("sweep finished: done=%d cached=%d failed=%d\n\n", st.Done, st.Cached, st.Failed)

	// --- 1. Scrape /metrics -------------------------------------------
	handler := svc.Handler()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	scrape := rec.Body.Bytes()

	// --- 2. Strict validation — the `make check` gate -----------------
	expo, err := exadigit.ParseMetricsExposition(scrape)
	if err != nil {
		log.Fatalf("exposition failed strict validation: %v", err)
	}
	if err := exadigit.ValidateMetricsConventions(expo, "exadigit_"); err != nil {
		log.Fatalf("exposition violates naming conventions: %v", err)
	}
	fmt.Printf("scraped /metrics: %d bytes, %d families, strict-validated\n",
		len(scrape), len(expo.FamilyNames()))
	fmt.Println("exposition highlights:")
	series := expo.Series()
	var ids []string
	for id := range series {
		if strings.HasPrefix(id, "exadigit_cache_") || strings.HasPrefix(id, "exadigit_sweep_") {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Printf("  %-45s %g\n", id, series[id])
	}
	fmt.Println()

	// --- 3. Per-scenario lifecycle traces -----------------------------
	fmt.Println("lifecycle traces (/api/sweeps/trace):")
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/api/sweeps/trace", nil))
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var span exadigit.ScenarioSpan
		if err := json.Unmarshal(sc.Bytes(), &span); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  [%d] %-6s tier=%-7s queue=%.3fs total=%.3fs",
			span.Index, span.State, span.CacheTier, span.QueueSec, span.TotalSec)
		for _, a := range span.Attempts {
			fmt.Printf("  attempt%d{run=%.3fs %s}", a.Attempt, a.RunSec, a.Outcome)
		}
		fmt.Println()
	}
}
