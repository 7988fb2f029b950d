// Dashboard: serve the twin's REST API and poke it like the paper's web
// dashboard does (§III-B6): read live status, pull the power series, and
// read the cooling plant's output channels. What-if runs are sweeps;
// examples/sweep-service launches and recalls them over HTTP.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"

	"exadigit"
)

func main() {
	log.SetFlags(0)

	tw, err := exadigit.NewFrontierTwin()
	if err != nil {
		log.Fatal(err)
	}
	// Prime the twin with a short cooled HPL run.
	if _, err := tw.Run(exadigit.Scenario{
		Workload:         exadigit.WorkloadHPL,
		HorizonSec:       1800,
		TickSec:          15,
		Cooling:          true,
		BenchmarkWallSec: 3600,
	}); err != nil {
		log.Fatal(err)
	}

	srv := httptest.NewServer(exadigit.DashboardHandler(tw))
	defer srv.Close()
	fmt.Printf("dashboard API serving at %s\n\n", srv.URL)

	get := func(path string) []byte {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			log.Fatal(err)
		}
		return body
	}

	fmt.Printf("GET /api/status →\n  %s\n", get("/api/status"))

	var series []map[string]float64
	if err := json.Unmarshal(get("/api/series"), &series); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GET /api/series → %d samples (last power %.2f MW)\n",
		len(series), series[len(series)-1]["power_mw"])

	var coolingOut []map[string]float64
	if err := json.Unmarshal(get("/api/cooling"), &coolingOut); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GET /api/cooling → %d channels\n", len(coolingOut))
	fmt.Println("\nWhat-if runs are sweeps (POST /api/sweeps): go run ./examples/sweep-service")
}
