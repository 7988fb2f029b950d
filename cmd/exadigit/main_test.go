package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"exadigit"
)

// TestHandlerServesOneTree pins the handler tree every mode serves: the
// dashboard's /api/status, a what-if submitted through POST /api/sweeps
// and streamed to completion, and /metrics. The what-if leaves the
// dashboard twin's status alone, and the dashboard takes no POSTs: the
// sweep API is the only what-if path.
func TestHandlerServesOneTree(t *testing.T) {
	tw, err := exadigit.NewFrontierTwin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Run(exadigit.Scenario{Workload: exadigit.WorkloadIdle, HorizonSec: 60, TickSec: 15}); err != nil {
		t.Fatal(err)
	}
	svc := exadigit.NewSweepService(exadigit.SweepServiceOptions{Workers: 1})
	defer svc.Close()
	h, _ := handler(svc, tw, nil, false)
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	type dashStatus struct {
		TimeSec float64 `json:"time_sec"`
		PowerMW float64 `json:"power_mw"`
	}
	status := func() dashStatus {
		t.Helper()
		code, body := get("/api/status")
		var st dashStatus
		if err := json.Unmarshal([]byte(body), &st); code != http.StatusOK || err != nil {
			t.Fatalf("GET /api/status = %d %q (%v)", code, body, err)
		}
		return st
	}
	before := status()

	resp, err := http.Post(srv.URL+"/api/sweeps", "application/json", strings.NewReader(
		`{"scenarios":[{"workload":"idle","power_mode":"dc380","horizon_sec":600,"tick_sec":15}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		t.Fatalf("POST /api/sweeps = %d (%v)", resp.StatusCode, err)
	}
	stream, err := http.Get(srv.URL + "/api/sweeps/" + ack.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for sc := bufio.NewScanner(stream.Body); sc.Scan(); {
		lines = append(lines, sc.Text())
	}
	stream.Body.Close()
	if len(lines) != 1 || !strings.Contains(lines[0], `"state":"done"`) || !strings.Contains(lines[0], `"report"`) {
		t.Fatalf("stream = %q, want one done result with a report", lines)
	}
	if after := status(); after.TimeSec != before.TimeSec || after.PowerMW != before.PowerMW {
		t.Errorf("what-if replaced the dashboard twin's run: status %+v → %+v", before, after)
	}

	code, metrics := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, want := range []string{
		`exadigit_http_requests_total{server="dashboard"`,
		`exadigit_http_requests_total{server="sweeps"`,
		"exadigit_twin_power_watts",
		"exadigit_sweep_workers",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/status", strings.NewReader("mode=dc380")))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /api/status = %d, want 405", rec.Code)
	}
}
