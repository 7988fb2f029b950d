package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"exadigit/internal/obs"
	"exadigit/internal/service"
	"exadigit/internal/store"
)

// The service under test runs the configuration a 2-core host serves
// with: two simulation workers and a durable store. A traced run widens
// the span ring to hold a whole warm-restart epoch; allocating that ring
// is part of the tracing overhead.
const (
	serviceWorkers = 2
	tracedSpans    = 1 << 14
)

// server is one instance of the sweep service on a loopback listener,
// backed by a durable store directory that outlives the instance.
type server struct {
	svc    *service.Service
	srv    *http.Server
	base   string
	served chan struct{}
}

// startServer is the service's start-up path: open the store, build the
// service, recover journaled sweeps, and serve its handler.
func startServer(storeDir string, traced bool) (*server, error) {
	st, err := store.Open(storeDir)
	if err != nil {
		return nil, err
	}
	opts := service.Options{Workers: serviceWorkers, Store: st}
	if traced {
		opts.TraceCap = tracedSpans
	}
	svc := service.New(opts)
	if _, err := svc.Recover(); err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler()},
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// stop takes the instance down, waits for its goroutines, and returns
// the scenario lifecycle spans it emitted (the ones /api/sweeps/trace
// serves). Clients read every stream to its end before a stop, so no
// sweep is in flight; cancelling is a guard, not part of the measured
// path. Draining first matters for the spans: a scenario's span is
// emitted just after its result streams.
func (s *server) stop() []obs.Span {
	s.svc.Close()
	s.svc.CancelAll()
	_ = s.srv.Close()
	<-s.served
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.svc.Drain(ctx)
	return s.svc.Tracer().Snapshot()
}

// client is one closed-loop user: it sends its next request only after
// the previous stream ended.
type client struct {
	base string
	hc   *http.Client
}

// newHTTPClient allows at most two connections, one per concurrent
// client of the busiest workload.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
}

// reqTiming splits one request that began at start: POST → 202, POST →
// first NDJSON line, GET stream → EOF, and POST → EOF.
type reqTiming struct {
	start                      time.Time
	post, first, stream, total time.Duration
}

func (c *client) post(path string, body any, ack any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(ack)
}

// stream GETs an NDJSON endpoint and hands each line to fn until EOF.
func (c *client) stream(path string, fn func(line []byte) error) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		if err := fn(sc.Bytes()); err != nil {
			return err
		}
	}
	return sc.Err()
}

// sweep submits one sweep and reads its result stream to the end.
func (c *client) sweep(req *service.SubmitRequest) ([]service.ResultEntry, reqTiming, error) {
	start := time.Now()
	t := reqTiming{start: start}
	var ack service.SubmitResponse
	if err := c.post("/api/sweeps", req, &ack); err != nil {
		return nil, t, err
	}
	posted := time.Now()
	t.post = posted.Sub(start)
	entries := make([]service.ResultEntry, 0, len(req.Scenarios))
	err := c.stream("/api/sweeps/"+ack.ID+"/stream", func(line []byte) error {
		if t.first == 0 {
			t.first = time.Since(start)
		}
		var e service.ResultEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		entries = append(entries, e)
		return nil
	})
	end := time.Now()
	t.stream, t.total = end.Sub(posted), end.Sub(start)
	return entries, t, err
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		var kb float64
		if n, _ := fmt.Sscanf(string(line), "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// freshDir creates an empty directory under the run's work directory.
func freshDir(work, name string) (string, error) {
	dir := filepath.Join(work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
