package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"exadigit/internal/service"
)

// FuzzStreamResult serves arbitrary bytes as a worker's NDJSON result
// stream and reads them with Pool.streamResult, the coordinator's
// per-line ResultEntry decode. It must never panic and must return
// exactly one of a result and an error. A result comes only from a
// stream with a done or cached line, and carries that line's report and
// wall time (the pool has no store to re-read).
func FuzzStreamResult(f *testing.F) {
	var body atomic.Pointer[[]byte]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = w.Write(*body.Load())
	}))
	f.Cleanup(srv.Close)
	p, err := New(Options{Workers: []string{srv.URL}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		body.Store(&data)
		res, err := p.streamResult(context.Background(), p.workers[0], service.RunRequest{}, "sw-fuzz")
		if (res == nil) == (err == nil) {
			t.Fatalf("result %v and error %v", res, err)
		}
		if res == nil {
			return
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(nil, 16<<20)
		for sc.Scan() {
			var e service.ResultEntry
			if json.Unmarshal(sc.Bytes(), &e) != nil {
				continue
			}
			if (e.State == service.StateDone || e.State == service.StateCached) &&
				e.WallSec == res.WallSec && reflect.DeepEqual(e.Report, res.Report) {
				return
			}
		}
		t.Fatalf("result %+v matches no done or cached line", res)
	})
}
