package obs

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// fuzzReader consumes fuzz input as a stream of typed values; past the
// end it yields zeros, so every input derives a complete registry.
type fuzzReader []byte

func (r *fuzzReader) uint64() uint64 {
	var b [8]byte
	n := copy(b[:], *r)
	*r = (*r)[n:]
	return binary.LittleEndian.Uint64(b[:])
}

// str reads a length word and up to that many (at most 31) bytes of
// label text.
func (r *fuzzReader) str() string {
	n := int(r.uint64() % 32)
	n = min(n, len(*r))
	s := string((*r)[:n])
	*r = (*r)[n:]
	return s
}

// fuzzRegistry writes counter, gauge and histogram values with label
// strings taken from data into a fresh registry, and returns it with
// the series (keyed by ExpoSeries.ID) a scrape of it must carry.
func fuzzRegistry(data []byte) (*Registry, map[string]float64) {
	r := fuzzReader(data)
	reg := NewRegistry()
	want := make(map[string]float64)
	id := func(name string, labels map[string]string) string {
		return ExpoSeries{Name: name, Labels: labels}.ID()
	}

	// Two labeled counter series; equal labels accumulate into one.
	cv := reg.CounterVec("fuzz_requests_total", "Fuzzed counter.", "path")
	sums := make(map[string]uint64)
	for range 2 {
		label, n := r.str(), r.uint64()
		cv.With(label).Add(n)
		sums[label] += n
	}
	for label, n := range sums {
		want[id("fuzz_requests_total", map[string]string{"path": label})] = float64(n)
	}

	// A labeled gauge at any float64, NaN and the infinities included.
	label, bits := r.str(), r.uint64()
	reg.GaugeVec("fuzz_level", "Fuzzed gauge.", "rack").With(label).Set(math.Float64frombits(bits))
	want[id("fuzz_level", map[string]string{"rack": label})] = math.Float64frombits(bits)

	// A labeled histogram over finite observations.
	bounds := []float64{0.001, 0.5, 1, 250}
	h := NewHistogram(bounds)
	label = r.str()
	obsCount := int(r.uint64() % 8)
	cum := make([]uint64, len(bounds))
	var sum float64
	for range obsCount {
		v := float64(r.uint64()%1_000_000) / 1e3
		h.Observe(v)
		sum += v
		for i, b := range bounds {
			if v <= b {
				cum[i]++
			}
		}
	}
	reg.HistogramFunc("fuzz_latency_seconds", "Fuzzed histogram.", []string{"route"}, bounds,
		func(emit func([]string, HistogramSnapshot)) { emit([]string{label}, h.Snapshot()) })
	for i, b := range bounds {
		want[id("fuzz_latency_seconds_bucket", map[string]string{"route": label, "le": formatValue(b)})] = float64(cum[i])
	}
	want[id("fuzz_latency_seconds_bucket", map[string]string{"route": label, "le": "+Inf"})] = float64(obsCount)
	want[id("fuzz_latency_seconds_count", map[string]string{"route": label})] = float64(obsCount)
	want[id("fuzz_latency_seconds_sum", map[string]string{"route": label})] = sum
	return reg, want
}

// FuzzParseExposition holds the strict parser to two properties: it
// never panics on arbitrary bytes, and the render of a registry written
// from those bytes (quotes, backslashes and newlines in label values
// included) parses back to exactly the values written.
func FuzzParseExposition(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ParseExposition(data)

		reg, want := fuzzRegistry(data)
		var buf bytes.Buffer
		if err := reg.Write(&buf); err != nil {
			t.Fatal(err)
		}
		e, err := ParseExposition(buf.Bytes())
		if err != nil {
			t.Fatalf("render of a valid registry rejected: %v\n%s", err, buf.Bytes())
		}
		got := e.Series()
		if len(got) != len(want) {
			t.Fatalf("parsed %d series, wrote %d\n%s", len(got), len(want), buf.Bytes())
		}
		for id, w := range want {
			g, ok := got[id]
			if !ok {
				t.Fatalf("series %s missing from\n%s", id, buf.Bytes())
			}
			if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Errorf("series %s = %v, wrote %v", id, g, w)
			}
		}
	})
}
