package main

import (
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := benchMetric{Name: "req_p50_ms", Better: "lower", Bound: 0.1}
	higher := benchMetric{Name: "scen_per_s", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		name   string
		m      benchMetric
		a, b   []float64
		prefix string
	}{
		{"faster", lower, base, scaled(0.9), "gain"},
		{"same", lower, base, base, "no change"},
		{"slower", lower, base, scaled(1.2), "regression"},
		{"slower within bound", lower, base, scaled(1.05), "no change"},
		{"higher throughput", higher, base, scaled(1.1), "gain"},
		{"lower throughput", higher, base, scaled(0.8), "regression"},
		{"too few pairs for a gain", lower, base[:5], scaled(0.9)[:5], "no change"},
		{"noisy", lower, []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100}, base, "unresolved"},
	}
	for _, c := range cases {
		if v := judge(c.a, c.b, c.m); !strings.HasPrefix(v.verdict, c.prefix) || v.regression != (c.prefix == "regression") {
			t.Errorf("%s: verdict %q (regression %v), want %s", c.name, v.verdict, v.regression, c.prefix)
		}
	}
}

func TestPairsBySeed(t *testing.T) {
	base := []run{{seed: 1, file: "a1"}, {seed: 2, file: "a2"}, {seed: 3, file: "a3"}}
	change := []run{{seed: 3, file: "b3"}, {seed: 1, file: "b1"}}
	a, b := pairs(base, change)
	if len(a) != 2 || a[0].file != "a1" || b[0].file != "b1" || a[1].file != "a3" || b[1].file != "b3" {
		t.Errorf("pairs = %v / %v", a, b)
	}
}
