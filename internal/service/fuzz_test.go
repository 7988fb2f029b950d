package service

import (
	"encoding/json"
	"testing"

	"exadigit/internal/autocsm"
	"exadigit/internal/config"
	"exadigit/internal/core"
)

// FuzzScenarioRequestRoundTrip fuzzes the cluster wire: arbitrary bytes
// decode to a ScenarioRequest, convert to a scenario, pass through
// core.CompiledSpec.Check on Frontier, and hash. Whenever
// ScenarioRequestFrom accepts that scenario, re-encoding its wire form
// and decoding it again must hash identically and get the same Check
// verdict — a coordinator and its workers would otherwise key the shared
// store differently, or disagree on admission. Every float of an
// accepted cooling_spec's resolved plant must be finite, and no step may
// panic. The seed corpus lives under testdata/fuzz, with one entry per
// class of Check refusal.
func FuzzScenarioRequestRoundTrip(f *testing.F) {
	cs, err := core.Compile(config.Frontier())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req ScenarioRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		sc := req.Scenario()
		verdict := cs.Check(&sc)
		if verdict == nil && sc.CoolingSpec != nil {
			cfg, err := autocsm.Compile(*sc.CoolingSpec)
			if err != nil {
				t.Fatalf("accepted cooling_spec does not resolve: %v\n%s", err, data)
			}
			if field := cfg.NonFinite(); field != "" {
				t.Fatalf("accepted cooling_spec resolves to a non-finite %s\n%s", field, data)
			}
		}
		want, err := HashScenario(sc)
		if err != nil {
			return
		}
		wire, err := ScenarioRequestFrom(sc)
		if err != nil {
			return
		}
		enc, err := json.Marshal(wire)
		if err != nil {
			t.Fatalf("accepted scenario does not encode: %v", err)
		}
		var back ScenarioRequest
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("encoded wire form rejected: %v\n%s", err, enc)
		}
		backSc := back.Scenario()
		got, err := HashScenario(backSc)
		if err != nil {
			t.Fatalf("round-tripped scenario does not hash: %v\n%s", err, enc)
		}
		if got != want {
			t.Fatalf("wire round trip changed the scenario hash\nin:  %s\nout: %s", data, enc)
		}
		if backVerdict := cs.Check(&backSc); (backVerdict == nil) != (verdict == nil) {
			t.Fatalf("wire round trip changed the Check verdict: %v -> %v\nin:  %s\nout: %s", verdict, backVerdict, data, enc)
		}
	})
}
