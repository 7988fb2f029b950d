package service

import (
	"encoding/json"
	"testing"
)

// FuzzScenarioRequestRoundTrip fuzzes the cluster wire: arbitrary bytes
// decode to a ScenarioRequest, convert to a scenario, and hash. Whenever
// ScenarioRequestFrom accepts that scenario, re-encoding its wire form
// and decoding it again must hash identically — a coordinator and its
// workers would otherwise key the shared store differently — and no
// step may panic. The seed corpus lives under testdata/fuzz.
func FuzzScenarioRequestRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var req ScenarioRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		sc := req.Scenario()
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
		got, err := HashScenario(back.Scenario())
		if err != nil {
			t.Fatalf("round-tripped scenario does not hash: %v\n%s", err, enc)
		}
		if got != want {
			t.Fatalf("wire round trip changed the scenario hash\nin:  %s\nout: %s", data, enc)
		}
	})
}
