package core

import (
	"encoding/json"
	"testing"

	"exadigit/internal/config"
)

// FuzzSystemSpec decodes arbitrary bytes as the inline system spec of
// POST /api/sweeps and runs the path a submitted spec takes:
// SystemSpec.Validate, Compile, CompiledSpec.Check of a 60 s HPL
// scenario in the spec's own power mode and in each explicit one, and
// the runs. HPL drives every CPU and GPU to its max power,
// where an oversized part once overflowed the report to NaN; an idle run
// would not have shown it. The path must never panic, a scenario Check
// accepts must run, and its report must be finite — it encodes as JSON,
// as the HTTP API needs — with no negative energy, power or loss (an
// overloaded rectifier's efficiency curve once turned negative). Specs over maxFuzzNodes nodes are skipped to
// keep an execution cheap; size is bounded by Validate, not by the
// fuzzer. The seed corpus under testdata/fuzz holds both built-in specs,
// one spec per refusal class, both probe bodies that once passed Validate
// (a billion nodes; ±1e308 W parts), a 1e308 W GPU, 1.4 kW GPUs and a
// dc380 spec with 14 kW GPUs.
func FuzzSystemSpec(f *testing.F) {
	const maxFuzzNodes = 2 * 9472
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec config.SystemSpec
		if json.Unmarshal(data, &spec) != nil || spec.Validate() != nil {
			return
		}
		cs, err := Compile(spec)
		if err != nil {
			return
		}
		nodes := 0
		for _, p := range spec.Partitions {
			nodes += p.NodesTotal
		}
		if nodes > maxFuzzNodes {
			return
		}
		for _, mode := range []string{"", "ac-baseline", "smart-rectifier", "dc380"} {
			sc := Scenario{Workload: WorkloadHPL, HorizonSec: 60, TickSec: 15, NoExport: true, NoHistory: true, PowerMode: mode}
			if cs.Check(&sc) != nil {
				continue
			}
			res, err := cs.Twin().Run(sc)
			if err != nil {
				t.Fatalf("mode %q: a scenario Check accepts failed its run: %v", mode, err)
			}
			r := res.Report
			if _, err := json.Marshal(r); err != nil {
				t.Fatalf("mode %q: report is not finite: %v (%+v)", mode, err, *r)
			}
			if r.EnergyMWh < 0 || r.MinPowerMW < 0 || r.AvgLossMW < 0 {
				t.Fatalf("mode %q: negative energy, power or loss: %+v", mode, *r)
			}
		}
	})
}
