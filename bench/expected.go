package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// expected.json holds, per workload, the first round's outputs at
// -seed 1 and full scale. Fixed-step results (rk4 and uncooled runs, and
// every warm read) must match bit for bit; adaptive-solver results within
// 1e-9 relative on energy and PUE. Other seeds are checked by the
// invariants alone.
//
//go:embed expected.json
var expectedJSON []byte

type digest struct {
	Name      string  `json:"name"`
	Exact     bool    `json:"exact"`
	SHA256    string  `json:"sha256,omitempty"`
	EnergyMWh float64 `json:"energy_mwh"`
	AvgPUE    float64 `json:"avg_pue"`
}

type expectation struct {
	Scenarios []digest `json:"scenarios"`
}

const adaptiveRelTol = 1e-9

func expectations() (map[string]expectation, error) {
	var m map[string]expectation
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// checkDigests compares a sweep round with the workload's expectation.
func (r *runner) checkDigests(rd sweepRound) {
	if !r.sc.full || r.seed != 1 {
		return
	}
	reps := rd.byIndex()
	var got []digest
	for i := range rd.req.Scenarios {
		rep := reps[i]
		if rep == nil {
			r.fail("digest: %s has no report", rd.req.Scenarios[i].Name)
			return
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			r.fail("digest: %v", err)
			return
		}
		sum := sha256.Sum256(raw)
		d := digest{Name: rd.req.Scenarios[i].Name, Exact: rk4(&rd.req.Scenarios[i]), EnergyMWh: rep.EnergyMWh, AvgPUE: rep.AvgPUE}
		if d.Exact {
			d.SHA256 = hex.EncodeToString(sum[:])
		}
		got = append(got, d)
	}
	r.observed = &expectation{Scenarios: got}
	want, ok := r.expect()
	if !ok {
		return
	}
	if len(want.Scenarios) != len(got) {
		r.fail("digest: %d scenarios, expected.json has %d", len(got), len(want.Scenarios))
		return
	}
	for i, w := range want.Scenarios {
		g := got[i]
		switch {
		case g.Name != w.Name || g.Exact != w.Exact:
			r.fail("digest: scenario %d is %s (exact %v), expected.json has %s (exact %v)", i, g.Name, g.Exact, w.Name, w.Exact)
		case w.Exact && g.SHA256 != w.SHA256:
			r.fail("digest: %s report changed (energy %v MWh, PUE %v; expected %v, %v)", g.Name, g.EnergyMWh, g.AvgPUE, w.EnergyMWh, w.AvgPUE)
		case !w.Exact && (relDiff(g.EnergyMWh, w.EnergyMWh) > adaptiveRelTol || relDiff(g.AvgPUE, w.AvgPUE) > adaptiveRelTol):
			r.fail("digest: %s energy %v MWh, PUE %v; expected %v, %v within %g", g.Name, g.EnergyMWh, g.AvgPUE, w.EnergyMWh, w.AvgPUE, adaptiveRelTol)
		}
	}
}

func (r *runner) expect() (expectation, bool) {
	if r.recordOnly {
		return expectation{}, false
	}
	all, err := expectations()
	if err != nil {
		r.fail("%v", err)
		return expectation{}, false
	}
	want, ok := all[r.name]
	if !ok {
		r.fail("expected.json has no entry for %s", r.name)
	}
	return want, ok
}

// writeExpected merges a run's observed digests into path.
func writeExpected(path, name string, e *expectation) error {
	if e == nil {
		return fmt.Errorf("%s recorded no digests (they are taken at -seed 1, full scale)", name)
	}
	all := map[string]expectation{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	all[name] = *e
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
