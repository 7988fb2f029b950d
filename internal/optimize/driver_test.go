package optimize

import (
	"context"
	"fmt"
	"math"
	"testing"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/raps"
)

// synthEval is an analytic stand-in for the twin: objectives are smooth
// functions of the scenario knobs the study mutates, so surrogate
// behavior (exact quadratic fit, gate opening, screening) is testable
// without plant simulation. It records every evaluation for call-count
// and determinism assertions.
type synthEval struct {
	calls  int
	seq    []string
	counts map[string]int
	fail   func(sc core.Scenario) bool
}

func newSynthEval() *synthEval {
	return &synthEval{counts: make(map[string]int)}
}

// Truth functions over the two knobs the tests search:
// x = scenario.wetbulb_c, y = scenario.tick_sec.
func synthEnergy(x, y float64) float64 {
	return 10 + 0.25*(x-6)*(x-6) + (y-2)*(y-2)
}

func synthThroughput(x, y float64) float64 {
	return 50 - 0.5*(x-3)*(x-3) - 0.1*y
}

func (e *synthEval) Evaluate(_ context.Context, _ int, scs []core.Scenario) ([]Outcome, error) {
	outs := make([]Outcome, len(scs))
	for i, sc := range scs {
		key := fmt.Sprintf("%g|%g", sc.WetBulbC, sc.TickSec)
		e.calls++
		e.seq = append(e.seq, key)
		e.counts[key]++
		if e.fail != nil && e.fail(sc) {
			outs[i] = Outcome{Err: "synthetic failure"}
			continue
		}
		outs[i] = Outcome{Report: &raps.Report{
			EnergyMWh:       synthEnergy(sc.WetBulbC, sc.TickSec),
			ThroughputPerHr: synthThroughput(sc.WetBulbC, sc.TickSec),
			AvgPowerMW:      20,
			AvgPUE:          1.1,
		}}
	}
	return outs, nil
}

func synthBase() core.Scenario {
	return core.Scenario{Name: "base", WetBulbC: 5, TickSec: 2}
}

func synthKnobs() []Knob {
	return []Knob{
		{Name: "scenario.wetbulb_c", Min: 0.5, Max: 10, Step: 0.25},
		{Name: "scenario.tick_sec", Min: 1, Max: 5, Step: 0.125},
	}
}

func runSynthStudy(t *testing.T, spec StudySpec) (*StudyResult, *synthEval) {
	t.Helper()
	eval := newSynthEval()
	d, err := NewDriver(spec, synthBase(), config.CoolingSpec{}, eval, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, eval
}

func TestDriverDeterminism(t *testing.T) {
	spec := StudySpec{
		Knobs:       synthKnobs(),
		Population:  24,
		Generations: 3,
		Seed:        7,
	}
	res1, eval1 := runSynthStudy(t, spec)
	res2, eval2 := runSynthStudy(t, spec)
	if len(eval1.seq) != len(eval2.seq) {
		t.Fatalf("evaluation counts differ: %d vs %d", len(eval1.seq), len(eval2.seq))
	}
	for i := range eval1.seq {
		if eval1.seq[i] != eval2.seq[i] {
			t.Fatalf("evaluation %d differs: %q vs %q", i, eval1.seq[i], eval2.seq[i])
		}
	}
	if res1.TwinEvals != res2.TwinEvals || res1.Screened != res2.Screened || res1.Fallbacks != res2.Fallbacks {
		t.Fatalf("accounting differs: %+v vs %+v", res1, res2)
	}
	if res1.Best == nil || res2.Best == nil {
		t.Fatal("both runs should find a best")
	}
	if res1.Best.Scalar != res2.Best.Scalar {
		t.Fatalf("best scalar differs: %v vs %v", res1.Best.Scalar, res2.Best.Scalar)
	}
}

func TestDriverMemoNeverReevaluates(t *testing.T) {
	_, eval := runSynthStudy(t, StudySpec{
		Knobs:       synthKnobs(),
		Population:  32,
		Generations: 4,
		Seed:        3,
	})
	for key, n := range eval.counts {
		if n > 1 {
			t.Errorf("candidate %s evaluated %d times; the memo must dedupe", key, n)
		}
	}
}

func TestDriverSurrogateReducesTwinEvals(t *testing.T) {
	spec := StudySpec{
		Knobs:       synthKnobs(),
		Population:  64,
		Generations: 4,
		PromoteTopK: 2,
		Seed:        11,
	}
	full := spec
	full.DisableSurrogate = true
	fullRes, fullEval := runSynthStudy(t, full)
	surrRes, surrEval := runSynthStudy(t, spec)

	if fullRes.Screened != 0 || fullRes.Fallbacks != 0 {
		t.Fatalf("disabled arm must not screen: %+v", fullRes)
	}
	if surrRes.Screened == 0 {
		t.Fatal("surrogate arm screened nothing — the gate never opened")
	}
	if surrEval.calls*3 > fullEval.calls {
		t.Fatalf("surrogate arm used %d twin evals vs %d full — expected at least 3x reduction",
			surrEval.calls, fullEval.calls)
	}
	if surrRes.Model == nil {
		t.Fatal("surrogate arm should return a trained model")
	}

	// Both arms should land near the true optimum (x=6 snapped, y=2):
	// the surrogate screening must not wreck search quality on a smooth
	// objective it can represent exactly.
	trueBest := synthEnergy(6, 2)
	for name, res := range map[string]*StudyResult{"full": fullRes, "surrogate": surrRes} {
		if res.Best == nil {
			t.Fatalf("%s arm found no best", name)
		}
		if res.Best.Objectives["energy_mwh"] > trueBest+0.5 {
			t.Errorf("%s arm best energy %v, optimum is %v", name, res.Best.Objectives["energy_mwh"], trueBest)
		}
	}
}

func TestDriverFrontierIsTwinExact(t *testing.T) {
	res, _ := runSynthStudy(t, StudySpec{
		Knobs: synthKnobs(),
		Objectives: []Objective{
			{Metric: "energy_mwh"},
			{Metric: "throughput_per_hr", Maximize: true},
		},
		Population:  48,
		Generations: 3,
		Seed:        5,
	})
	if len(res.Frontier) == 0 {
		t.Fatal("expected a non-empty frontier")
	}
	for _, c := range res.Frontier {
		x := c.Params["scenario.wetbulb_c"]
		y := c.Params["scenario.tick_sec"]
		if got, want := c.Objectives["energy_mwh"], synthEnergy(x, y); math.Abs(got-want) > 1e-12 {
			t.Errorf("frontier candidate (%v,%v): energy %v, twin truth %v — frontier must be twin-exact", x, y, got, want)
		}
		if got, want := c.Objectives["throughput_per_hr"], synthThroughput(x, y); math.Abs(got-want) > 1e-12 {
			t.Errorf("frontier candidate (%v,%v): throughput %v, twin truth %v", x, y, got, want)
		}
	}
	// Frontier members must not dominate each other.
	for i := range res.Frontier {
		for j := range res.Frontier {
			if i == j {
				continue
			}
			a, b := res.Frontier[i].Objectives, res.Frontier[j].Objectives
			if a["energy_mwh"] <= b["energy_mwh"] && a["throughput_per_hr"] >= b["throughput_per_hr"] &&
				(a["energy_mwh"] < b["energy_mwh"] || a["throughput_per_hr"] > b["throughput_per_hr"]) {
				t.Fatalf("frontier member %d dominates member %d", i, j)
			}
		}
	}
}

func TestDriverConstraints(t *testing.T) {
	maxEnergy := 13.0
	res, _ := runSynthStudy(t, StudySpec{
		Knobs: synthKnobs(),
		Objectives: []Objective{
			{Metric: "throughput_per_hr", Maximize: true},
		},
		Constraints: []Constraint{{Metric: "energy_mwh", Max: &maxEnergy}},
		Population:  48,
		Generations: 3,
		Seed:        19,
	})
	if res.Best == nil {
		t.Fatal("a feasible best exists inside the constraint")
	}
	for _, c := range res.Frontier {
		if c.Objectives["energy_mwh"] > maxEnergy {
			t.Errorf("frontier member violates the energy constraint: %v", c.Objectives["energy_mwh"])
		}
	}
	sawInfeasible := false
	for _, c := range res.Evaluated {
		if !c.Feasible && c.Infeasible != "" {
			sawInfeasible = true
		}
		if c.Feasible && c.Objectives["energy_mwh"] > maxEnergy {
			t.Errorf("candidate marked feasible above the bound: %v", c.Objectives["energy_mwh"])
		}
	}
	if !sawInfeasible {
		t.Log("no infeasible twin evaluation observed (constraint screening kept them out) — acceptable")
	}
}

func TestNoFeasibleEvaluationReportsNone(t *testing.T) {
	// An impossible bound leaves nothing feasible, the baseline
	// included: the study reports no best rather than selecting an
	// infeasible candidate.
	zero := 0.0
	res, _ := runSynthStudy(t, StudySpec{
		Knobs:       synthKnobs(),
		Constraints: []Constraint{{Metric: "energy_mwh", Max: &zero}},
		Population:  16,
		Generations: 2,
		Seed:        19,
	})
	if res.Best != nil || len(res.Frontier) != 0 || res.BaselineFeasible {
		t.Fatalf("nothing is feasible, got best=%v frontier=%d baselineFeasible=%v",
			res.Best, len(res.Frontier), res.BaselineFeasible)
	}
	if len(res.Evaluated) == 0 {
		t.Fatal("the study evaluated nothing")
	}
}

func TestDriverFailedEvaluationsBecomeInfeasible(t *testing.T) {
	eval := newSynthEval()
	// Everything in the hot half of the range fails "in the twin".
	eval.fail = func(sc core.Scenario) bool { return sc.WetBulbC > 7 }
	d, err := NewDriver(StudySpec{
		Knobs:       synthKnobs(),
		Population:  24,
		Generations: 2,
		Seed:        23,
	}, synthBase(), config.CoolingSpec{}, eval, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("the surviving half of the space should yield a best")
	}
	if res.Best.Params["scenario.wetbulb_c"] > 7 {
		t.Fatalf("best landed in the failing region: %v", res.Best.Params)
	}
	failSeen := false
	for _, c := range res.Evaluated {
		if c.Infeasible == "synthetic failure" {
			failSeen = true
			if c.Feasible {
				t.Fatal("failed evaluation marked feasible")
			}
		}
	}
	if !failSeen {
		t.Fatal("no failed evaluation was archived")
	}
}

func TestDriverMaxTwinEvalsBudget(t *testing.T) {
	res, eval := runSynthStudy(t, StudySpec{
		Knobs:        synthKnobs(),
		Population:   48,
		Generations:  6,
		MaxTwinEvals: 15,
		Seed:         29,
	})
	// Baseline (gen −1) is outside the candidate budget.
	if got := eval.calls - 1; got > 15 {
		t.Fatalf("budget of 15 twin evals exceeded: %d", got)
	}
	if res.TwinEvals > 15 {
		t.Fatalf("accounting exceeded the budget: %d", res.TwinEvals)
	}
}

func TestDriverHooksFire(t *testing.T) {
	var twin, cached, screened, fallbacks, gens, progress int
	hooks := Hooks{
		OnTwinEval: func(c bool) {
			twin++
			if c {
				cached++
			}
		},
		OnScreened:   func() { screened++ },
		OnFallback:   func() { fallbacks++ },
		OnGeneration: func() { gens++ },
		OnProgress:   func(Progress) { progress++ },
	}
	eval := newSynthEval()
	d, err := NewDriver(StudySpec{
		Knobs:       synthKnobs(),
		Population:  48,
		Generations: 3,
		Seed:        31,
	}, synthBase(), config.CoolingSpec{}, eval, hooks, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if twin != res.TwinEvals || screened != res.Screened || fallbacks != res.Fallbacks {
		t.Fatalf("hook counts (%d,%d,%d) disagree with result (%d,%d,%d)",
			twin, screened, fallbacks, res.TwinEvals, res.Screened, res.Fallbacks)
	}
	if gens != res.Generations || progress != res.Generations {
		t.Fatalf("generation hooks: gens=%d progress=%d, want %d", gens, progress, res.Generations)
	}
	if res.Fallbacks == 0 {
		t.Fatal("calibration bootstrap should register fallbacks")
	}
}

func TestDriverWarmStartValidation(t *testing.T) {
	// Train a 1-dim model and try to warm-start a 2-dim study with it.
	spec1 := StudySpec{
		Knobs:       []Knob{{Name: "scenario.wetbulb_c", Min: 0.5, Max: 10, Step: 0.25}},
		Population:  16,
		Generations: 2,
		Seed:        37,
	}
	eval := newSynthEval()
	d, err := NewDriver(spec1, synthBase(), config.CoolingSpec{}, eval, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == nil {
		t.Fatal("1-dim study should train a model")
	}
	if _, err := NewDriver(StudySpec{Knobs: synthKnobs()}, synthBase(), config.CoolingSpec{}, eval, Hooks{}, res.Model); err == nil {
		t.Fatal("dimension mismatch must be rejected")
	}

	// Matching study warm-starts cleanly and reuses the fit.
	d2, err := NewDriver(spec1, synthBase(), config.CoolingSpec{}, eval, Hooks{}, res.Model)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestDriverRejectsBadStudies(t *testing.T) {
	base := synthBase()
	cases := []StudySpec{
		{}, // no knobs
		{Knobs: []Knob{{Name: "nope", Min: 0, Max: 1}}},              // unknown knob
		{Knobs: []Knob{{Name: "scenario.tick_sec", Min: 5, Max: 1}}}, // inverted range
		{Knobs: synthKnobs(), Objectives: []Objective{{Metric: "bogus"}}},
		{Knobs: synthKnobs(), Constraints: []Constraint{{Metric: "energy_mwh"}}}, // no bound
		{Knobs: synthKnobs(), Population: maxPopulation + 1},
		{Knobs: synthKnobs(), Population: math.MaxInt},
		{Knobs: synthKnobs(), Generations: maxGenerations + 1},
		// Non-finite ranges: [−1e308, 1e308] overflows its width to
		// +Inf, and sampling it snapped every candidate onto a bound.
		{Knobs: []Knob{{Name: "scenario.wetbulb_c", Min: -1e308, Max: 1e308}}},
		{Knobs: []Knob{{Name: "scenario.wetbulb_c", Min: math.Inf(-1), Max: 10}}},
		{Knobs: []Knob{{Name: "scenario.wetbulb_c", Min: 0, Max: math.Inf(1)}}},
		{Knobs: []Knob{{Name: "scenario.wetbulb_c", Min: 0, Max: 10, Step: math.Inf(1)}}},
		{Knobs: []Knob{{Name: "scenario.wetbulb_c", Min: 0, Max: 10, Step: math.NaN()}}},
		// Integer knobs with fractional bounds round candidates outside
		// them: to 0 or 1, and up to 4.
		{Knobs: []Knob{{Name: "cooling.num_towers", Min: 0.2, Max: 0.7}}},
		{Knobs: []Knob{{Name: "cooling.num_towers", Min: 1, Max: 3.5}}},
	}
	for i, spec := range cases {
		if _, err := NewDriver(spec, base, config.CoolingSpec{}, newSynthEval(), Hooks{}, nil); err == nil {
			t.Errorf("case %d: expected an error", i)
		}
	}
	wide := StudySpec{Knobs: []Knob{{Name: "scenario.wetbulb_c", Min: -1e307, Max: 1e307}}}
	if _, err := NewDriver(wide, base, config.CoolingSpec{}, newSynthEval(), Hooks{}, nil); err != nil {
		t.Errorf("a wide finite range is valid: %v", err)
	}
	if _, err := NewDriver(StudySpec{Knobs: synthKnobs()}, base, config.CoolingSpec{}, nil, Hooks{}, nil); err == nil {
		t.Error("nil evaluator must be rejected")
	}
}

// TestCalibNeedClosedForm: the closed form equals its definition —
// counting up from MinCalib to the first n whose conformal rank lands
// inside the sample — across confidences and minimum sample counts.
func TestCalibNeedClosedForm(t *testing.T) {
	countUp := func(minCalib int, conf float64) int {
		n := minCalib
		for int(math.Ceil(float64(n+1)*conf)) > n {
			n++
		}
		return n
	}
	for c := 1; c <= 999; c++ {
		conf := float64(c) / 1000
		for m := 1; m <= 64; m++ {
			if got, want := calibNeed(m, conf), countUp(m, conf); got != want {
				t.Fatalf("calibNeed(%d, %v) = %d, counting up gives %d", m, conf, got, want)
			}
		}
	}
}
