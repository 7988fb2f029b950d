package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"

	"exadigit/internal/config"
	"exadigit/internal/cooling"
	"exadigit/internal/job"
	"exadigit/internal/raps"
	"exadigit/internal/service"
)

// workload is one traffic mix. Every workload is a closed loop whose
// inputs derive from the run seed alone.
type workload interface {
	// warm is the set-up work a fresh instance needs before timing:
	// compiling the spec and plants, or populating the store.
	warm(r *runner) error
	// round runs one closed-loop round of the timed part.
	round(r *runner, i int) error
	// roundSec is a round's duration on the reference host; a run does
	// as many rounds as fit its --seconds there.
	roundSec() float64
	// probe is a one-scenario sweep whose result the store already
	// holds; the restart time ends when a new instance accepts it.
	probe() *service.SubmitRequest
	// check verifies the outputs of the timed part.
	check(r *runner)
	// inputs are what the layer replays run on.
	inputs(r *runner) layerInputs
}

var workloadNames = []string{"cooled-sweep", "whatif-sweep", "warm-restart-reads"}

func newWorkload(name string, seed int64, sc scale) (workload, error) {
	switch name {
	case "cooled-sweep":
		return &cooledSweep{seed: seed, sc: sc}, nil
	case "whatif-sweep":
		return &whatifSweep{seed: seed, sc: sc}, nil
	case "warm-restart-reads":
		return &warmRestart{seed: seed, sc: sc}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// Seed-path tags keep each input stream independent.
const (
	tagCoolJobs = iota + 1
	tagCoolWetBulb
	tagWhatifJobs
	tagWarmJobs
	tagWarmZipf
)

func synthetic(name string, horizon float64, genSeed int64) service.ScenarioRequest {
	g := job.DefaultGeneratorConfig()
	g.Seed = genSeed
	return service.ScenarioRequest{
		Name: name, Workload: "synthetic", HorizonSec: horizon, TickSec: 15, Generator: &g,
	}
}

// The three plants of the cooled sweep: the spec's own plant (the
// hand-calibrated Frontier preset under fixed-step RK4), the same preset
// under the adaptive solver, and an AutoCSM-generated plant from the
// spec's design quantities under the adaptive solver.
type plant struct {
	name string
	spec *config.CoolingSpec // nil cools with the system spec's plant
}

func coolPlants() []plant {
	adaptive := config.Frontier().Cooling
	adaptive.Solver = cooling.SolverAdaptive
	generated := autocsmAdaptive()
	return []plant{{"rk4", nil}, {"adaptive", &adaptive}, {"autocsm", &generated}}
}

func autocsmAdaptive() config.CoolingSpec {
	c := config.Frontier().Cooling
	c.Preset = ""
	c.Solver = cooling.SolverAdaptive
	return c
}

// rk4 reports whether a scenario is integrated by the fixed-step solver,
// whose results are reproducible bit for bit.
func rk4(s *service.ScenarioRequest) bool {
	return s.CoolingSpec == nil || s.CoolingSpec.Solver == "" || s.CoolingSpec.Solver == cooling.SolverRK4
}

// reportProblem checks the physical invariants every report must hold.
func reportProblem(rep *raps.Report, cooled bool) string {
	switch {
	case rep == nil:
		return "no report"
	case !(rep.EnergyMWh > 0):
		return fmt.Sprintf("energy %v MWh", rep.EnergyMWh)
	case rep.AvgLossMW < 0 || rep.MaxLossMW < 0:
		return fmt.Sprintf("negative losses %v/%v MW", rep.AvgLossMW, rep.MaxLossMW)
	case cooled && !(rep.AvgPUE >= 1):
		return fmt.Sprintf("PUE %v < 1", rep.AvgPUE)
	}
	return ""
}

// checkEntries verifies that every scenario of a sweep reached the
// wanted state with a sound report.
func checkEntries(r *runner, req *service.SubmitRequest, entries []service.ResultEntry, want service.ScenarioState) {
	if len(entries) != len(req.Scenarios) {
		r.fail("%s: %d of %d scenarios streamed", req.Name, len(entries), len(req.Scenarios))
	}
	for _, e := range entries {
		if e.State != want {
			r.fail("%s: %s is %s, want %s (%s)", req.Name, e.Name, e.State, want, e.Error)
			continue
		}
		cooled := req.Scenarios[e.Index].Cooling || req.Scenarios[e.Index].CoolingSpec != nil
		if p := reportProblem(e.Report, cooled); p != "" {
			r.fail("%s: %s: %s", req.Name, e.Name, p)
		}
	}
}

// sweepRound is a round of a sweep workload: one request, kept for the
// checks.
type sweepRound struct {
	req     *service.SubmitRequest
	entries []service.ResultEntry
}

func (sr sweepRound) byIndex() []*raps.Report {
	out := make([]*raps.Report, len(sr.req.Scenarios))
	for _, e := range sr.entries {
		if e.Index >= 0 && e.Index < len(out) {
			out[e.Index] = e.Report
		}
	}
	return out
}

func (r *runner) sweepRound(req *service.SubmitRequest) sweepRound {
	entries, t, err := r.cl.sweep(req)
	r.account(len(req.Scenarios), entries, t, err)
	return sweepRound{req, entries}
}

// probeOf is the restart probe: a sweep of one scenario whose result
// the store already holds.
func probeOf(s service.ScenarioRequest) *service.SubmitRequest {
	return &service.SubmitRequest{Name: "restart-probe", Scenarios: []service.ScenarioRequest{s}}
}

// warmUp compiles what a sweep of these scenarios needs — the spec's
// power models per mode and one cooling design per plant — by running
// each for a quarter hour.
func (r *runner) warmUp(scenarios []service.ScenarioRequest) error {
	req := &service.SubmitRequest{Name: "warm-up", Scenarios: scenarios}
	for i := range req.Scenarios {
		req.Scenarios[i].Name = fmt.Sprintf("warm-up-%d", i)
		req.Scenarios[i].HorizonSec = 900
	}
	entries, _, err := r.cl.sweep(req)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.State != service.StateDone && e.State != service.StateCached {
			return fmt.Errorf("warm-up %s: %s %s", e.Name, e.State, e.Error)
		}
	}
	return nil
}

// cooledSweep: one client sweeps cooled Frontier runs, each under one of
// three plants, interleaved by plant.
type cooledSweep struct {
	seed   int64
	sc     scale
	rounds []sweepRound
}

func (w *cooledSweep) request(round int) *service.SubmitRequest {
	req := &service.SubmitRequest{Name: fmt.Sprintf("cooled-%d", round), MaxConcurrent: serviceWorkers}
	for k := 0; k < w.sc.coolSeeds; k++ {
		jobs := derive(w.seed, tagCoolJobs, round, k)
		for p, pl := range coolPlants() {
			s := synthetic(fmt.Sprintf("cooled-%d-%d-%s", round, k, pl.name), w.sc.coolHorizon, jobs)
			s.Cooling = true
			s.CoolingSpec = pl.spec
			s.WetBulbC = 10 + 14*unit(derive(w.seed, tagCoolWetBulb, round, k, p))
			req.Scenarios = append(req.Scenarios, s)
		}
	}
	return req
}

func (w *cooledSweep) roundSec() float64 { return 1.5 }

func (w *cooledSweep) warm(r *runner) error { return r.warmUp(w.request(0).Scenarios[:3]) }

func (w *cooledSweep) round(r *runner, i int) error {
	w.rounds = append(w.rounds, r.sweepRound(w.request(i)))
	return nil
}

func (w *cooledSweep) probe() *service.SubmitRequest { return probeOf(w.request(0).Scenarios[0]) }

func (w *cooledSweep) check(r *runner) {
	for _, rd := range w.rounds {
		checkEntries(r, rd.req, rd.entries, service.StateDone)
	}
	r.checkDigests(w.rounds[0])
}

func (w *cooledSweep) inputs(r *runner) layerInputs {
	rd := w.rounds[0]
	reps := rd.byIndex()
	var in layerInputs
	for i, pl := range coolPlants() {
		in.probes = append(in.probes, sweepProbe(rd.req, i, reps[i]))
		if pl.spec == nil {
			in.plants = append(in.plants, config.Frontier().Cooling)
		} else {
			in.plants = append(in.plants, *pl.spec)
		}
	}
	in.request = rd.req
	return in
}

// whatifSweep: one client sweeps uncooled Frontier days over every
// scheduler policy and power-conversion architecture.
type whatifSweep struct {
	seed   int64
	sc     scale
	rounds []sweepRound
}

var (
	policies   = []string{"fcfs", "sjf", "easy"}
	powerModes = []string{"ac-baseline", "smart-rectifier", "dc380"}
)

func (w *whatifSweep) request(round int) *service.SubmitRequest {
	req := &service.SubmitRequest{Name: fmt.Sprintf("whatif-%d", round), MaxConcurrent: serviceWorkers}
	jobs := derive(w.seed, tagWhatifJobs, round)
	for _, pol := range policies {
		for _, mode := range powerModes {
			s := synthetic(fmt.Sprintf("whatif-%d-%s-%s", round, pol, mode), w.sc.whatifHorizon, jobs)
			s.Policy, s.PowerMode = pol, mode
			req.Scenarios = append(req.Scenarios, s)
		}
	}
	return req
}

func (w *whatifSweep) roundSec() float64 { return 1.05 }

func (w *whatifSweep) warm(r *runner) error {
	var scs []service.ScenarioRequest
	for _, mode := range powerModes {
		s := synthetic("", 900, 1)
		s.PowerMode = mode
		scs = append(scs, s)
	}
	return r.warmUp(scs)
}

func (w *whatifSweep) round(r *runner, i int) error {
	w.rounds = append(w.rounds, r.sweepRound(w.request(i)))
	return nil
}

func (w *whatifSweep) probe() *service.SubmitRequest { return probeOf(w.request(0).Scenarios[0]) }

func (w *whatifSweep) check(r *runner) {
	for _, rd := range w.rounds {
		checkEntries(r, rd.req, rd.entries, service.StateDone)
		// Power conversion changes what the machine draws, never which
		// jobs it runs: the three modes of a policy complete the same jobs.
		reps := rd.byIndex()
		for p, pol := range policies {
			var counts []int
			for m := range powerModes {
				if rep := reps[p*len(powerModes)+m]; rep != nil {
					counts = append(counts, rep.JobsCompleted)
				}
			}
			for _, c := range counts {
				if c != counts[0] {
					r.fail("%s: %s completes %v jobs across power modes", rd.req.Name, pol, counts)
					break
				}
			}
		}
	}
	r.checkDigests(w.rounds[0])
}

func (w *whatifSweep) inputs(r *runner) layerInputs {
	rd := w.rounds[0]
	reps := rd.byIndex()
	var in layerInputs
	for p := range policies {
		i := p * len(powerModes)
		in.probes = append(in.probes, sweepProbe(rd.req, i, reps[i]))
	}
	in.request = rd.req
	return in
}

// warmRestart: set-up computes many short uncooled scenarios into the
// store; the timed part kill-restarts the service and re-reads them
// with two clients, Zipf-skewed, so every request is served by the disk
// or memory tier and nothing is recomputed.
type warmRestart struct {
	seed int64
	sc   scale

	populated []*raps.Report // by key, from the last set-up
	builds    uint64         // power-model builds before the timed part
}

func (w *warmRestart) scenario(key int) service.ScenarioRequest {
	return synthetic(fmt.Sprintf("key-%d", key), w.sc.warmHorizon, derive(w.seed, tagWarmJobs, key))
}

func (w *warmRestart) roundSec() float64 { return 0.67 }

func (w *warmRestart) warm(r *runner) error {
	const batch = 64
	w.populated = make([]*raps.Report, w.sc.warmKeys)
	for lo := 0; lo < w.sc.warmKeys; lo += batch {
		req := &service.SubmitRequest{Name: fmt.Sprintf("populate-%d", lo)}
		for k := lo; k < lo+batch && k < w.sc.warmKeys; k++ {
			req.Scenarios = append(req.Scenarios, w.scenario(k))
		}
		entries, _, err := r.cl.sweep(req)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.State != service.StateDone || e.Report == nil {
				return fmt.Errorf("populate %s: %s %s", e.Name, e.State, e.Error)
			}
			w.populated[lo+e.Index] = e.Report
		}
	}
	w.builds = config.ModelBuilds()
	return nil
}

// round is one epoch: a kill-restart, then both clients at once.
func (w *warmRestart) round(r *runner, epoch int) error {
	if err := r.restart(); err != nil {
		return err
	}
	type clientLog struct {
		timings  []reqTiming
		entries  int
		failed   int
		problems []string
	}
	logs := make([]clientLog, 2)
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lg := &logs[c]
			rng := rand.New(rand.NewSource(derive(w.seed, tagWarmZipf, epoch, c)))
			zipf := rand.NewZipf(rng, 1.1, 1, uint64(w.sc.warmKeys-1))
			for q := 0; q < w.sc.warmRequests; q++ {
				req := &service.SubmitRequest{Name: fmt.Sprintf("read-%d-%d-%d", epoch, c, q)}
				keys := make([]int, 8)
				for i := range keys {
					keys[i] = int(zipf.Uint64())
					req.Scenarios = append(req.Scenarios, w.scenario(keys[i]))
				}
				entries, t, err := r.cl.sweep(req)
				if err != nil {
					lg.failed += len(keys)
					lg.problems = append(lg.problems, err.Error())
					continue
				}
				lg.timings = append(lg.timings, t)
				lg.entries += len(entries)
				if len(entries) != len(keys) {
					lg.failed += len(keys) - len(entries)
					lg.problems = append(lg.problems, fmt.Sprintf("%s: %d of %d streamed", req.Name, len(entries), len(keys)))
				}
				for _, e := range entries {
					switch {
					case e.Index < 0 || e.Index >= len(keys):
						lg.problems = append(lg.problems, fmt.Sprintf("%s: result index %d out of range", req.Name, e.Index))
					case e.State != service.StateCached:
						lg.failed++
						lg.problems = append(lg.problems, fmt.Sprintf("%s: %s is %s, want cached", req.Name, e.Name, e.State))
					case !reflect.DeepEqual(e.Report, w.populated[keys[e.Index]]):
						lg.problems = append(lg.problems, fmt.Sprintf("%s: %s differs from its populated report", req.Name, e.Name))
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for _, lg := range logs {
		r.reqs = append(r.reqs, lg.timings...)
		r.terminal += lg.entries
		r.attempted += 8 * w.sc.warmRequests
		r.failed += lg.failed
		r.problems = append(r.problems, lg.problems...)
	}
	return nil
}

func (w *warmRestart) probe() *service.SubmitRequest { return probeOf(w.scenario(0)) }

func (w *warmRestart) check(r *runner) {
	if d := config.ModelBuilds() - w.builds; d != 0 {
		r.fail("warm reads built %d power models; cached reads must recompute nothing", d)
	}
	req := &service.SubmitRequest{Name: "populated"}
	var entries []service.ResultEntry
	for k := 0; k < 8 && k < w.sc.warmKeys; k++ {
		req.Scenarios = append(req.Scenarios, w.scenario(k))
		entries = append(entries, service.ResultEntry{Index: k, Report: w.populated[k]})
	}
	r.checkDigests(sweepRound{req, entries})
}

func (w *warmRestart) inputs(r *runner) layerInputs {
	req := &service.SubmitRequest{Name: "layer-probes"}
	var in layerInputs
	for k := 0; k < 3; k++ {
		req.Scenarios = append(req.Scenarios, w.scenario(k))
		in.probes = append(in.probes, sweepProbe(req, k, w.populated[k]))
	}
	in.request = req
	return in
}
