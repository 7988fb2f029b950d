package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"time"

	"exadigit/bench/stat"
	"exadigit/internal/config"
	"exadigit/internal/cooling"
	"exadigit/internal/core"
	"exadigit/internal/fmu"
	"exadigit/internal/job"
	"exadigit/internal/power"
	"exadigit/internal/raps"
	"exadigit/internal/sched"
	"exadigit/internal/service"
	"exadigit/internal/store"
)

// The traced run's layer replays. No program code is instrumented: each
// layer is timed from here, by calling the module's public functions on
// the workload's own inputs after the timed part has ended. Every run
// prints every metric; a layer the workload never runs (the cooling plant
// of an uncooled sweep) reads 0 with no samples.

// probe is one scenario the layer replays rerun, with a check that the
// rerun reproduces what the service returned for it.
type probe struct {
	scenario core.Scenario
	check    func(*raps.Report) error
}

func sweepProbe(req *service.SubmitRequest, i int, want *raps.Report) probe {
	return probe{
		scenario: req.Scenarios[i].Scenario(),
		check: func(got *raps.Report) error {
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("report %+v differs from the service's %+v", got, want)
			}
			return nil
		},
	}
}

// layerInputs are a workload's inputs to the layer replays.
type layerInputs struct {
	probes  []probe              // rerun through raps; the first also drives the replicas
	plants  []config.CoolingSpec // distinct plants the workload cools with, whose designs are compiled
	request *service.SubmitRequest
}

var layerMetrics = []metric{
	{"core.compile_us", "us"},
	{"fmu.design_ms", "ms"},
	{"fmu.designs", "count"},
	{"job.generate_ms", "ms"},
	{"job.jobs", "count"},
	{"sched.schedule_us_p50", "us"},
	{"sched.schedule_us_p90", "us"},
	{"sched.passes", "count"},
	{"power.delta_us_p50", "us"},
	{"power.deltas", "count"},
	{"raps.run_uncooled_s", "s"},
	{"raps.run_rk4_s", "s"},
	{"raps.run_adaptive_s", "s"},
	{"cooling.dostep_rk4_us_p50", "us"},
	{"cooling.dostep_rk4_us_p90", "us"},
	{"cooling.dostep_adaptive_us_p50", "us"},
	{"cooling.dostep_adaptive_us_p90", "us"},
	{"cooling.share_rk4", "ratio"},
	{"cooling.share_adaptive", "ratio"},
	{"cooling.accepted", "count"},
	{"cooling.rejected", "count"},
	{"cooling.control_steps", "count"},
	{"cooling.quiescent_frac", "ratio"},
	{"store.put_ms", "ms"},
	{"store.entry_kb", "KB"},
	{"store.get_ms", "ms"},
	{"store.journal_create_ms", "ms"},
	{"store.journal_append_us", "us"},
	{"store.open_ms", "ms"},
	{"service.hash_us", "us"},
	{"service.recover_ms", "ms"},
	{"service.queue_s_p50", "s"},
	{"service.run_s_p50", "s"},
	{"service.store_write_ms_p50", "ms"},
	{"service.tier_disk_frac", "ratio"},
	{"service.tier_memory_frac", "ratio"},
	{"http.post_ms", "ms"},
	{"http.stream_ms", "ms"},
}

// layerLog collects per-layer values with their sample counts.
type layerLog struct {
	r    *runner
	vals map[string]float64
	n    map[string]int
}

func (l *layerLog) set(name string, v float64, n int) {
	l.vals[name] = v
	l.n[name] = n
}

// absent records a layer the workload does not run.
func (l *layerLog) absent(name string) { l.set(name, 0, 0) }

func (l *layerLog) median(name string, xs []float64) {
	if len(xs) == 0 {
		l.absent(name)
		return
	}
	l.set(name, stat.Median(xs), len(xs))
}

func (l *layerLog) p90(name string, xs []float64) {
	v, ok := stat.Percentile(xs, 90)
	if !ok {
		l.r.fail("%s: %d samples leave fewer than %d beyond p90", name, len(xs), stat.MinBeyond)
	}
	l.set(name, v, len(xs))
}

func since(t time.Time, unit time.Duration) float64 {
	return float64(time.Since(t)) / float64(unit)
}

func (r *runner) layers() (map[string]float64, error) {
	in := r.wl.inputs(r)
	if len(in.probes) == 0 {
		return nil, fmt.Errorf("workload has no layer probes")
	}
	l := &layerLog{r: r, vals: map[string]float64{}, n: map[string]int{}}
	spec := config.Frontier()

	var compile []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := core.Compile(spec); err != nil {
			return nil, err
		}
		compile = append(compile, since(t, time.Microsecond))
	}
	l.median("core.compile_us", compile)

	cs, err := core.Compile(spec)
	if err != nil {
		return nil, err
	}

	var design []float64
	for _, p := range in.plants {
		t := time.Now()
		if _, err := cs.CoolingDesignFor(p); err != nil {
			return nil, err
		}
		design = append(design, since(t, time.Millisecond))
	}
	l.median("fmu.design_ms", design)
	l.set("fmu.designs", float64(len(design)), len(design))

	reports, err := r.rapsLayers(l, cs, in.probes)
	if err != nil {
		return nil, err
	}
	if err := r.storeLayers(l, cs, in, reports); err != nil {
		return nil, err
	}
	r.serviceLayers(l, spec, in.request)

	fmt.Println("per-layer metrics (value, samples):")
	for _, m := range layerMetrics {
		v, ok := l.vals[m.name]
		if !ok {
			return nil, fmt.Errorf("layer metric %s was not measured", m.name)
		}
		fmt.Printf("  %-32s %14.6g %-5s n=%d\n", m.name, v, m.unit, l.n[m.name])
	}
	return l.vals, nil
}

// sample is what the replays need of one recorded raps sample.
type sample struct {
	powerW, htwReturnC float64
	heatW              []float64
}

// rapsRun mirrors core.Twin.RunContext for a single-partition synthetic
// scenario, timing job generation and NewMulti+RunContext separately
// and recording up to limit samples.
type rapsRun struct {
	rep     *raps.Report
	jobs    int
	gen     time.Duration
	run     time.Duration
	samples []sample
}

func generatorFor(sc core.Scenario, model *power.Model) job.GeneratorConfig {
	cfg := sc.Generator
	if cfg.ArrivalMeanSec == 0 {
		cfg = job.DefaultGeneratorConfig()
	}
	if cfg.MaxNodes <= 0 || cfg.MaxNodes > model.Topo.NodesTotal {
		cfg.MaxNodes = model.Topo.NodesTotal
	}
	return cfg
}

func runRaps(cs *core.CompiledSpec, sc core.Scenario, horizon float64, cooled bool, limit int) (*rapsRun, error) {
	models, err := cs.Models(sc.PowerMode)
	if err != nil {
		return nil, err
	}
	out := &rapsRun{}
	t := time.Now()
	jobs := job.NewGenerator(generatorFor(sc, models[0])).GenerateHorizon(horizon)
	out.gen, out.jobs = time.Since(t), len(jobs)

	rcfg := raps.DefaultConfig()
	rcfg.TickSec = sc.TickSec
	if sc.Policy != "" {
		rcfg.Policy = sc.Policy
	}
	rcfg.Engine = raps.EngineEvent
	rcfg.NoHistory = true
	if cooled {
		rcfg.EnableCooling = true
		if sc.CoolingSpec != nil {
			rcfg.CoolingDesign, err = cs.CoolingDesignFor(*sc.CoolingSpec)
		} else {
			rcfg.CoolingDesign, err = cs.CoolingDesign()
		}
		if err != nil {
			return nil, err
		}
	}
	wb := wetBulb(sc)
	rcfg.WetBulbC = func(float64) float64 { return wb }
	rcfg.RecordCDUHeat = true
	rcfg.OnSample = func(s raps.Sample) {
		if len(out.samples) < limit {
			out.samples = append(out.samples, sample{
				powerW: s.PowerW, htwReturnC: s.HTWReturnC,
				heatW: append([]float64(nil), s.CDUHeatW...),
			})
		}
	}
	spec := cs.Spec()
	t = time.Now()
	sim, err := raps.NewMulti(rcfg, []raps.Partition{{Name: spec.Partitions[0].Name, Model: models[0], Jobs: jobs}})
	if err != nil {
		return nil, err
	}
	out.rep, err = sim.RunContext(context.Background(), horizon)
	out.run = time.Since(t)
	return out, err
}

// wetBulb is the scenario's fixed wet bulb; every cooled scenario of the
// benchmark fixes one, and an uncooled run never reads it.
func wetBulb(sc core.Scenario) float64 {
	if sc.WetBulbC != 0 {
		return sc.WetBulbC
	}
	return 20
}

func cooledScenario(sc core.Scenario) bool { return sc.Cooling || sc.CoolingSpec != nil }

// plantOf is the cooling plant a cooled scenario runs.
func plantOf(cs *core.CompiledSpec, sc core.Scenario) config.CoolingSpec {
	if sc.CoolingSpec != nil {
		return *sc.CoolingSpec
	}
	return cs.Spec().Cooling
}

// runKind names how raps ran a scenario: uncooled, or the plant's solver.
func runKind(cs *core.CompiledSpec, sc core.Scenario) string {
	if !cooledScenario(sc) {
		return "uncooled"
	}
	if s := plantOf(cs, sc).Solver; s != "" {
		return s
	}
	return cooling.SolverRK4
}

// rapsLayers reruns every probe through raps, then drives the
// scheduler/power replica and, when it is cooled, the plant replays from
// the first one. It returns the probes' reports.
func (r *runner) rapsLayers(l *layerLog, cs *core.CompiledSpec, probes []probe) ([]*raps.Report, error) {
	var gen []float64
	runs := map[string][]float64{} // by runKind
	var reports []*raps.Report
	jobs := 0
	var first *rapsRun
	for i, p := range probes {
		rr, err := runRaps(cs, p.scenario, p.scenario.HorizonSec, cooledScenario(p.scenario), r.sc.replayCap)
		if err != nil {
			return nil, fmt.Errorf("raps probe %s: %w", p.scenario.Name, err)
		}
		if err := p.check(rr.rep); err != nil {
			r.fail("raps probe %s: %v", p.scenario.Name, err)
		}
		gen = append(gen, rr.gen.Seconds()*1000)
		kind := runKind(cs, p.scenario)
		runs[kind] = append(runs[kind], rr.run.Seconds())
		jobs += rr.jobs
		reports = append(reports, rr.rep)
		if i == 0 {
			first = rr
		}
	}
	l.median("job.generate_ms", gen)
	l.set("job.jobs", float64(jobs), len(gen))

	p0 := probes[0].scenario
	if err := r.schedPowerReplica(l, cs, p0, first.rep.JobsCompleted); err != nil {
		return nil, err
	}
	if cooledScenario(p0) {
		unc, err := r.plantLayers(l, cs, p0, first)
		if err != nil {
			return nil, err
		}
		runs["uncooled"] = append(runs["uncooled"], unc)
	} else {
		for _, m := range layerMetrics {
			if strings.HasPrefix(m.name, "cooling.") {
				l.absent(m.name)
			}
		}
	}
	for _, kind := range []string{"uncooled", cooling.SolverRK4, cooling.SolverAdaptive} {
		l.median("raps.run_"+kind+"_s", runs[kind])
	}
	return reports, nil
}

// plantLayers replays a cooled probe's plant. The replays are fed the
// probe's recorded heat, wet bulb and IT power, so both solvers step
// identical inputs. The uncooled run over the same span is everything but
// the plant, which makes plant/(plant + uncooled) the plant's share of a
// cooled run; plantLayers returns that uncooled run's seconds.
func (r *runner) plantLayers(l *layerLog, cs *core.CompiledSpec, p0 core.Scenario, cooled *rapsRun) (float64, error) {
	span := math.Min(p0.HorizonSec, float64(r.sc.replayCap)*p0.TickSec)
	unc, err := runRaps(cs, p0, span, false, 0)
	if err != nil {
		return 0, err
	}
	series := cooled.samples
	plant := plantOf(cs, p0)
	ranRK4 := runKind(cs, p0) == cooling.SolverRK4
	for _, solver := range []string{cooling.SolverRK4, cooling.SolverAdaptive} {
		pl := plant
		pl.Solver = solver
		if solver == cooling.SolverRK4 {
			pl.Solver = "" // the spec default, exactly what an rk4 probe ran
		}
		design, err := cs.CoolingDesignFor(pl)
		if err != nil {
			return 0, err
		}
		steps, ret, stats, err := replayPlant(design, series, wetBulb(p0), p0.TickSec)
		if err != nil {
			return 0, fmt.Errorf("%s replay: %w", solver, err)
		}
		var total float64
		for _, s := range steps {
			total += s
		}
		total /= 1e6
		l.median("cooling.dostep_"+solver+"_us_p50", steps)
		l.p90("cooling.dostep_"+solver+"_us_p90", steps)
		l.set("cooling.share_"+solver, total/(total+unc.run.Seconds()), len(steps))
		if solver == cooling.SolverAdaptive {
			l.set("cooling.accepted", float64(stats.Accepted), 1)
			l.set("cooling.rejected", float64(stats.Rejected), 1)
			l.set("cooling.control_steps", float64(stats.ControlSteps), 1)
			l.set("cooling.quiescent_frac", stats.QuiescentFraction(), 1)
		}
		if solver == cooling.SolverRK4 && ranRK4 {
			// The probe itself ran this plant: the replay must reproduce
			// its return temperatures bit for bit.
			for i := range ret {
				if ret[i] != series[i].htwReturnC {
					r.fail("rk4 replay of %s: return temperature %v at sample %d, raps recorded %v",
						p0.Name, ret[i], i, series[i].htwReturnC)
					break
				}
			}
		}
	}
	return unc.run.Seconds(), nil
}

// replayPlant steps a fresh instance of the design through the recorded
// samples as raps couples it — SetReal, DoStep, GetReal per coupling
// interval — timing each DoStep in microseconds.
func replayPlant(design *fmu.Design, series []sample, wb, dt float64) (stepsUS, returnC []float64, st cooling.SolverStats, err error) {
	inst, err := design.Instantiate()
	if err != nil {
		return nil, nil, st, err
	}
	if err := inst.SetupExperiment(0); err != nil {
		return nil, nil, st, err
	}
	d := inst.Description()
	var refs []fmu.ValueRef
	for i := 1; i <= len(series[0].heatW); i++ {
		ref, err := d.RefByName(fmt.Sprintf("cdu[%d].heat_w", i))
		if err != nil {
			return nil, nil, st, err
		}
		refs = append(refs, ref)
	}
	for _, name := range []string{"wetbulb_temp_c", "it_power_w"} {
		ref, err := d.RefByName(name)
		if err != nil {
			return nil, nil, st, err
		}
		refs = append(refs, ref)
	}
	retRef, err := d.RefByName("facility.return_temp_c")
	if err != nil {
		return nil, nil, st, err
	}
	vals := make([]float64, len(refs))
	out := []fmu.ValueRef{retRef}
	got := make([]float64, 1)
	for _, s := range series {
		n := copy(vals, s.heatW)
		vals[n], vals[n+1] = wb, s.powerW
		if err := inst.SetReal(refs, vals); err != nil {
			return nil, nil, st, err
		}
		t := time.Now()
		if err := inst.DoStep(dt); err != nil {
			return nil, nil, st, err
		}
		stepsUS = append(stepsUS, since(t, time.Microsecond))
		if err := inst.GetReal(out, got); err != nil {
			return nil, nil, st, err
		}
		returnC = append(returnC, got[0])
	}
	return stepsUS, returnC, inst.SolverStats(), nil
}

// schedPowerReplica replays the first half of raps.Simulation.Tick over
// a fresh copy of the probe's jobs — Reap, Submit of arrivals, Schedule,
// then the incremental power updates of every start, end and trace
// quantum crossing — timing each scheduling pass and each power delta.
func (r *runner) schedPowerReplica(l *layerLog, cs *core.CompiledSpec, sc core.Scenario, wantCompleted int) error {
	models, err := cs.Models(sc.PowerMode)
	if err != nil {
		return err
	}
	model := models[0]
	jobs := job.NewGenerator(generatorFor(sc, model)).GenerateHorizon(sc.HorizonSec)
	sort.SliceStable(jobs, func(i, k int) bool {
		if jobs[i].SubmitTime != jobs[k].SubmitTime {
			return jobs[i].SubmitTime < jobs[k].SubmitTime
		}
		return jobs[i].ID < jobs[k].ID
	})
	policy := sc.Policy
	if policy == "" {
		policy = raps.DefaultConfig().Policy
	}
	pol, err := sched.PolicyByName(policy)
	if err != nil {
		return err
	}
	sch := sched.NewScheduler(model.Topo.NodesTotal, pol)
	inc := model.NewIncremental()

	type running struct {
		nodes  []int
		idx    int
		cu, gu float64
		frozen bool
	}
	states := make(map[int]*running)
	var passes, deltas []float64
	completed, next := 0, 0
	now := 0.0
	steps := int(math.Round(sc.HorizonSec / sc.TickSec))
	for i := 0; i < steps; i++ {
		now += sc.TickSec
		done := sch.Reap(now)
		completed += len(done)
		for next < len(jobs) && jobs[next].SubmitTime <= now {
			sch.Submit(jobs[next])
			next++
		}
		t := time.Now()
		started := sch.Schedule(now)
		passes = append(passes, since(t, time.Microsecond))

		for _, j := range done {
			if rs, ok := states[j.ID]; ok {
				inc.SetNodesIdle(rs.nodes)
				delete(states, j.ID)
			}
		}
		for _, j := range started {
			el := now - j.StartTime
			idx := int(el / job.TraceQuantaSec)
			cu, gu := j.UtilAt(el)
			rs := &running{nodes: j.Nodes, idx: idx, cu: cu, gu: gu}
			rs.frozen = idx >= j.TraceConstSuffix() || j.TraceFrozenAt(idx)
			inc.SetNodes(rs.nodes, cu, gu)
			states[j.ID] = rs
		}
		for _, j := range sch.Running() {
			rs, ok := states[j.ID]
			if !ok || rs.frozen {
				continue
			}
			el := now - j.StartTime
			idx := int(el / job.TraceQuantaSec)
			if idx == rs.idx {
				continue
			}
			rs.idx = idx
			rs.frozen = idx >= j.TraceConstSuffix() || j.TraceFrozenAt(idx)
			if cu, gu := j.UtilAt(el); cu != rs.cu || gu != rs.gu {
				rs.cu, rs.gu = cu, gu
				inc.SetNodes(rs.nodes, cu, gu)
			}
		}
		if inc.Dirty() {
			t := time.Now()
			inc.ComputeDelta()
			deltas = append(deltas, since(t, time.Microsecond))
		}
	}
	if completed != wantCompleted {
		r.fail("sched/power replica of %s completes %d jobs, raps %d", sc.Name, completed, wantCompleted)
	}
	l.median("sched.schedule_us_p50", passes)
	l.p90("sched.schedule_us_p90", passes)
	l.set("sched.passes", float64(len(passes)), len(passes))
	l.median("power.delta_us_p50", deltas)
	l.set("power.deltas", float64(len(deltas)), len(deltas))
	return nil
}

// storeLayers times the durable store on the probes' reports and the
// workload's own sweep manifest, and reopens the workload's store.
func (r *runner) storeLayers(l *layerLog, cs *core.CompiledSpec, in layerInputs, reports []*raps.Report) error {
	dir, err := freshDir(r.work, "layer-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	var put, get, kb []float64
	for i, p := range in.probes {
		rr := &core.Result{Scenario: core.Scenario{Name: p.scenario.Name}, Report: reports[i]}
		hash, err := service.HashScenario(p.scenario)
		if err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			t := time.Now()
			if err := st.Put(cs.Hash(), hash, rr); err != nil {
				return err
			}
			put = append(put, since(t, time.Millisecond))
			t = time.Now()
			if _, err := st.Get(cs.Hash(), hash); err != nil {
				return err
			}
			get = append(get, since(t, time.Millisecond))
		}
		fi, err := os.Stat(st.EntryPath(cs.Hash(), hash))
		if err != nil {
			return err
		}
		kb = append(kb, float64(fi.Size())/1024)
	}
	l.median("store.put_ms", put)
	l.median("store.get_ms", get)
	l.median("store.entry_kb", kb)

	specJSON, err := json.Marshal(cs.Spec())
	if err != nil {
		return err
	}
	scenJSON, err := json.Marshal(in.request.Scenarios)
	if err != nil {
		return err
	}
	var create, appendUS []float64
	for i := 0; i < 10; i++ {
		m := &store.SweepManifest{
			ID: fmt.Sprintf("sw-%x", i+1), SpecHash: cs.Hash(),
			SpecJSON: specJSON, ScenariosJSON: scenJSON,
			CreatedUnixNano: time.Now().UnixNano(),
		}
		for range in.request.Scenarios {
			m.ScenarioHashes = append(m.ScenarioHashes, cs.Hash())
		}
		t := time.Now()
		j, err := st.CreateJournal(m)
		if err != nil {
			return err
		}
		create = append(create, since(t, time.Millisecond))
		for k := range in.request.Scenarios {
			t := time.Now()
			if err := j.Append(store.ScenarioRecord{Index: k, Hash: cs.Hash(), State: "cached", CacheHit: true}); err != nil {
				return err
			}
			appendUS = append(appendUS, since(t, time.Microsecond))
		}
		if err := j.End("complete"); err != nil {
			return err
		}
	}
	l.median("store.journal_create_ms", create)
	l.median("store.journal_append_us", appendUS)

	var open []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := store.Open(r.storeDir); err != nil {
			return err
		}
		open = append(open, since(t, time.Millisecond))
	}
	l.median("store.open_ms", open)
	return nil
}

func (r *runner) serviceLayers(l *layerLog, spec config.SystemSpec, req *service.SubmitRequest) {
	var hash []float64
	for i := 0; i < 10; i++ {
		for k := range req.Scenarios {
			sc := req.Scenarios[k].Scenario()
			t := time.Now()
			_, err1 := service.HashScenario(sc)
			_, err2 := spec.Hash()
			hash = append(hash, since(t, time.Microsecond))
			if err1 != nil || err2 != nil {
				r.fail("hash %s: %v %v", sc.Name, err1, err2)
			}
		}
	}
	l.median("service.hash_us", hash)

	var recover []float64
	for i := 0; i < 5; i++ {
		st, err := store.Open(r.storeDir)
		if err != nil {
			r.fail("recover probe: %v", err)
			break
		}
		t := time.Now()
		svc := service.New(service.Options{Workers: serviceWorkers, Store: st})
		if _, err := svc.Recover(); err != nil {
			r.fail("recover probe: %v", err)
		}
		recover = append(recover, since(t, time.Millisecond))
		svc.Close()
	}
	l.median("service.recover_ms", recover)

	var queue, runS, write []float64
	var disk, memory int
	for _, sp := range r.spans {
		queue = append(queue, sp.QueueSec)
		for _, a := range sp.Attempts {
			if a.Outcome == "ok" {
				runS = append(runS, a.RunSec)
			}
		}
		if sp.StoreWriteSec > 0 {
			write = append(write, sp.StoreWriteSec*1000)
		}
		switch sp.CacheTier {
		case "disk":
			disk++
		case "memory":
			memory++
		}
	}
	l.median("service.queue_s_p50", queue)
	l.median("service.run_s_p50", runS)
	l.median("service.store_write_ms_p50", write)
	n := float64(len(r.spans))
	l.set("service.tier_disk_frac", float64(disk)/n, len(r.spans))
	l.set("service.tier_memory_frac", float64(memory)/n, len(r.spans))

	var post, stream []float64
	for _, t := range r.reqs {
		post = append(post, t.post.Seconds()*1000)
		stream = append(stream, t.stream.Seconds()*1000)
	}
	l.median("http.post_ms", post)
	l.median("http.stream_ms", stream)
}
