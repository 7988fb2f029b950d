// Package uq implements the uncertainty quantification the paper embeds
// in RAPS (§IV: "we prioritized extensive V&V ... and also have
// implemented UQ into our RAPS module", following the NASEM digital-twin
// recommendation to deeply embed VVUQ). Model-form parameters whose
// datasheet values carry tolerance — component powers, conversion
// efficiencies, the cooling-efficiency factor — are perturbed within
// stated bounds and the simulation is re-run as an ensemble, yielding
// confidence intervals on the twin's power, energy, and loss predictions.
package uq

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"exadigit/internal/job"
	"exadigit/internal/power"
	"exadigit/internal/raps"
	"exadigit/internal/stats"
)

// Perturbation bounds one model parameter's relative uncertainty.
type Perturbation struct {
	// Name identifies the parameter in reports.
	Name string
	// Rel is the half-width of the uniform relative perturbation
	// (0.05 → ±5 %).
	Rel float64
	// Apply scales the parameter inside a model copy.
	Apply func(m *power.Model, factor float64)
}

// DefaultPerturbations returns the datasheet-tolerance set used for
// Frontier: ±3 % on RAM/NIC/NVMe/switch average powers, ±1 % on the
// rectifier and SIVOC efficiencies, ±2 % on the cooling-efficiency
// factor, and ±5 % on the CDU pump overhead.
func DefaultPerturbations() []Perturbation {
	return []Perturbation{
		{Name: "ram_power", Rel: 0.03, Apply: func(m *power.Model, f float64) { m.Spec.RAM *= f }},
		{Name: "nic_power", Rel: 0.03, Apply: func(m *power.Model, f float64) { m.Spec.NIC *= f }},
		{Name: "nvme_power", Rel: 0.03, Apply: func(m *power.Model, f float64) { m.Spec.NVMe *= f }},
		{Name: "switch_power", Rel: 0.03, Apply: func(m *power.Model, f float64) { m.Spec.Switch *= f }},
		{Name: "cdu_pump_power", Rel: 0.05, Apply: func(m *power.Model, f float64) { m.Spec.CDUPump *= f }},
		{Name: "rectifier_eta", Rel: 0.01, Apply: func(m *power.Model, f float64) {
			m.Chain.Rect.EtaMax = clamp01(m.Chain.Rect.EtaMax * f)
		}},
		{Name: "sivoc_eta", Rel: 0.01, Apply: func(m *power.Model, f float64) {
			m.Chain.EtaSIVOC = clamp01(m.Chain.EtaSIVOC * f)
		}},
		{Name: "cooling_eff", Rel: 0.02, Apply: func(m *power.Model, f float64) {
			m.CoolingEff = clamp01(m.CoolingEff * f)
		}},
	}
}

// Config parameterizes an ensemble study.
type Config struct {
	// Members is the ensemble size (default 32).
	Members int
	// Seed drives both the perturbation draws and the shared workload.
	Seed int64
	// HorizonSec is each member's simulated duration.
	HorizonSec float64
	// TickSec is the simulation tick (default 15 s).
	TickSec float64
	// Perturbations to sample; nil uses DefaultPerturbations.
	Perturbations []Perturbation
	// Workers bounds parallelism (0 → NumCPU).
	Workers int
}

// Interval is a two-sided confidence interval with the ensemble mean.
type Interval struct {
	Mean, Std float64
	P05, P95  float64
}

// Result aggregates an ensemble study.
type Result struct {
	Members   int
	PowerMW   Interval
	EnergyMWh Interval
	LossMW    Interval
	EtaSystem Interval
	CO2Tons   Interval
	// MemberReports holds each member's full report.
	MemberReports []*raps.Report
}

// Run executes the ensemble: every member simulates the *same* workload
// on an independently perturbed model, so the spread isolates parametric
// model-form uncertainty.
func Run(cfg Config, baseJobs func() []*job.Job) (*Result, error) {
	if cfg.HorizonSec <= 0 {
		return nil, fmt.Errorf("uq: HorizonSec must be positive")
	}
	if cfg.Members <= 0 {
		cfg.Members = 32
	}
	if cfg.TickSec <= 0 {
		cfg.TickSec = 15
	}
	perts := cfg.Perturbations
	if perts == nil {
		perts = DefaultPerturbations()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > cfg.Members {
		workers = cfg.Members
	}

	// Draw all perturbation factors up front for reproducibility.
	master := rand.New(rand.NewSource(cfg.Seed))
	factors := make([][]float64, cfg.Members)
	for m := range factors {
		factors[m] = make([]float64, len(perts))
		for p := range perts {
			factors[m][p] = 1 + perts[p].Rel*(2*master.Float64()-1)
		}
	}

	reports := make([]*raps.Report, cfg.Members)
	errs := make([]error, cfg.Members)
	var wg sync.WaitGroup
	memberCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := range memberCh {
				reports[m], errs[m] = runMember(cfg, perts, factors[m], baseJobs)
			}
		}()
	}
	for m := 0; m < cfg.Members; m++ {
		memberCh <- m
	}
	close(memberCh)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &Result{Members: cfg.Members, MemberReports: reports}
	res.PowerMW = interval(reports, func(r *raps.Report) float64 { return r.AvgPowerMW })
	res.EnergyMWh = interval(reports, func(r *raps.Report) float64 { return r.EnergyMWh })
	res.LossMW = interval(reports, func(r *raps.Report) float64 { return r.AvgLossMW })
	res.EtaSystem = interval(reports, func(r *raps.Report) float64 { return r.EtaSystem })
	res.CO2Tons = interval(reports, func(r *raps.Report) float64 { return r.CO2Tons })
	return res, nil
}

func runMember(cfg Config, perts []Perturbation, factors []float64, baseJobs func() []*job.Job) (*raps.Report, error) {
	model := power.NewFrontierModel()
	for p := range perts {
		perts[p].Apply(model, factors[p])
	}
	var jobs []*job.Job
	if baseJobs != nil {
		jobs = baseJobs()
	}
	rcfg := raps.DefaultConfig()
	rcfg.TickSec = cfg.TickSec
	sim, err := raps.New(rcfg, model, jobs)
	if err != nil {
		return nil, err
	}
	return sim.Run(cfg.HorizonSec)
}

// interval summarizes one report metric over the ensemble. The values
// are sorted first, so the mean sums them in ascending order.
func interval(reports []*raps.Report, f func(*raps.Report) float64) Interval {
	vals := make([]float64, len(reports))
	for i, r := range reports {
		vals[i] = f(r)
	}
	sort.Float64s(vals)
	s, _ := stats.Summarize(vals) // Run has at least one member
	return Interval{Mean: s.Mean, Std: s.Std, P05: s.P05, P95: s.P95}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
