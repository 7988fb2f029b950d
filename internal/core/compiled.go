package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"exadigit/internal/autocsm"
	"exadigit/internal/config"
	"exadigit/internal/fmu"
	"exadigit/internal/job"
	"exadigit/internal/power"
	"exadigit/internal/sched"
)

// CompiledSpec is a validated SystemSpec with its expensive derived
// artifacts — the per-mode power models and the cooling FMU design —
// built once and shared read-only by every scenario run against it. A
// RunBatch worker or service sweep that rebuilds these per scenario pays
// the full 9472-node model assembly and 300+-variable FMU description
// walk each time; compiling once amortizes that across the whole sweep.
//
// All methods are safe for concurrent use; the cached artifacts are
// immutable once built (simulations read them but never write).
type CompiledSpec struct {
	spec config.SystemSpec
	hash string

	mu     sync.Mutex
	models map[string][]*power.Model // power-mode key → per-partition models

	coolMu      sync.Mutex
	coolDesigns map[string]*fmu.Design // resolved-plant content hash → compiled design
	coolOrder   []string               // design keys, oldest first, for eviction
}

// maxCoolingDesigns bounds the per-spec design cache: scenarios may
// carry arbitrary per-scenario cooling overrides over HTTP, so distinct
// plants must not pin designs forever. Evicted designs keep working for
// running simulations; a re-submission recompiles.
const maxCoolingDesigns = 32

// Compile validates the spec and wraps it for shared use. Power models
// and the cooling design are built lazily, on first demand per power
// mode, and cached for the lifetime of the CompiledSpec.
func Compile(spec config.SystemSpec) (*CompiledSpec, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	return &CompiledSpec{
		spec:        spec,
		hash:        hash,
		models:      make(map[string][]*power.Model),
		coolDesigns: make(map[string]*fmu.Design),
	}, nil
}

// Spec returns a copy of the underlying system specification.
func (cs *CompiledSpec) Spec() config.SystemSpec { return cs.spec }

// Hash returns the spec's canonical content hash — the spec half of the
// (spec, scenario) result-cache key.
func (cs *CompiledSpec) Hash() string { return cs.hash }

// Models returns every partition's power model with the given power mode
// applied ("" keeps each partition's own mode), building them on first
// use and serving the shared instances afterwards. The returned slice is
// indexed like the spec's partitions and must be treated as read-only.
func (cs *CompiledSpec) Models(mode string) ([]*power.Model, error) {
	key := mode
	if key != "" {
		// An explicit mode that matches every partition's own mode is the
		// spec's default spelled out — share the default build.
		same := true
		for i := range cs.spec.Partitions {
			if cs.spec.Partitions[i].Power.Mode != mode {
				same = false
				break
			}
		}
		if same {
			key = ""
		}
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if ms, ok := cs.models[key]; ok {
		return ms, nil
	}
	ms := make([]*power.Model, len(cs.spec.Partitions))
	for i := range cs.spec.Partitions {
		part := cs.spec.Partitions[i]
		if mode != "" {
			part.Power.Mode = mode
		}
		m, err := part.BuildModel()
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	cs.models[key] = ms
	return ms, nil
}

// CoolingDesign returns the shared FMU design for the spec's own cooling
// plant, compiling it on first use. SystemSpec.Cooling is the single
// source of truth: a preset name resolves to its hand-calibrated plant
// (the default Frontier spec is bit-identical to the paper-validated
// model), anything else is synthesized by AutoCSM from the spec's design
// quantities.
func (cs *CompiledSpec) CoolingDesign() (*fmu.Design, error) {
	return cs.CoolingDesignFor(cs.spec.Cooling)
}

// CoolingDesignFor returns the shared FMU design for an arbitrary
// cooling spec — the path scenarios take when they override the system's
// plant, letting one sweep mix cooling variants against the same compute
// spec. The spec is resolved to a concrete plant first (one registry
// read) and the cache keyed by the resolved content, so a preset
// re-registered concurrently can never cache a design under another
// plant's hash; designs are compiled once per distinct plant and served
// from a bounded cache.
func (cs *CompiledSpec) CoolingDesignFor(spec config.CoolingSpec) (*fmu.Design, error) {
	cfg, err := autocsm.Compile(spec)
	if err != nil {
		return nil, fmt.Errorf("core: cooling design: %w", err)
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: cooling design: %w", err)
	}
	sum := sha256.Sum256(raw)
	key := hex.EncodeToString(sum[:])
	cs.coolMu.Lock()
	defer cs.coolMu.Unlock()
	if d, ok := cs.coolDesigns[key]; ok {
		return d, nil
	}
	// The simulation couples one heat input per topology CDU across all
	// partitions (each partition claims a contiguous loop range of the
	// shared plant), so the plant must expose at least the summed count;
	// catching it here gives submitters a clear error instead of a
	// missing-FMU-variable failure deep inside a worker.
	topo := 0
	for i := range cs.spec.Partitions {
		topo += cs.spec.Partitions[i].NumCDUs
	}
	if cfg.NumCDUs < topo {
		return nil, fmt.Errorf("core: cooling design: plant has %d CDU loops but the spec's %d partition(s) couple %d",
			cfg.NumCDUs, len(cs.spec.Partitions), topo)
	}
	d, err := fmu.NewDesign(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: cooling design: %w", err)
	}
	cs.coolDesigns[key] = d
	cs.coolOrder = append(cs.coolOrder, key)
	for len(cs.coolOrder) > maxCoolingDesigns {
		delete(cs.coolDesigns, cs.coolOrder[0])
		cs.coolOrder = cs.coolOrder[1:]
	}
	return d, nil
}

// maxSyntheticJobs bounds the jobs a synthetic workload may imply over
// its horizon (horizon / arrival mean): the sweep service takes
// generators over HTTP, and a near-zero mean would otherwise generate
// horizon/mean jobs and exhaust memory in one request.
const maxSyntheticJobs = 1_000_000

// Check decides whether sc can run on this spec. It holds every
// deterministic refusal of a run: Scenario.Validate, the partition list,
// the workload kinds (replay only at scenario level, with a dataset),
// the synthetic generator's arrival mean and job cap, the scheduler
// policy, the power mode and the cooling plant (CoolingSpec.Validate,
// then the design resolve, cached for the run). Sweep and study submit,
// optimizer candidates, journal recovery and Twin.RunContext all refuse
// through it, so a scenario is refused the same way everywhere and never
// retried: a scenario Check accepts fails, if at all, only for reasons a
// retry might change.
func (cs *CompiledSpec) Check(sc *Scenario) error {
	_, err := cs.check(sc)
	return err
}

// check is Check returning the cooling design it resolved (nil for an
// uncooled scenario), so a run resolves its plant once.
func (cs *CompiledSpec) check(sc *Scenario) (*fmu.Design, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	n := len(cs.spec.Partitions)
	if k := len(sc.Partitions); k != 0 && k != n {
		return nil, fmt.Errorf("core: scenario lists %d partition workloads but spec %q has %d partitions",
			k, cs.spec.Name, n)
	}
	for i, ps := range partitionWorkloads(sc, n) {
		if err := checkWorkload(sc, &ps); err != nil {
			return nil, fmt.Errorf("core: partition %q: %w", cs.spec.Partitions[i].Name, err)
		}
	}
	if _, err := sched.PolicyByName(sc.Policy); err != nil {
		return nil, err
	}
	// "" keeps each partition's own mode, which Compile validated; an
	// explicit mode is checked by building (once) the models a run uses.
	if sc.PowerMode != "" {
		if _, err := cs.Models(sc.PowerMode); err != nil {
			return nil, err
		}
	}
	switch {
	case sc.CoolingSpec != nil:
		if err := sc.CoolingSpec.Validate(); err != nil {
			return nil, err
		}
		return cs.CoolingDesignFor(*sc.CoolingSpec)
	case sc.Cooling:
		return cs.CoolingDesign()
	}
	return nil, nil
}

// checkWorkload refuses a partition workload no run can realize.
func checkWorkload(sc *Scenario, ps *PartitionScenario) error {
	switch ps.Workload {
	case "", WorkloadIdle, WorkloadPeak, WorkloadHPL, WorkloadOpenMxP:
		return nil
	case WorkloadReplay:
		if len(sc.Partitions) != 0 {
			return fmt.Errorf("replay is not a per-partition workload (set Scenario.Workload)")
		}
		if sc.Dataset == nil {
			return fmt.Errorf("replay workload needs a dataset")
		}
		return nil
	case WorkloadSynthetic:
		// A negative (or NaN) mean would stall the Poisson clock; 0
		// selects the default generator.
		mean := ps.Generator.ArrivalMeanSec
		if !(mean >= 0) {
			return fmt.Errorf("generator arrival_mean_sec must be positive (0 = defaults), got %v", mean)
		}
		if mean == 0 {
			mean = job.DefaultGeneratorConfig().ArrivalMeanSec
		}
		if expected := sc.HorizonSec / mean; expected > maxSyntheticJobs {
			return fmt.Errorf("horizon %.0fs at arrival mean %.3gs implies ~%.2g jobs (cap %d); raise arrival_mean_sec",
				sc.HorizonSec, mean, expected, maxSyntheticJobs)
		}
		return nil
	}
	return fmt.Errorf("unknown workload %q", ps.Workload)
}

// Twin returns a fresh Twin bound to the compiled spec. Twins are cheap
// (all heavy state is shared through the CompiledSpec) but not safe for
// concurrent use themselves — create one per worker.
func (cs *CompiledSpec) Twin() *Twin {
	return &Twin{Spec: cs.spec, compiled: cs}
}
