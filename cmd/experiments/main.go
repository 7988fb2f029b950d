// Command experiments regenerates every table and figure of the paper's
// evaluation (§IV): Tables I-IV, Figs. 4 and 7-9, the two §IV-3 what-if
// studies, and the studies built on them — the virtual CDU expansion,
// the weather correlation, the dense-vs-event engine comparison and the
// ablations. Each experiment prints its result in the paper's format.
//
// Usage:
//
//	experiments [-run all|tableI,tableII,tableIII,tableIV,fig4,fig7,fig8,fig9,
//	                  smartrect,dc380,expansion,weather,engine,ablation]
//	            [-days 183] [-seed 42] [-fig7-hours 24] [-fig9-hours 24]
//	            [-whatif-days 14] [-workers 0]
//
// Ids are case-insensitive. An unknown id exits non-zero and lists the
// valid ones.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"exadigit/internal/exp"
)

// knobs carries the command-line settings the experiments read.
type knobs struct {
	days, whatIfDays, workers int
	seed                      int64
	fig7Hours, fig9Hours      float64
}

// experiment is one -run id and the tables it prints.
type experiment struct {
	id  string
	run func(k knobs) error
}

// experiments is the -run table, in the order "all" runs it.
var experiments = []experiment{
	{"tableI", func(knobs) error { return show(exp.TableI(), nil) }},
	{"tableII", func(knobs) error { return show(exp.TableII()) }},
	{"tableIII", func(knobs) error { return showData(exp.TableIII()) }},
	{"tableIV", func(k knobs) error {
		return showData(exp.TableIV(exp.DailyConfig{Days: k.days, Seed: k.seed, Workers: k.workers}))
	}},
	{"fig4", func(knobs) error {
		t, _ := exp.Fig4()
		return show(t, nil)
	}},
	{"fig7", func(k knobs) error {
		return showData(exp.Fig7(exp.Fig7Config{HorizonSec: k.fig7Hours * 3600, Seed: k.seed}))
	}},
	{"fig8", func(knobs) error { return showData(exp.Fig8(3600)) }},
	{"fig9", func(k knobs) error {
		return showData(exp.Fig9(exp.Fig9Config{Seed: k.seed, HorizonSec: k.fig9Hours * 3600}))
	}},
	{"smartrect", func(k knobs) error { return showData(exp.SmartRectifier(k.whatIfDays, k.seed)) }},
	{"dc380", func(k knobs) error { return showData(exp.DC380(k.whatIfDays, k.seed)) }},
	{"expansion", func(knobs) error { return showData(exp.VirtualExpansion(8, nil, 33.0)) }},
	{"weather", func(k knobs) error { return showData(exp.WeatherCorrelation(3, k.seed)) }},
	{"engine", func(k knobs) error { return showData(exp.EngineComparison(k.seed)) }},
	{"ablation", func(k knobs) error {
		if err := show(exp.AblationControlDt(nil)); err != nil {
			return err
		}
		if err := showData(exp.AblationTick(0, k.seed)); err != nil {
			return err
		}
		if err := showData(exp.AblationCoolingCost(0, k.seed)); err != nil {
			return err
		}
		return showData(exp.AblationSchedulers(0, k.seed))
	}},
}

// show prints a finished table.
func show(t *exp.Table, err error) error {
	if err == nil {
		fmt.Println(t)
	}
	return err
}

// showData prints a finished table, dropping the data behind it.
func showData[D any](t *exp.Table, _ D, err error) error { return show(t, err) }

// ids lists the table's -run ids.
func ids() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.id
	}
	return out
}

// selectExperiments resolves a comma-separated -run list ("all" or
// case-insensitive ids) to table entries in table order. An unknown id,
// or a list that selects nothing, is an error naming the valid ids.
func selectExperiments(run string) ([]experiment, error) {
	want := map[string]bool{}
	for _, id := range strings.Split(run, ",") {
		if id = strings.ToLower(strings.TrimSpace(id)); id != "" {
			want[id] = true
		}
	}
	all := want["all"]
	delete(want, "all")
	var out []experiment
	for _, e := range experiments {
		id := strings.ToLower(e.id)
		if all || want[id] {
			out = append(out, e)
		}
		delete(want, id)
	}
	if len(want) > 0 || len(out) == 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("-run %q: unknown id(s) %q; valid ids: all, %s",
			run, unknown, strings.Join(ids(), ", "))
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var k knobs
	run := flag.String("run", "all", "comma-separated experiment ids ("+strings.Join(ids(), ", ")+") or 'all'")
	flag.IntVar(&k.days, "days", 183, "days for the Table IV / what-if studies")
	flag.Int64Var(&k.seed, "seed", 42, "study random seed")
	flag.Float64Var(&k.fig7Hours, "fig7-hours", 24, "Fig. 7 validation window")
	flag.Float64Var(&k.fig9Hours, "fig9-hours", 24, "Fig. 9 replay window")
	flag.IntVar(&k.whatIfDays, "whatif-days", 14, "days for the what-if studies")
	flag.IntVar(&k.workers, "workers", 0, "parallel day simulations (0 = all CPUs)")
	flag.Parse()

	selected, err := selectExperiments(*run)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range selected {
		start := time.Now()
		if err := e.run(k); err != nil {
			log.Fatalf("%s: %v", e.id, err)
		}
		fmt.Printf("[%s completed in %v]\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
}
