// Command experiments regenerates every table and figure of the paper's
// evaluation (§IV): Tables I-IV, Figs. 4 and 7-9, and the two §IV-3
// what-if studies. Each experiment prints its result in the paper's
// format.
//
// Usage:
//
//	experiments [-run all|tableI,tableII,tableIII,tableIV,fig4,fig7,fig8,fig9,smartrect,dc380]
//	            [-days 183] [-seed 42] [-fig7-hours 24] [-fig9-hours 24]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"exadigit/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		run        = flag.String("run", "all", "comma-separated experiment ids (tableI..tableIV, fig4, fig7, fig8, fig9, smartrect, dc380, expansion, weather, ablation, engine) or 'all'")
		days       = flag.Int("days", 183, "days for the Table IV / what-if studies")
		seed       = flag.Int64("seed", 42, "study random seed")
		fig7Hours  = flag.Float64("fig7-hours", 24, "Fig. 7 validation window")
		fig9Hours  = flag.Float64("fig9-hours", 24, "Fig. 9 replay window")
		whatIfDays = flag.Int("whatif-days", 14, "days for the what-if studies")
		workers    = flag.Int("workers", 0, "parallel day simulations (0 = all CPUs)")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, id := range strings.Split(*run, ",") {
		want[strings.TrimSpace(strings.ToLower(id))] = true
	}
	all := want["all"]
	selected := func(id string) bool { return all || want[id] }

	runOne := func(id string, f func() error) {
		if !selected(id) {
			return
		}
		start := time.Now()
		if err := f(); err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	runOne("tablei", func() error {
		fmt.Println(exp.TableI())
		return nil
	})
	runOne("tableii", func() error {
		t, err := exp.TableII()
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	})
	runOne("tableiii", func() error {
		t, _, err := exp.TableIII()
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	})
	runOne("tableiv", func() error {
		t, _, err := exp.TableIV(exp.DailyConfig{Days: *days, Seed: *seed, Workers: *workers})
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	})
	runOne("fig4", func() error {
		t, _ := exp.Fig4()
		fmt.Println(t)
		return nil
	})
	runOne("fig7", func() error {
		t, _, err := exp.Fig7(exp.Fig7Config{HorizonSec: *fig7Hours * 3600, Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	})
	runOne("fig8", func() error {
		t, _, err := exp.Fig8(3600)
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	})
	runOne("fig9", func() error {
		t, _, err := exp.Fig9(exp.Fig9Config{Seed: *seed, HorizonSec: *fig9Hours * 3600})
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	})
	runOne("smartrect", func() error {
		t, _, err := exp.SmartRectifier(*whatIfDays, *seed)
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	})
	runOne("dc380", func() error {
		t, _, err := exp.DC380(*whatIfDays, *seed)
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	})
	runOne("expansion", func() error {
		t, _, err := exp.VirtualExpansion(8, nil, 33.0)
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	})
	runOne("weather", func() error {
		t, _, err := exp.WeatherCorrelation(3, *seed)
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	})
	runOne("engine", func() error {
		t, _, err := exp.EngineComparison(*seed)
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	})
	runOne("ablation", func() error {
		t1, err := exp.AblationControlDt(nil)
		if err != nil {
			return err
		}
		fmt.Println(t1)
		t2, _, err := exp.AblationTick(0, *seed)
		if err != nil {
			return err
		}
		fmt.Println(t2)
		t3, _, err := exp.AblationCoolingCost(0, *seed)
		if err != nil {
			return err
		}
		fmt.Println(t3)
		t4, _, err := exp.AblationSchedulers(0, *seed)
		if err != nil {
			return err
		}
		fmt.Println(t4)
		return nil
	})
}
