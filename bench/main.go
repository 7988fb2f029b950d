// Command bench is the repository's benchmark: it drives the sweep
// service's real HTTP handler stack over loopback, from one process, on
// three workloads, checks every output, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer ones) as the last line of stdout:
//
//	{"correct": true, "attempted": 96, "failed": 0, "metrics": {"setup_s": {"value": 0.041, "unit": "s"}, ...}}
//
// Run it from the repository root, normally through bench/run.sh:
//
//	bench/run.sh --workload cooled-sweep --seed 1 --seconds 28 --trace 0
//
// Without --workload it runs every workload, each in a child process of
// its own so set-up, heap and peak RSS do not leak between them.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// procs is the processor count every run is measured at.
const procs = 2

func main() {
	runtime.GOMAXPROCS(procs)
	name := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames)+"; empty runs all, each in its own process")
	seed := flag.Int64("seed", 1, "seed every input is derived from")
	secs := flag.Int("seconds", 28, "how long the timed part lasts on the reference host")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	write := flag.String("write-expected", "", "record this run's -seed 1 digests into `file` (bench/expected.json) instead of checking them")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace takes 0 or 1")
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(*seed, *secs, *trace))
	}
	if err := runOne(*name, *seed, *secs, *trace == 1, *write); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func runAll(seed int64, secs, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloadNames {
		fmt.Printf("== %s\n", w)
		cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(secs), "--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

func runOne(name string, seed int64, secs int, trace bool, write string) error {
	wl, err := newWorkload(name, seed, fullScale)
	if err != nil {
		return err
	}
	work, err := workDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	r := &runner{
		name: name, wl: wl, seed: seed, sc: fullScale,
		seconds: time.Duration(secs) * time.Second, trace: trace, work: work,
		recordOnly: write != "",
	}
	res, err := r.run()
	if err != nil {
		return err
	}
	if write != "" {
		if err := writeExpected(write, name, r.observed); err != nil {
			return err
		}
		fmt.Println("recorded digests in", write)
	}
	list, vals := e2eMetrics, res.e2e
	if trace {
		list, vals = layerMetrics, res.layers
	} else {
		printMetrics(vals, list)
	}
	line, err := resultLine(res, list, vals)
	if err != nil {
		return err
	}
	fp, err := json.Marshal(map[string]any{
		"fingerprint": fingerprint(), "workload": name, "seed": seed, "seconds": secs, "trace": trace,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(fp))
	fmt.Println(string(line))
	if !res.correct {
		return fmt.Errorf("%s: output checks failed", name)
	}
	return nil
}

// resultLine renders the last line of stdout: exactly correct,
// attempted, failed and the listed metrics with their units.
func resultLine(res result, list []metric, vals map[string]float64) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(list))
	for _, m := range list {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		metrics[m.name] = value{v, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
}

// fingerprint names the host and build a run was measured on; the
// comparison tool warns when two sets of runs disagree on it.
func fingerprint() map[string]string {
	fp := map[string]string{
		"cpu":        cpuModel(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp["commit"] = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					fp["dirty"] = "true"
				}
			}
		}
	}
	return fp
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if k, v, ok := bytes.Cut(line, []byte(":")); ok && string(bytes.TrimSpace(k)) == "model name" {
			return string(bytes.TrimSpace(v))
		}
	}
	return runtime.GOARCH
}
