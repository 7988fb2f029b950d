// Command compare judges two sets of benchmark runs — a base commit and
// a change — by the paired-run rule: runs are paired by (workload,
// seed); a metric gains only when the change wins at least nine tenths
// of at least ten pairs and the medians differ by more than the base's
// interquartile range; it regresses when the change's median is worse
// than the base's by more than the metric's bound in BENCHMARK.json; and
// it is unresolved when either side's spread is wider than the bound,
// unless every change run beats every base run.
//
//	bench/run.sh compare BASE_DIR CHANGE_DIR
//
// Each directory holds one file per run: that run's standard output.
// Traced runs are skipped. compare exits 1 on any regression, on more
// failed operations or failed checks in the change than in the base, and
// warns when the two sets were measured on different hosts.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"exadigit/bench/stat"
)

// gainShare and minPairs are the paired-run rule's thresholds.
const (
	gainShare = 0.9
	minPairs  = 10
)

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
}

// run is one run's record: the fingerprint line and the result line.
type run struct {
	file        string
	workload    string
	seed        int64
	fingerprint map[string]string
	correct     bool
	failed      int
	metrics     map[string]float64
}

// benchPath is the benchmark definition holding the metric bounds; run.sh
// runs compare from the repository root.
const benchPath = "BENCHMARK.json"

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: compare BASE_DIR CHANGE_DIR")
		os.Exit(2)
	}
	code, err := compare(os.Args[1], os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func compare(baseDir, changeDir string) (int, error) {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return 0, err
	}
	var bench benchFile
	if err := json.Unmarshal(data, &bench); err != nil {
		return 0, fmt.Errorf("%s: %w", benchPath, err)
	}
	base, err := loadRuns(baseDir)
	if err != nil {
		return 0, err
	}
	change, err := loadRuns(changeDir)
	if err != nil {
		return 0, err
	}
	warnFingerprints(base, change)

	code := 0
	fmt.Printf("%-20s %-15s %26s %26s %8s %7s  %s\n", "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "delta", "wins", "verdict")
	for _, w := range workloads(base, change) {
		a, b := pairs(base[w], change[w])
		if len(a) == 0 {
			fmt.Printf("%-20s no seed run on both sides\n", w)
			continue
		}
		if len(a) < minPairs {
			fmt.Printf("%-20s only %d pairs; a gain needs at least %d\n", w, len(a), minPairs)
		}
		for _, m := range bench.EndToEnd {
			va, vb := values(a, m.Name), values(b, m.Name)
			v := judge(va, vb, m)
			if v.regression {
				code = 1
			}
			fmt.Printf("%-20s %-15s %26s %26s %+7.2f%% %3d/%-3d  %s\n", w, m.Name,
				summary(va), summary(vb), v.delta*100, v.wins, len(va), v.verdict)
		}
		fa, fb := failures(a), failures(b)
		if fb > fa {
			fmt.Printf("%-20s failed operations and checks rose from %d to %d\n", w, fa, fb)
			code = 1
		}
	}
	return code, nil
}

type verdict struct {
	delta      float64 // change median over base median, minus one
	wins       int
	verdict    string
	regression bool
}

// judge applies the paired-run rule to one (workload, metric).
func judge(a, b []float64, m benchMetric) verdict {
	lower := m.Better == "lower"
	q1a, meda, q3a := stat.Quartiles(a)
	_, medb, _ := stat.Quartiles(b)
	wins, _, n := stat.PairWins(a, b, lower)
	v := verdict{delta: medb/meda - 1, wins: wins}
	worse := v.delta // how much worse the change is, as a share of the base
	if !lower {
		worse = -worse
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (lower && y >= x) || (!lower && y <= x) {
				allBetter = false
			}
		}
	}
	spread := math.Max(stat.RelIQR(a), stat.RelIQR(b))
	switch {
	case n >= minPairs && float64(wins) >= gainShare*float64(n) && worse < 0 && math.Abs(medb-meda) > q3a-q1a:
		v.verdict = "gain"
	case spread > m.Bound && !allBetter:
		v.verdict = fmt.Sprintf("unresolved (spread %.1f%% > bound %.0f%%)", spread*100, m.Bound*100)
	case worse > m.Bound:
		v.regression = true
		v.verdict = fmt.Sprintf("regression (worse by more than the %.0f%% bound)", m.Bound*100)
	default:
		v.verdict = "no change"
	}
	return v
}

func summary(xs []float64) string {
	q1, med, q3 := stat.Quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}

func values(runs []run, name string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.metrics[name]
	}
	return out
}

func failures(runs []run) int {
	n := 0
	for _, r := range runs {
		n += r.failed
		if !r.correct {
			n++
		}
	}
	return n
}

// pairs matches the two sides' runs of one workload by seed, in seed
// order; a seed run several times pairs its runs in file order.
func pairs(base, change []run) (a, b []run) {
	bySeed := map[int64][]run{}
	for _, r := range change {
		bySeed[r.seed] = append(bySeed[r.seed], r)
	}
	for _, r := range base {
		if q := bySeed[r.seed]; len(q) > 0 {
			a, b = append(a, r), append(b, q[0])
			bySeed[r.seed] = q[1:]
		}
	}
	return a, b
}

func workloads(sets ...map[string][]run) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range sets {
		for w := range s {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	sort.Strings(out)
	return out
}

// hostKeys are the fingerprint fields that must agree for two sets to be
// comparable; the commit is expected to differ.
var hostKeys = []string{"cpu", "nproc", "gomaxprocs", "go"}

func warnFingerprints(sets ...map[string][]run) {
	hosts := map[string]string{}
	commits := map[string]bool{}
	for _, s := range sets {
		for _, runs := range s {
			for _, r := range runs {
				var parts []string
				for _, k := range hostKeys {
					parts = append(parts, k+"="+r.fingerprint[k])
				}
				hosts[strings.Join(parts, " ")] = r.file
				commits[r.fingerprint["commit"]] = true
			}
		}
	}
	if len(hosts) > 1 {
		fmt.Println("WARNING: the runs were measured on different hosts or builds:")
		for h, f := range hosts {
			fmt.Printf("  %s (e.g. %s)\n", h, f)
		}
	}
	var cs []string
	for c := range commits {
		cs = append(cs, c)
	}
	sort.Strings(cs)
	fmt.Println("commits:", strings.Join(cs, " "))
}

// loadRuns reads every untraced run record in dir, by workload, in file
// name order.
func loadRuns(dir string) (map[string][]run, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string][]run{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		r, traced, err := readRun(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !traced {
			out[r.workload] = append(out[r.workload], r)
		}
	}
	return out, nil
}

func readRun(path string) (r run, traced bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return r, false, err
	}
	r.file = path
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var head struct {
		Fingerprint map[string]string `json:"fingerprint"`
		Workload    string            `json:"workload"`
		Seed        int64             `json:"seed"`
		Trace       bool              `json:"trace"`
	}
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if bytes.HasPrefix(line, []byte(`{"fingerprint"`)) {
			if err := json.Unmarshal(line, &head); err != nil {
				return r, false, err
			}
		}
		last = append(last[:0], line...)
	}
	if err := sc.Err(); err != nil {
		return r, false, err
	}
	if head.Workload == "" {
		return r, false, fmt.Errorf("no fingerprint line")
	}
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return r, false, fmt.Errorf("last line: %w", err)
	}
	r.workload, r.seed, r.fingerprint = head.Workload, head.Seed, head.Fingerprint
	r.correct, r.failed = res.Correct, res.Failed
	r.metrics = map[string]float64{}
	for k, v := range res.Metrics {
		r.metrics[k] = v.Value
	}
	return r, head.Trace, nil
}
