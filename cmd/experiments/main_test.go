package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	got, err := selectExperiments(" FIG4,tableI ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].id != "tableI" || got[1].id != "fig4" {
		t.Errorf("selected %v, want [tableI fig4] in table order", got)
	}
	all, err := selectExperiments("all")
	if err != nil || len(all) != len(experiments) {
		t.Errorf("all selected %d (%v), want %d", len(all), err, len(experiments))
	}
	for _, run := range []string{"tableI,bogus", "", ","} {
		if _, err := selectExperiments(run); err == nil {
			t.Errorf("-run %q: no error", run)
		} else if !strings.Contains(err.Error(), strings.Join(ids(), ", ")) {
			t.Errorf("-run %q: error %q does not list the valid ids", run, err)
		}
	}
}

// TestUnknownRunIDExitsNonZero runs the command itself (this test binary
// re-entered as main) with an unknown id: it must fail, list the valid
// ids, and run nothing.
func TestUnknownRunIDExitsNonZero(t *testing.T) {
	if os.Getenv("EXPERIMENTS_RUN_MAIN") == "1" {
		os.Args = []string{"experiments", "-run", "tableI,bogus"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownRunIDExitsNonZero$")
	cmd.Env = append(os.Environ(), "EXPERIMENTS_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("unknown id: err = %v, want a non-zero exit; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), `"bogus"`) || !strings.Contains(string(out), "ablation") {
		t.Errorf("output does not name the unknown id and the valid ones:\n%s", out)
	}
	if strings.Contains(string(out), "completed in") {
		t.Errorf("an experiment ran despite the unknown id:\n%s", out)
	}
}
