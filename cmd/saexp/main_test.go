package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestNoExperimentsExitsWithUsage(t *testing.T) {
	code, _, stderr := runCLI(t)
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, "usage: saexp") || !strings.Contains(stderr, "-machine") {
		t.Fatalf("stderr %q lacks the usage", stderr)
	}
	// The usage line is printed from the experiment table, so it names
	// everything the lookup accepts.
	for _, e := range experiments {
		if !strings.Contains(stderr, e.name+"|") {
			t.Fatalf("usage line omits %q: %q", e.name, stderr)
		}
	}
	if !strings.Contains(stderr, "|all}") {
		t.Fatalf("usage line omits all: %q", stderr)
	}
}

func TestUnknownExperimentExitsWithUsage(t *testing.T) {
	code, _, stderr := runCLI(t, "table99")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown experiment "table99"`) || !strings.Contains(stderr, "table4, ") {
		t.Fatalf("stderr %q lacks the experiment error with the accepted names", stderr)
	}
}

// TestAllExpandsWhereverItAppears: "all" is a name like any other, not
// only a lone argument — `saexp table1 all` runs table1, then every
// distinct experiment (table1 again, but neither table4 nor table3,
// which print what table2 and fig2 print).
func TestAllExpandsWhereverItAppears(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-scale", "0.02", "-iters", "0.02", "table1", "all")
	if code != 0 {
		t.Fatalf("run failed (%d): %s", code, stderr)
	}
	for _, e := range experiments {
		want := 0
		if e.inAll {
			want = 1
		}
		if e.name == "table1" {
			want = 2
		}
		if got := strings.Count(stdout, "["+e.name+" completed in"); got != want {
			t.Fatalf("%s ran %d times, want %d", e.name, got, want)
		}
	}
}

func TestUnknownMachineExitsWithUsage(t *testing.T) {
	code, _, stderr := runCLI(t, "-machine", "abacus", "table1")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown machine "abacus"`) {
		t.Fatalf("stderr %q lacks the machine error", stderr)
	}
}

func TestHelpExitsZero(t *testing.T) {
	code, _, stderr := runCLI(t, "-h")
	if code != 0 {
		t.Fatalf("-h exit code %d, want 0", code)
	}
	if !strings.Contains(stderr, "-scale") {
		t.Fatalf("-h did not print usage: %q", stderr)
	}
}

// TestTable1Smoke runs the cheapest experiment (the analytic Table I
// cost model — no solves) end to end and pins the golden structure of
// its output: the header, every s row of the sweep, and the completion
// stamp. The cost model is deterministic, so the row set is stable.
func TestTable1Smoke(t *testing.T) {
	code, stdout, stderr := runCLI(t, "table1")
	if code != 0 {
		t.Fatalf("run failed (%d): %s", code, stderr)
	}
	for _, want := range []string{
		"Table I",
		"s", "F (flops)", "M (words)", "L (msgs)", "W (words)",
		"[table1 completed in",
	} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("output lacks %q:\n%s", want, stdout)
		}
	}
	for _, s := range []string{"1", "2", "512"} {
		if !strings.Contains(stdout, "\n"+s+" ") && !strings.Contains(stdout, "\n "+s+" ") && !strings.Contains(stdout, s) {
			t.Fatalf("output lacks the s=%s row:\n%s", s, stdout)
		}
	}
	// Determinism: the analytic table is byte-identical across runs
	// apart from the wall-clock completion stamp.
	_, again, _ := runCLI(t, "table1")
	if tableBody(stdout) != tableBody(again) {
		t.Fatal("table1 output is not deterministic")
	}
}

// TestMachineFlagChangesModel: the modeled platform must actually reach
// the cost model (ethernet and cray produce different modeled times).
func TestMachineFlagChangesModel(t *testing.T) {
	_, cray, _ := runCLI(t, "table1")
	code, eth, stderr := runCLI(t, "-machine", "ethernet", "table1")
	if code != 0 {
		t.Fatalf("ethernet run failed: %s", stderr)
	}
	if tableBody(cray) == tableBody(eth) {
		t.Fatal("machine flag did not change the modeled costs")
	}
}

// tableBody strips the timing stamp, which legitimately varies.
func tableBody(out string) string {
	if i := strings.Index(out, "completed in"); i >= 0 {
		return out[:i]
	}
	return out
}
