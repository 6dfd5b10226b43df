package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"saco"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestMissingArgsExitsWithUsage(t *testing.T) {
	code, _, stderr := runCLI(t)
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, "-name and -out are required") || !strings.Contains(stderr, "-scale") {
		t.Fatalf("stderr %q lacks the usage message", stderr)
	}
}

func TestUnknownReplicaExitsOne(t *testing.T) {
	code, _, stderr := runCLI(t, "-name", "mnist", "-out", filepath.Join(t.TempDir(), "x.svm"))
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(stderr, `unknown replica "mnist"`) {
		t.Fatalf("stderr %q lacks the replica error", stderr)
	}
}

func TestUnknownFlagExitsNonZero(t *testing.T) {
	code, _, stderr := runCLI(t, "-not-a-flag")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, "not-a-flag") {
		t.Fatalf("stderr %q lacks the flag name", stderr)
	}
}

func TestHelpExitsZero(t *testing.T) {
	code, _, stderr := runCLI(t, "-h")
	if code != 0 {
		t.Fatalf("-h exit code %d, want 0", code)
	}
	if !strings.Contains(stderr, "-name") {
		t.Fatalf("-h did not print usage: %q", stderr)
	}
}

// TestGenerateSmoke writes a tiny replica and checks the summary line,
// that the file parses back as valid LIBSVM with the reported shape, and
// that generation is deterministic in the seed (golden behavior: same
// seed → byte-identical file, different seed → different bytes).
func TestGenerateSmoke(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "w1a.svm")
	code, stdout, stderr := runCLI(t, "-name", "w1a", "-scale", "0.05", "-out", out)
	if code != 0 {
		t.Fatalf("run failed (%d): %s", code, stderr)
	}
	if !strings.Contains(stdout, "wrote "+out+": 15 points, 123 features") {
		t.Fatalf("summary line %q lacks the shape report", stdout)
	}
	a, b, err := saco.LoadLIBSVM(out, 0)
	if err != nil {
		t.Fatalf("generated file does not parse: %v", err)
	}
	if a.M != 15 || len(b) != 15 {
		t.Fatalf("parsed %dx%d with %d labels", a.M, a.N, len(b))
	}
	for _, v := range b {
		if v != 1 && v != -1 {
			t.Fatalf("classification label %v", v)
		}
	}

	again := filepath.Join(dir, "again.svm")
	if code, _, stderr := runCLI(t, "-name", "w1a", "-scale", "0.05", "-out", again); code != 0 {
		t.Fatalf("second run failed: %s", stderr)
	}
	b1, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("same seed produced different files")
	}

	other := filepath.Join(dir, "seeded.svm")
	if code, _, stderr := runCLI(t, "-name", "w1a", "-scale", "0.05", "-seed", "7", "-out", other); code != 0 {
		t.Fatalf("seeded run failed: %s", stderr)
	}
	b3, err := os.ReadFile(other)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1, b3) {
		t.Fatal("different seeds produced identical files")
	}
}

// TestBadScaleExitsOne: a scale that is not a finite positive number
// is refused with exit 1 and no file written — +Inf would otherwise
// clamp every dimension to its floor and NaN would pass as a scale.
func TestBadScaleExitsOne(t *testing.T) {
	for _, scale := range []string{"0", "-1", "nan", "inf", "-inf"} {
		out := filepath.Join(t.TempDir(), "x.svm")
		code, _, stderr := runCLI(t, "-name", "w1a", "-scale", scale, "-out", out)
		if code != 1 || !strings.Contains(stderr, "scale must be finite and positive") {
			t.Errorf("-scale %s: exit %d, stderr %q; want 1 with the bad-scale error", scale, code, stderr)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("-scale %s: output file exists (stat error %v)", scale, err)
		}
	}
}

// TestUnwritableOutputExitsOne: write failures surface as exit 1, not a
// truncated file reported as success.
func TestUnwritableOutputExitsOne(t *testing.T) {
	code, _, stderr := runCLI(t, "-name", "w1a", "-scale", "0.05",
		"-out", filepath.Join(t.TempDir(), "missing-dir", "x.svm"))
	if code != 1 {
		t.Fatalf("exit code %d, want 1 (stderr %q)", code, stderr)
	}
}
