package analysis_test

// Integration coverage for lodvizvet's one entry point, the `go vet
// -vettool` protocol, run as a real child process over the fixture module
// in testdata/fixture.

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildLodvizvet compiles the multichecker once per test binary.
func buildLodvizvet(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "lodvizvet")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lodvizvet")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building lodvizvet: %v\n%s", err, out)
	}
	return bin
}

func fixtureDir(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestVettoolProtocolOnFixtureModule(t *testing.T) {
	bin := buildLodvizvet(t)
	fixture := fixtureDir(t)

	// Run bare, the tool prints its usage and the analyzers.
	out, err := exec.Command(bin).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "go vet -vettool=") || !strings.Contains(string(out), "pagelock") {
		t.Errorf("bare lodvizvet: want exit 2 with usage and analyzers, got %v\n%s", err, out)
	}

	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = fixture
	out, err = vet.CombinedOutput()
	if err == nil {
		t.Fatalf("want go vet to fail on the violating fixture\n%s", out)
	}
	for _, frag := range []string{
		"store.ID converted to int",
		"arithmetic (+) on store.ID",
		"Drive drives a paged store scan (ScanIDs)",
		"[idspace:",
		"[ctxflow:",
	} {
		if !strings.Contains(string(out), frag) {
			t.Errorf("vet output missing %q:\n%s", frag, out)
		}
	}

	clean := exec.Command("go", "vet", "-vettool="+bin, "./clean")
	clean.Dir = fixture
	if out, err := clean.CombinedOutput(); err != nil {
		t.Fatalf("want go vet to pass on the clean fixture package, got %v\n%s", err, out)
	}
}
