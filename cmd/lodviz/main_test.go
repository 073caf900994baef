package main_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles the command into a temporary directory.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lodviz")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building lodviz: %v\n%s", err, out)
	}
	return bin
}

// TestCommands builds the CLI and runs each command on the embedded MiniLOD
// dataset as a child process: every one must exit 0 and print what it was
// asked for, and a missing or unknown command prints the usage text and
// exits 2.
func TestCommands(t *testing.T) {
	bin := buildCLI(t)
	const cities = `SELECT ?c WHERE { ?c a <http://lodviz.example.org/mini/City> }`
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-demo", "overview"}, 0, "triples: "},
		{[]string{"-demo", "query", cities}, 0, "<http://lodviz.example.org/mini/athens>"},
		{[]string{"-demo", "-stream", "query", cities + " LIMIT 2"}, 0, "c\n"},
		{[]string{"-demo", "search", "Athens"}, 0, "<http://lodviz.example.org/mini/athens>"},
		{[]string{"-demo", "facets"}, 0, "entity set: "},
		{nil, 2, "usage: lodviz"},
		{[]string{"-demo", "visualize"}, 2, "usage: lodviz"},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("lodviz %s: %v", strings.Join(tc.args, " "), err)
		}
		if code != tc.code || !strings.Contains(string(out), tc.want) {
			t.Errorf("lodviz %s: exit %d, output %q; want exit %d and output containing %q",
				strings.Join(tc.args, " "), code, out, tc.code, tc.want)
		}
	}
}
