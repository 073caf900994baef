// Package unitchecker implements lodvizvet's one entry point, the `go vet -vettool`
// protocol: the cmd/vet driver protocol, reimplemented on the standard library.
//
// go vet probes the tool twice (`-V=full` for a cache-keying version
// string, `-flags` for the supported flag set) and then invokes it once
// per package with the path to a JSON config file naming the package's
// sources, its import map, and the export-data file of every dependency.
// Dependency-only invocations arrive with VetxOnly=true and expect only
// the facts file to be written; lodvizvet keeps no cross-package facts,
// so its facts files are empty placeholders.
package unitchecker

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"strings"

	"github.com/lodviz/lodviz/internal/analysis"
)

// Config mirrors the JSON emitted by cmd/go for each vetted package.
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main handles one vettool invocation and returns the process exit code:
// 0 clean, 1 on operational errors, 2 when findings were reported (the
// exit contract cmd/go expects from a vet tool).
func Main(progname string, args []string, analyzers []*analysis.Analyzer, stdout, stderr io.Writer) int {
	for _, a := range args {
		switch a {
		case "-V=full":
			fmt.Fprintf(stdout, "%s version devel buildID=%s\n", progname, selfID())
			return 0
		case "-flags":
			fmt.Fprintln(stdout, "[]")
			return 0
		}
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintf(stderr, "%s: expected a single vet config file argument (invoke via go vet -vettool=%s, or pass package patterns to the standalone mode)\n", progname, progname)
		return 1
	}
	n, err := runConfig(args[0], analyzers, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", progname, err)
		return 1
	}
	if n > 0 {
		return 2
	}
	return 0
}

func runConfig(path string, analyzers []*analysis.Analyzer, stderr io.Writer) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 0, fmt.Errorf("parsing vet config %s: %w", path, err)
	}
	// The facts file must exist for cmd/go to cache the result, even for
	// packages we have nothing to say about.
	writeVetx := func() error {
		if cfg.VetxOutput == "" {
			return nil
		}
		return os.WriteFile(cfg.VetxOutput, nil, 0o666)
	}
	if cfg.VetxOnly {
		return 0, writeVetx()
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0, writeVetx()
			}
			return 0, err
		}
		files = append(files, f)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(importPath string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			importPath = mapped
		}
		file, ok := cfg.PackageFile[importPath]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", importPath)
		}
		return os.Open(file)
	})
	info := analysis.NewInfo()
	conf := types.Config{
		Importer: unsafeAware{imp},
		Sizes:    types.SizesFor(compiler, runtime.GOARCH),
	}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, writeVetx()
		}
		return 0, fmt.Errorf("typecheck %s: %w", cfg.ImportPath, err)
	}
	findings, err := analysis.Run(analyzers, fset, files, tpkg, info)
	if err != nil {
		return 0, err
	}
	for _, f := range findings {
		fmt.Fprintln(stderr, f)
	}
	if err := writeVetx(); err != nil {
		return len(findings), err
	}
	return len(findings), nil
}

type unsafeAware struct{ imp types.Importer }

func (u unsafeAware) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return u.imp.Import(path)
}

// selfID hashes the running binary so cmd/go's vet result cache turns
// over whenever the tool is rebuilt with different analyzer logic.
func selfID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}
