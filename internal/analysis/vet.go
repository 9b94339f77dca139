package analysis

import (
	"encoding/json"
	"fmt"
	"go/token"
	"go/types"
	"os"
)

// vetConfig is the JSON configuration cmd/go writes for each vet unit
// (one package or test variant). The field set mirrors the contract
// x/tools' unitchecker documents; unused fields are accepted and
// ignored by virtue of JSON decoding.
type vetConfig struct {
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

// runVetUnit executes the analyzers over one vet unit described by a
// .cfg file, per the `go vet -vettool` protocol: diagnostics go to
// stderr, the (empty — this suite exchanges no facts) .vetx output is
// written so cmd/go can cache the unit, and the exit status reports
// findings.
func runVetUnit(cfgFile string, analyzers []*Analyzer) ([]Diagnostic, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", cfgFile, err)
	}
	if cfg.ImportPath == "" {
		return nil, fmt.Errorf("%s: no ImportPath", cfgFile)
	}
	if cfg.Compiler != "" && cfg.Compiler != "gc" {
		return nil, fmt.Errorf("%s: unsupported compiler %q", cfgFile, cfg.Compiler)
	}

	var diags []Diagnostic
	if !cfg.VetxOnly {
		diags, err = checkVetUnit(&cfg, analyzers)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil
			}
			return nil, err
		}
	}

	// The suite defines no cross-package facts, but cmd/go still treats
	// the .vetx file as the unit's cacheable output.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return nil, err
		}
	}
	return diags, nil
}

func checkVetUnit(cfg *vetConfig, analyzers []*Analyzer) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	exportFor := exportImporter(fset, cfg.PackageFile)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return exportFor.Import(path)
	})
	pkg, err := checkPackage(fset, imp, cfg.ImportPath, cfg.Dir, cfg.GoFiles)
	if err != nil {
		return nil, err
	}
	return Check(pkg, analyzers...)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
