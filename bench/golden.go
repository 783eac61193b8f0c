package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"xlp/internal/bddprop"
	"xlp/internal/corpus"
	"xlp/internal/depthk"
	"xlp/internal/engine"
	"xlp/internal/gaia"
	"xlp/internal/prop"
	"xlp/internal/service"
	"xlp/internal/strict"
)

// goldenJSON maps "<analysis>/<program>" to the canonical hash of the
// program's result. Regenerate it with -write-golden.
//
//go:embed testdata/golden.json
var goldenJSON []byte

func loadGolden() (map[string]string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	return g, nil
}

// canonicalHash is the SHA-256 of a response's result fields: the kind,
// the depth bound and the per-predicate and per-function results. Cache
// flags, timings and engine counters are left out, so a response hashes
// the same whether it came over HTTP or in process, from the cache or
// from a fresh run, and whichever clause backend computed it.
func canonicalHash(r *service.Response) string {
	b, err := json.Marshal(struct {
		Kind       service.Kind
		K          int
		Predicates []service.PredReport
		Functions  []service.FuncReport
	}{r.Kind, r.K, r.Predicates, r.Functions})
	if err != nil {
		// Plain structs of strings, ints and bools always marshal.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// depthkOptions is the depth-k configuration the depthk workload and its
// golden entries use: Table 4's k=1, plain tabling.
func depthkOptions(mode engine.LoadMode) depthk.Options {
	return depthk.Options{K: 1, NoSupplementary: true, Mode: mode}
}

// writeGolden recomputes every golden entry and writes the file. Before
// an entry is written it must hold up against independent computations:
// groundness against the GAIA-style interpreter and the BDD analyzer,
// strictness against a run without supplementary tabling, and every
// analysis under the closure backend against the interpreter.
func writeGolden(path string) error {
	out := map[string]string{}
	for _, p := range corpus.LogicPrograms() {
		h, err := goldenGroundness(p.Source)
		if err != nil {
			return fmt.Errorf("prop/%s: %w", p.Name, err)
		}
		out["prop/"+p.Name] = h
	}
	for _, p := range corpus.FuncPrograms() {
		h, err := goldenStrictness(p.Source)
		if err != nil {
			return fmt.Errorf("strict/%s: %w", p.Name, err)
		}
		out["strict/"+p.Name] = h
	}
	for _, p := range depthkPrograms() {
		h, err := goldenDepthK(p.Source)
		if err != nil {
			return fmt.Errorf("depthk/%s: %w", p.Name, err)
		}
		out["depthk/"+p.Name] = h
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func goldenGroundness(src string) (string, error) {
	dyn, err := prop.Analyze(src, prop.Options{})
	if err != nil {
		return "", err
	}
	clo, err := prop.Analyze(src, prop.Options{Mode: engine.ModeClosure})
	if err != nil {
		return "", err
	}
	h := canonicalHash(service.FromGroundness(dyn))
	if hc := canonicalHash(service.FromGroundness(clo)); hc != h {
		return "", fmt.Errorf("closure result differs from the interpreter's")
	}
	ga, err := gaia.Analyze(src)
	if err != nil {
		return "", fmt.Errorf("gaia: %w", err)
	}
	bd, err := bddprop.Analyze(src)
	if err != nil {
		return "", fmt.Errorf("bddprop: %w", err)
	}
	for ind, r := range dyn.Results {
		if g, ok := ga.Results[ind]; ok && !g.Success.Equal(r.Success) {
			return "", fmt.Errorf("%s: success %s, gaia says %s",
				ind, r.FormatSuccess(), g.Success.Format(argNames(r.Arity)))
		}
		b, ok := bd.Results[ind]
		if !ok {
			continue
		}
		for row := uint(0); row < 1<<uint(r.Arity); row++ {
			if bd.Manager.Eval(b.Success, row) != r.Success.Row(row) {
				return "", fmt.Errorf("%s: success %s disagrees with bddprop on row %d",
					ind, r.FormatSuccess(), row)
			}
		}
	}
	return h, nil
}

func goldenStrictness(src string) (string, error) {
	var h string
	for i, opts := range []strict.Options{{}, {Mode: engine.ModeClosure}, {NoSupplementary: true}} {
		a, err := strict.Analyze(src, opts)
		if err != nil {
			return "", err
		}
		hi := canonicalHash(service.FromStrictness(a))
		if i == 0 {
			h = hi
		} else if hi != h {
			return "", fmt.Errorf("run %d (%+v) differs from the default run", i, opts)
		}
	}
	return h, nil
}

func goldenDepthK(src string) (string, error) {
	var h string
	for i, mode := range []engine.LoadMode{engine.LoadDynamic, engine.ModeClosure} {
		a, err := depthk.Analyze(src, depthkOptions(mode))
		if err != nil {
			return "", err
		}
		hi := canonicalHash(service.FromDepthK(a))
		if i == 0 {
			h = hi
		} else if hi != h {
			return "", fmt.Errorf("closure result differs from the interpreter's")
		}
	}
	return h, nil
}

func argNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("A%d", i+1)
	}
	return names
}
