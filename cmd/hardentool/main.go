// Command hardentool runs the selective-hardening optimizer offline:
// solve a design once, evaluate it under one or more workload pAVF
// tables, and sweep a list of protection budgets into ranked protection
// plans — which sequential nodes to harden (ECC, DICE, duplication)
// for the largest chip-AVF reduction per protected bit.
//
// With several workloads the optimizer targets the mean AVF across
// them: node gains are linear in per-bit AVF, so the mean-AVF plan
// minimizes the mean residual chip AVF over the workload set. The
// -top-terms report ranks pAVF source terms by the analytical
// derivative ∂chipAVF/∂term — which measured inputs the chip's
// vulnerability actually rides on.
//
// Usage:
//
//	hardentool -netlist design.nl -pavf run.pavf -budgets 64,128,256
//	hardentool -netlist design.nl -pavfdir runs/ -budgets 1024 -solver greedy -top-terms 20
//	hardentool -netlist design.nl -pavf run.pavf -budgets 32,64 -costs costs.json -csv curve.csv
//
// -costs points at a JSON object mapping "FUB/node" keys to positive
// protection costs; unlisted nodes default to their bit width. With
// -artifacts DIR the solve warm-starts from the content-addressed store
// and the term-sensitivity vector is cached as a .sens artifact. The
// report is a harden.Response: the planning itself is harden.Run, the
// pipeline POST /v1/harden runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"seqavf/cmd/internal/cliutil"
	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/harden"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/pavfio"
	"seqavf/internal/sweep"
)

func main() {
	nl := flag.String("netlist", "", "netlist file (required)")
	pavfFile := flag.String("pavf", "", "single workload pAVF table")
	dir := flag.String("pavfdir", "", "directory of per-workload pAVF tables (alternative to -pavf)")
	glob := flag.String("glob", "*.pavf", "file pattern selecting workload tables in -pavfdir")
	budgetsFlag := flag.String("budgets", "", "comma-separated protection budgets to sweep (required)")
	costsFile := flag.String("costs", "", "JSON file mapping FUB/node keys to protection costs (default: bit width)")
	solver := flag.String("solver", "", "protection solver: auto (default), greedy, dp, exhaustive")
	topTerms := flag.Int("top-terms", 0, "report the N most sensitive pAVF source terms")
	workers := flag.Int("workers", 0, "evaluation workers (0 = all cores)")
	loop := flag.Float64("loop", 0.3, "loop-boundary pAVF")
	pseudo := flag.Float64("pseudo", 0.2, "boundary pseudo-structure pAVF")
	out := flag.String("out", "", "write the JSON report here instead of stdout")
	csvOut := flag.String("csv", "", "also write the budget/residual curve as CSV here")
	arts := cliutil.ArtifactFlags()
	ob := cliutil.ObsFlags()
	flag.Parse()

	if *nl == "" || *budgetsFlag == "" || (*pavfFile == "" && *dir == "") {
		flag.Usage()
		os.Exit(2)
	}
	reg := ob.Start("hardentool")
	err := run(reg, arts, *nl, *pavfFile, *dir, *glob, *budgetsFlag, *costsFile,
		*solver, *topTerms, *workers, *loop, *pseudo, *out, *csvOut)
	if ob.Trace {
		reg.WritePhaseSummary(os.Stderr)
	}
	if err == nil {
		err = ob.Finish()
	}
	cliutil.Exit("hardentool", err)
}

func parseBudgets(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	budgets := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		b, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("budget %q: %v", p, err)
		}
		if !(b > 0) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("budget %q must be a positive finite number", p)
		}
		budgets = append(budgets, b)
	}
	if len(budgets) == 0 {
		return nil, fmt.Errorf("-budgets %q names no budgets", s)
	}
	return budgets, nil
}

func readCosts(path string) (map[string]float64, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var costs map[string]float64
	if err := json.Unmarshal(data, &costs); err != nil {
		return nil, fmt.Errorf("costs file %s: %v", path, err)
	}
	return costs, nil
}

func run(reg *obs.Registry, arts *cliutil.Artifacts, nlPath, pavfFile, dir, glob, budgetsFlag, costsFile, solver string,
	topTerms, workers int, loop, pseudo float64, out, csvOut string) error {
	start := time.Now()
	budgets, err := parseBudgets(budgetsFlag)
	if err != nil {
		return err
	}
	if !harden.ValidSolver(solver) {
		return fmt.Errorf("unknown solver %q (want auto, greedy, dp, or exhaustive)", solver)
	}
	costs, err := readCosts(costsFile)
	if err != nil {
		return err
	}
	reg.SetManifest("netlist", nlPath)
	reg.SetManifest("budgets", budgetsFlag)
	reg.SetManifest("solver", string(solver))

	root := reg.StartSpan("hardentool")
	defer root.End()
	ctx := obs.ContextWithSpan(context.Background(), root)

	lsp := root.Child("load")
	f, err := os.Open(nlPath)
	if err != nil {
		return err
	}
	d, err := netlist.Parse(f)
	f.Close()
	if err != nil {
		return err
	}
	if err := d.Validate(); err != nil {
		return err
	}
	fd, err := netlist.Flatten(d)
	if err != nil {
		return err
	}
	g, err := graph.Build(fd)
	if err != nil {
		return err
	}
	opts := core.DefaultOptions()
	opts.LoopPAVF = loop
	opts.PseudoPAVF = pseudo
	opts.Obs = reg
	a, err := core.NewAnalyzer(g, opts)
	if err != nil {
		return err
	}
	var named []pavfio.NamedInputs
	if pavfFile != "" {
		in, err := pavfio.ReadFile(pavfFile)
		if err != nil {
			return err
		}
		named = append(named, pavfio.NamedInputs{Name: pavfFile, Inputs: in})
	}
	if dir != "" {
		more, err := pavfio.ReadDir(dir, glob)
		if err != nil {
			return err
		}
		named = append(named, more...)
	}
	lsp.SetAttr("workloads", len(named))
	lsp.End()

	st, err := arts.Open(reg)
	if err != nil {
		return err
	}
	res, disp, err := cliutil.SolveWithStore(ctx, "hardentool", st, a, named[0].Inputs, reg)
	if err != nil {
		return err
	}
	if disp.Warm() {
		fmt.Fprintf(os.Stderr, "hardentool: warm start from artifact store (fingerprint %016x)\n", a.Fingerprint())
	}

	engOpts := sweep.Options{Workers: workers, Obs: reg}
	var sens harden.SensStore
	if st != nil {
		engOpts.Store = st
		sens = st
	}
	eng := sweep.New(engOpts)

	names := make([]string, len(named))
	ws := make([]sweep.Workload, len(named))
	for i, ni := range named {
		names[i] = ni.Name
		ws[i] = sweep.Workload{Name: ni.Name, Inputs: ni.Inputs}
	}
	if len(ws) == 1 {
		// The solve already ran under the one table: plan on it as is.
		ws = nil
	}
	req := &harden.Request{Design: d.Name, Budgets: budgets, Solver: solver, Costs: costs, TopTerms: topTerms}
	rep, err := harden.Run(ctx, eng, res, ws, req, sens, reg)
	if err != nil {
		return err
	}
	rep.Workloads = names
	rep.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3

	if err := cliutil.WriteOutput(out, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}); err != nil {
		return err
	}
	if csvOut != "" {
		if err := writeCSV(csvOut, rep.Plans); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "hardentool: %d candidates over %d seq bits, %d budgets, base chip AVF %.6f\n",
		rep.Candidates, rep.SeqBits, len(rep.Plans), rep.BaseChipAVF)
	return nil
}

// writeCSV emits the budget/residual curve: one row per plan, ready for
// plotting AVF-vs-budget trade-off frontiers.
func writeCSV(path string, plans []*harden.Protection) error {
	return cliutil.WriteOutput(path, func(w io.Writer) error {
		fmt.Fprintln(w, "budget,solver,chosen,total_cost,base_chip_avf,residual_chip_avf,reduction_frac")
		for _, p := range plans {
			fmt.Fprintf(w, "%g,%s,%d,%g,%.9g,%.9g,%.9g\n",
				p.Budget, p.Solver, len(p.Chosen), p.TotalCost,
				p.BaseChipAVF, p.ResidualChipAVF, p.ReductionFrac)
		}
		return nil
	})
}
