// Command sartool runs the Sequential AVF Resolution Tool on a textual
// netlist plus a pAVF table, printing per-node AVFs, per-FUB summaries,
// or closed-form equations.
//
// The pAVF table is line oriented:
//
//	R <Struct>.<port> <pAVF_R>
//	W <Struct>.<port> <pAVF_W>
//	S <Struct> <structure AVF>
//
// Observability: -metrics FILE writes a JSON snapshot with solver
// counters, phase timings (graph/env/fwd/bwd, per-iteration relaxation
// spans under -partitioned), and a self-describing run manifest; -trace
// prints phase spans live and a phase-timing summary at exit; -pprof ADDR
// serves net/http/pprof.
//
// Usage:
//
//	sartool -netlist design.nl -pavf pavf.txt -summary
//	sartool -netlist design.nl -pavf pavf.txt -nodes -equations
//	sartool -netlist design.nl -pavf pavf.txt -partitioned -loop 0.3
//	sartool -netlist design.nl -pavf pavf.txt -metrics out.json -trace
//	sartool -netlist design.nl -pavf pavf.txt -artifacts ~/.cache/seqavf
//
// With -artifacts DIR, the solved closed forms are persisted to a
// content-addressed store keyed by the design fingerprint: a rerun on
// the same design (same graph and role-affecting options) skips the
// solve entirely and re-evaluates the stored equations against the new
// pAVF table, bit-identically to a fresh solve.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"seqavf/cmd/internal/cliutil"
	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/pavfio"
)

func main() {
	nl := flag.String("netlist", "", "netlist file (required)")
	pavfPath := flag.String("pavf", "", "pAVF table file (required)")
	loop := flag.Float64("loop", 0.3, "loop-boundary pAVF")
	pseudo := flag.Float64("pseudo", 0.2, "boundary pseudo-structure pAVF")
	partitioned := flag.Bool("partitioned", false, "use the FUB-partitioned relaxation")
	iterations := flag.Int("iterations", 20, "relaxation iteration bound")
	summary := flag.Bool("summary", true, "print the design summary")
	nodes := flag.Bool("nodes", false, "print per-sequential-node AVFs")
	equations := flag.Bool("equations", false, "print closed-form equations with -nodes")
	jsonOut := flag.Bool("json", false, "emit the full result as JSON instead of text")
	top := flag.Int("top", 0, "print the N most vulnerable sequential nodes with their pAVF contributors")
	arts := cliutil.ArtifactFlags()
	ob := cliutil.ObsFlags()
	flag.Parse()

	if *nl == "" || *pavfPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	reg := ob.Start("sartool")
	err := run(reg, arts, *nl, *pavfPath, *loop, *pseudo, *partitioned, *iterations, *summary, *nodes, *equations, *jsonOut, *top)
	if ob.Trace {
		reg.WritePhaseSummary(os.Stderr)
	}
	if err == nil {
		err = ob.Finish()
	}
	cliutil.Exit("sartool", err)
}

func run(reg *obs.Registry, arts *cliutil.Artifacts, nlPath, pavfPath string, loop, pseudo float64, partitioned bool, iterations int, summary, nodes, equations, jsonOut bool, top int) error {
	reg.SetManifest("netlist", nlPath)
	reg.SetManifest("pavf", pavfPath)
	reg.SetManifest("loop_pavf", loop)
	reg.SetManifest("pseudo_pavf", pseudo)
	reg.SetManifest("partitioned", partitioned)
	reg.SetManifest("iteration_bound", iterations)

	lsp := reg.StartSpan("load")
	psp := lsp.Child("parse")
	f, err := os.Open(nlPath)
	if err != nil {
		return err
	}
	defer f.Close()
	d, err := netlist.Parse(f)
	if err != nil {
		return err
	}
	if err := d.Validate(); err != nil {
		return err
	}
	psp.End()
	fsp := lsp.Child("flatten")
	fd, err := netlist.Flatten(d)
	if err != nil {
		return err
	}
	fsp.End()
	gsp := lsp.Child("graph")
	g, err := graph.Build(fd)
	if err != nil {
		return err
	}
	gsp.SetAttr("vertices", g.NumVerts())
	gsp.End()
	asp := lsp.Child("analyzer")
	opts := core.DefaultOptions()
	opts.LoopPAVF = loop
	opts.PseudoPAVF = pseudo
	opts.Iterations = iterations
	opts.Obs = reg
	a, err := core.NewAnalyzer(g, opts)
	if err != nil {
		return err
	}
	asp.End()
	in, err := pavfio.ReadFile(pavfPath)
	if err != nil {
		return err
	}
	lsp.End()
	var res *core.Result
	if partitioned {
		// -partitioned exists to run the §5.2 relaxation and report its
		// convergence trace. A warm hit in the store would decode stored
		// closed forms and skip the relaxation, trace and all, so the
		// store is bypassed here.
		if arts.Dir != "" {
			fmt.Fprintln(os.Stderr, "sartool: -artifacts is ignored with -partitioned (a warm start would skip the relaxation and its convergence trace)")
		}
		res, err = a.SolvePartitioned(in)
	} else {
		st, serr := arts.Open(reg)
		if serr != nil {
			return serr
		}
		var disp cliutil.Disposition
		res, disp, err = cliutil.SolveWithStore(context.Background(), "sartool", st, a, in, reg)
		switch {
		case disp.Warm():
			fmt.Fprintf(os.Stderr, "sartool: warm start from artifact store (fingerprint %016x)\n", a.Fingerprint())
		case disp.Kind == "incremental":
			fmt.Fprintf(os.Stderr, "sartool: incremental re-solve from prior artifact (%d of %d FUBs reused, %d dirty)\n",
				disp.Incremental.FubsReused, disp.Incremental.FubsTotal, disp.Incremental.FubsDirty)
		}
	}
	if err != nil {
		return err
	}
	reg.SetManifest("iterations", res.Iterations)
	reg.SetManifest("converged", res.Converged)

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	if jsonOut {
		return res.WriteJSON(w, equations)
	}
	if summary {
		s := res.Summarize()
		fmt.Fprintf(w, "design %s: %d FUBs, %d graph bits\n", d.Name, len(fd.Fubs), g.NumVerts())
		fmt.Fprintf(w, "sequential bits        : %d (loops %d, control regs %d)\n", s.SeqBits, s.LoopSeqBits, s.CtrlBits)
		fmt.Fprintf(w, "weighted avg seq AVF   : %.4f\n", s.WeightedSeqAVF)
		fmt.Fprintf(w, "weighted avg node AVF  : %.4f\n", s.WeightedNodeAVF)
		fmt.Fprintf(w, "visited by walks       : %.2f%%\n", 100*s.VisitedFraction)
		fmt.Fprintf(w, "iterations             : %d (converged=%v)\n", s.Iterations, s.Converged)
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-10s %-10s %-12s %-12s\n", "FUB", "seq bits", "avg seqAVF", "avg nodeAVF")
		for _, fs := range res.FubStats() {
			fmt.Fprintf(w, "%-10s %-10d %-12.4f %-12.4f\n", fs.Fub, fs.SeqBits, fs.AvgSeqAVF, fs.AvgNodeAVF)
		}
	}
	if top > 0 {
		writeTop(w, g, res, top)
	}
	if nodes {
		byNode := res.SeqAVFByNode()
		keys := make([]string, 0, len(byNode))
		for k := range byNode {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintln(w)
		for _, k := range keys {
			fmt.Fprintf(w, "%-40s %.4f", k, byNode[k])
			if equations {
				fub, node, _ := strings.Cut(k, "/")
				if v, _, ok := g.VertexBase(fub, node); ok {
					fmt.Fprintf(w, "  %s", res.Equation(v))
				}
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// writeTop prints the most vulnerable sequential nodes with their
// SDC/DUE/DCE decomposition and the measured ports driving them — the
// mitigation-planning view of §1.
func writeTop(w io.Writer, g *graph.Graph, res *core.Result, top int) {
	type entry struct {
		name string
		base graph.VertexID
		avf  float64
	}
	byNode := res.SeqAVFByNode()
	entries := make([]entry, 0, len(byNode))
	for name, avf := range byNode {
		fub, node, _ := strings.Cut(name, "/")
		v, _, ok := g.VertexBase(fub, node)
		if !ok {
			continue
		}
		entries = append(entries, entry{name: name, base: v, avf: avf})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].avf != entries[j].avf {
			return entries[i].avf > entries[j].avf
		}
		return entries[i].name < entries[j].name
	})
	if len(entries) > top {
		entries = entries[:top]
	}
	fmt.Fprintf(w, "\ntop %d vulnerable sequential nodes:\n", len(entries))
	for _, e := range entries {
		d := res.Decompose(e.base)
		fmt.Fprintf(w, "%-36s AVF %.4f (SDC %.4f, DUE %.4f, DCE %.4f)\n",
			e.name, e.avf, d.SDC, d.DUE, d.DCE)
		fwd, bwd := res.Contributors(e.base)
		if len(fwd) > 0 {
			fmt.Fprintf(w, "    sources:")
			for i, c := range fwd {
				if i == 3 {
					fmt.Fprintf(w, " ...")
					break
				}
				fmt.Fprintf(w, " %s=%.3f", c.Term, c.Value)
			}
			fmt.Fprintln(w)
		}
		if len(bwd) > 0 {
			fmt.Fprintf(w, "    sinks:  ")
			for i, c := range bwd {
				if i == 3 {
					fmt.Fprintf(w, " ...")
					break
				}
				fmt.Fprintf(w, " %s=%.3f", c.Term, c.Value)
			}
			fmt.Fprintln(w)
		}
	}
}
