// Command sfirun runs a statistical fault injection campaign against the
// tinycore netlist CPU executing a named workload — the brute-force
// baseline of §3.1.
//
// Observability: -metrics FILE writes a JSON snapshot (injections run,
// error/unknown/masked tallies, simulated cycles, node evaluations,
// campaign phase spans, run manifest); -trace prints phase
// spans to stderr; -pprof ADDR serves net/http/pprof.
//
// Usage:
//
//	sfirun -workload md5 -inject 6 -window 2000
//	sfirun -workload lattice -inject 2
//	sfirun -workload md5 -metrics sfi.json -pprof localhost:6060
package main

import (
	"flag"
	"fmt"
	"time"

	"seqavf/cmd/internal/cliutil"
	"seqavf/internal/obs"
	"seqavf/internal/sfi"
	"seqavf/internal/tinycore"
)

func main() {
	wl := flag.String("workload", "md5", cliutil.WorkloadNames)
	file := flag.String("file", "", "assemble and run a program file instead of a named workload")
	inject := flag.Int("inject", 4, "injections per sequential bit")
	window := flag.Int("window", 2000, "propagation window (cycles)")
	seed := flag.Uint64("seed", 1, "campaign seed")
	workers := flag.Int("workers", 1, "parallel workers")
	ob := cliutil.ObsFlags()
	flag.Parse()

	reg := ob.Start("sfirun")
	err := run(reg, *wl, *file, *inject, *window, *seed, *workers)
	if err == nil {
		err = ob.Finish()
	}
	cliutil.Exit("sfirun", err)
}

func run(reg *obs.Registry, wl, file string, inject, window int, seed uint64, workers int) error {
	// Netlist simulation is orders of magnitude slower than the perf
	// model, so the named workloads shrink (lattice 6, md5 60 blocks).
	p, err := cliutil.LoadProgram(wl, file, seed, cliutil.WorkloadSizes{Lattice: 6, MD5: 60})
	if err != nil {
		return err
	}
	reg.SetManifest("workload", p.Name)
	reg.SetManifest("seed", seed)
	reg.SetManifest("injections_per_bit", inject)
	reg.SetManifest("window", window)
	reg.SetManifest("workers", workers)
	m, err := tinycore.New(p)
	if err != nil {
		return err
	}
	cfg := sfi.DefaultConfig()
	cfg.InjectionsPerBit = inject
	cfg.Window = window
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Obs = reg

	start := time.Now()
	res, err := sfi.Run(m.Sim, sfi.Observation{
		Fub: tinycore.FubName, Valid: "out_valid", Data: "out_data", Halted: "halted_o",
	}, cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	reg.SetManifest("golden_cycles", res.GoldenCycles)

	fmt.Printf("workload %s: golden run %d cycles\n", p.Name, res.GoldenCycles)
	fmt.Printf("%-16s %-6s %-8s %-8s %-8s %-8s %-8s\n",
		"node", "bits", "inject", "error", "unknown", "masked", "AVF")
	for _, n := range res.Nodes {
		fmt.Printf("%-16s %-6d %-8d %-8d %-8d %-8d %-8.3f\n",
			n.Fub+"/"+n.Node, n.Width, n.Injections, n.Errors, n.Unknown, n.Masked, n.AVF())
	}
	fmt.Printf("\ntotal: %d injections -> %d errors, %d unknown, %d masked; AVF (Eq. 2) = %.3f\n",
		res.Injections, res.Errors, res.Unknown, res.Masked, res.AVF())
	fmt.Printf("cost: %d simulated cycles in %v\n", res.SimulatedCycles, elapsed.Round(time.Millisecond))
	return nil
}
