// Command acerun executes a workload on the ACE-instrumented performance
// model and prints the measured structure AVFs and port pAVFs — step 2 of
// the paper's tool flow ("Collect pAVF data from ACE model") as a
// standalone tool. The text output doubles as a sartool pAVF table when
// filtered; -json emits the full report.
//
// Observability: -metrics FILE writes a JSON snapshot (cycles simulated,
// instructions retired, ACE reads/writes tallied, IPC, per-run phase
// spans, run manifest); -trace prints phase spans to stderr; -pprof ADDR
// serves net/http/pprof.
//
// Usage:
//
//	acerun -workload lattice
//	acerun -workload md5 -json
//	acerun -workload suite -n 8 -seed 42        # suite average
//	acerun -workload md5 -metrics ace.json -trace
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"seqavf/cmd/internal/cliutil"
	"seqavf/internal/ace"
	"seqavf/internal/obs"
	"seqavf/internal/uarch"
	"seqavf/internal/workload"
)

func main() {
	wl := flag.String("workload", "lattice", cliutil.WorkloadNames+", or suite")
	file := flag.String("file", "", "assemble and run a program file instead of a named workload")
	n := flag.Int("n", 8, "suite size (workload=suite)")
	seed := flag.Uint64("seed", 1, "generator seed")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	ob := cliutil.ObsFlags()
	flag.Parse()

	reg := ob.Start("acerun")
	err := run(reg, *wl, *file, *n, *seed, *jsonOut)
	if err == nil {
		err = ob.Finish()
	}
	cliutil.Exit("acerun", err)
}

func run(reg *obs.Registry, wl, file string, n int, seed uint64, jsonOut bool) error {
	reg.SetManifest("workload", wl)
	reg.SetManifest("seed", seed)
	cfg := uarch.DefaultConfig()
	cfg.Obs = reg

	var rep *ace.Report
	var label string
	if wl == "suite" && file == "" {
		reg.SetManifest("suite_size", n)
		_, avg, err := uarch.RunSuite(workload.Suite(n, seed), cfg)
		if err != nil {
			return err
		}
		rep = avg
		label = fmt.Sprintf("average of %d synthetic workloads (seed %d)", n, seed)
	} else {
		p, err := cliutil.LoadProgram(wl, file, seed, cliutil.WorkloadSizes{})
		if err != nil {
			return err
		}
		reg.SetManifest("program", p.Name)
		res, err := uarch.Run(p, cfg)
		if err != nil {
			return err
		}
		rep = res.Report
		label = fmt.Sprintf("%s: %d instrs, %d cycles, IPC %.3f, ACE fraction %.3f",
			p.Name, res.Instrs, res.Cycles, res.IPC, res.ACEInstrFraction)
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Printf("# %s\n", label)
	fmt.Printf("# structure AVFs (Equation 3) and Little's-Law estimates\n")
	for _, name := range rep.StructNames() {
		fmt.Printf("S %-10s %.6f", name, rep.StructAVF[name])
		if little, ok := rep.LittleAVF[name]; ok {
			fmt.Printf("   # little=%.6f bits=%d", little, rep.StructBits[name])
		}
		fmt.Println()
	}
	var lines []string
	for k, v := range rep.ReadPorts {
		lines = append(lines, fmt.Sprintf("R %-14s %.6f", k, v))
	}
	for k, v := range rep.WritePorts {
		lines = append(lines, fmt.Sprintf("W %-14s %.6f", k, v))
	}
	sort.Strings(lines)
	fmt.Println("# port pAVFs")
	for _, l := range lines {
		fmt.Println(l)
	}
	return nil
}
