// Command designgen generates a XeonLike synthetic design and writes its
// netlist (and optionally its port-AVF binding table) in the textual
// formats consumed by sartool.
//
// Observability: -metrics FILE writes a JSON snapshot (generation phase
// spans, perf-model counters when -pavf is used, run manifest); -trace
// prints phase spans to stderr; -pprof ADDR serves net/http/pprof.
//
// Usage:
//
//	designgen -seed 2015 -o design.nl -pavf pavf.txt
//
// -fubs and -width set the scale: -fubs 2048 -width 32 is
// design.PaperScaleConfig, about 2.09M bit vertices. -width stops at 32,
// the widest LFSR cell the generator can emit.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"seqavf/cmd/internal/cliutil"
	"seqavf/internal/design"
	"seqavf/internal/graph"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/pavfio"
	"seqavf/internal/uarch"
	"seqavf/internal/workload"
)

func main() {
	seed := flag.Uint64("seed", 2027, "generator seed")
	fubs := flag.Int("fubs", 32, "number of FUBs")
	width := flag.Int("width", 12, fmt.Sprintf("datapath width of every lane and port, 2 to %d (the widest LFSR cell)", design.MaxWidth))
	out := flag.String("o", "", "netlist output file (default stdout)")
	pavf := flag.String("pavf", "", "also write a pAVF table measured on the Lattice workload")
	stats := flag.Bool("stats", false, "print bit-graph statistics to stderr")
	ob := cliutil.ObsFlags()
	flag.Parse()

	reg := ob.Start("designgen")
	err := run(reg, *seed, *fubs, *width, *out, *pavf, *stats)
	if err == nil {
		err = ob.Finish()
	}
	cliutil.Exit("designgen", err)
}

func run(reg *obs.Registry, seed uint64, fubs, width int, out, pavfPath string, stats bool) error {
	reg.SetManifest("seed", seed)
	reg.SetManifest("fubs", fubs)
	reg.SetManifest("width", width)
	gsp := reg.StartSpan("generate")
	cfg := design.DefaultConfig(seed)
	cfg.NumFubs = fubs
	cfg.Width = width
	gen, err := design.Generate(cfg)
	if err != nil {
		return err
	}
	gsp.End()
	if err := cliutil.WriteOutput(out, func(w io.Writer) error {
		return netlist.Write(w, gen.Design)
	}); err != nil {
		return err
	}
	fsp := reg.StartSpan("flatten")
	fd, err := netlist.Flatten(gen.Design)
	if err != nil {
		return err
	}
	fsp.SetAttr("nodes", fd.NumNodes())
	fsp.End()
	fmt.Fprintf(os.Stderr, "designgen: %d FUBs, %d structures, %d flat nodes\n",
		len(gen.Design.Fubs), len(gen.Design.Structures), fd.NumNodes())
	if stats {
		g, err := graph.Build(fd)
		if err != nil {
			return err
		}
		graph.Measure(g).WriteText(os.Stderr)
	}

	if pavfPath == "" {
		return nil
	}
	psp := reg.StartSpan("measure_pavf")
	ucfg := uarch.DefaultConfig()
	ucfg.Obs = reg
	perf, err := uarch.Run(workload.Lattice(12), ucfg)
	if err != nil {
		return err
	}
	in, err := gen.Inputs(perf.Report)
	if err != nil {
		return err
	}
	psp.End()
	var n int
	if err := cliutil.WriteOutput(pavfPath, func(w io.Writer) (err error) {
		n, err = pavfio.Write(w, in)
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "designgen: wrote %d pAVF entries to %s\n", n, pavfPath)
	return nil
}
