// Command seqavfbench is the seqavfd benchmark. It starts the real
// seqavfd binary on loopback, drives one workload from a single
// closed-loop client over one connection, checks every response against
// an in-process reference, and prints the end-to-end metrics. With
// --trace 1 it also replays the workload's op in process, one span per
// layer call, and prints the per-layer metrics and the attribution of
// the op's median latency to layers.
//
// Build and run it through run.sh from the repository root, which builds
// seqavfd from the same tree first:
//
//	bash seqavfbench/run.sh --workload sweep_summary --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The command exits
// non-zero when any response fails verification.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	root      string // checkout root; scratch files go under .bench_build
	bin       string // seqavfd binary
	setups    int    // server starts whose set-up time is measured
	warmup    int    // ops per set-up, after the cold upload
	replayOps int    // ops replayed per traced run
}

// A run measures five set-ups, each ending with 20 warm-up ops, and
// replays 40 ops when traced.
const (
	numSetups = 5
	warmupOps = 20
	tracedOps = 40
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{setups: numSetups, warmup: warmupOps, replayOps: tracedOps}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "sweep_summary", "workload: sweep_summary, sweep_nodes or eco_loop")
	flag.Uint64Var(&cfg.seed, "seed", 1, "load seed: pAVF jitter, interval tables and the ECO edit sequence")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of the in-process replay instead of the end-to-end metrics")
	flag.StringVar(&cfg.root, "root", ".", "checkout root; seqavfd is .bench_build/seqavfd under it, and scratch files go there too")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.bin = filepath.Join(cfg.root, ".bench_build", "seqavfd")

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seqavfbench: %v\n", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	res := rep.result(cfg.trace)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seqavfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "seqavfbench: %d of %d ops failed: %v\n", res.Failed, res.Attempted, rep.firstErr)
		os.Exit(1)
	}
}

// run performs one benchmark run: inputs and references, the measured
// set-ups, the timed closed loop, the ECO chain check and, when tracing,
// the replay.
func run(cfg config) (*report, error) {
	in, err := newInputs(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	ck, err := newChecker(in)
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	rep := &report{cfg: cfg, in: in}
	lp := &loop{in: in, ck: ck}
	d, err := lp.setups(cfg, runDir, rep)
	if err != nil {
		return nil, err
	}
	err = lp.timed(d, time.Duration(cfg.seconds*float64(time.Second)), rep)
	d.stop()
	if err != nil {
		return nil, err
	}
	if err := lp.checkECO(rep); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := replayLayers(in, runDir, cfg.replayOps, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
