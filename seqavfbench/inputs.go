package main

// Seeded input generation. Everything the server receives is built here:
// the XeonLike design from the fixed designSeed, and the load from --seed
// (pAVF jitter, interval tables and the ECO edit sequence). The server
// only ever sees the resulting bytes.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"seqavf/internal/core"
	"seqavf/internal/design"
	"seqavf/internal/harden"
	"seqavf/internal/netlist"
	"seqavf/internal/pavfio"
	"seqavf/internal/server"
	"seqavf/internal/stats"
	"seqavf/internal/uarch"
	"seqavf/internal/workload"
)

// poolSize is the number of distinct request bodies per request kind.
// Ops cycle through the pool, so consecutive requests differ while every
// reference can be computed once at setup.
const poolSize = 4

// Request shapes of the three workloads.
const (
	summaryTables  = 64 // sweep_summary: tables per /v1/sweep
	nodesTables    = 16 // sweep_nodes: tables per /v1/sweep with nodes:true
	intervalWins   = 32 // eco_loop: windows in the /v1/sweep/intervals table
	hardenTables   = 16 // eco_loop: tables per /v1/harden
	hardenTopTerms = 16
	windowCycles   = 1000 // cycles per interval window
	jitterHalf     = 0.1  // uniform jitter half-width applied to the base table
)

// designSeed fixes the design, so that runs with different load seeds
// measure the same circuit.
const designSeed = 2027

var hardenBudgets = []float64{64, 256, 1024, 4096}

// ecoSite is where ECO flops go in one FUB: the netlist byte offset that
// ends the FUB module's node list, and the existing signal the flop
// registers.
type ecoSite struct {
	offset int
	src    string
	width  int
}

// inputs is one run's generated load.
type inputs struct {
	workload   string
	designName string
	netlist    []byte
	// bodies are the request bodies ops cycle through: /v1/sweep bodies
	// for the sweep workloads; for eco_loop, intervals[k] and harden[k]
	// pair up as the second and third request of op k mod poolSize.
	bodies    [][]byte
	intervals [][]byte
	harden    [][]byte
	// sites holds one ECO site per FUB, in FUB order; fubOffset rotates
	// the sequence so the seed decides which FUB each op edits.
	sites     []ecoSite
	fubOffset int
	digest    string
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []string{"sweep_summary", "sweep_nodes", "eco_loop"}

// newInputs generates the load for one workload.
func newInputs(wl string, seed uint64) (*inputs, error) {
	if !slices.Contains(workloads, wl) {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", wl, strings.Join(workloads, ", "))
	}
	gen, err := design.Generate(design.DefaultConfig(designSeed))
	if err != nil {
		return nil, fmt.Errorf("generating design: %w", err)
	}
	var nl bytes.Buffer
	if err := netlist.Write(&nl, gen.Design); err != nil {
		return nil, fmt.Errorf("writing netlist: %w", err)
	}
	perf, err := uarch.Run(workload.Lattice(12), uarch.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("measuring Lattice pAVFs: %w", err)
	}
	base, err := gen.Inputs(perf.Report)
	if err != nil {
		return nil, fmt.Errorf("binding Lattice pAVFs: %w", err)
	}
	in := &inputs{
		workload:   wl,
		designName: gen.Design.Name,
		netlist:    nl.Bytes(),
	}
	rng := stats.New(seed)
	table := func() string {
		var b strings.Builder
		if _, err := pavfio.Write(&b, jitter(rng, base)); err != nil {
			panic(err) // strings.Builder writes cannot fail
		}
		return b.String()
	}
	for k := 0; k < poolSize; k++ {
		switch wl {
		case "sweep_summary", "sweep_nodes":
			n := summaryTables
			if wl == "sweep_nodes" {
				n = nodesTables
			}
			req := server.SweepRequest{Design: in.designName, Nodes: wl == "sweep_nodes"}
			for i := 0; i < n; i++ {
				req.Workloads = append(req.Workloads, server.SweepWorkload{Name: fmt.Sprintf("w%02d", i), PAVF: table()})
			}
			in.bodies = append(in.bodies, mustJSON(req))
		case "eco_loop":
			var iv strings.Builder
			fmt.Fprintf(&iv, "# workload phases%d\n", k)
			for w := 0; w < intervalWins; w++ {
				fmt.Fprintf(&iv, "# window %d %d %d\n", w, w*windowCycles, (w+1)*windowCycles)
				iv.WriteString(table())
			}
			in.intervals = append(in.intervals, mustJSON(server.IntervalSweepRequest{
				Design:    in.designName,
				Workloads: []server.IntervalSweepWorkload{{Name: fmt.Sprintf("phases%d", k), Table: iv.String()}},
			}))
			hr := harden.Request{Design: in.designName, Budgets: hardenBudgets, Solver: "greedy", TopTerms: hardenTopTerms}
			for i := 0; i < hardenTables; i++ {
				hr.Workloads = append(hr.Workloads, harden.Workload{Name: fmt.Sprintf("h%02d", i), PAVF: table()})
			}
			in.harden = append(in.harden, mustJSON(hr))
		}
	}
	if wl == "eco_loop" {
		if in.sites, err = ecoSites(gen.Design, in.netlist, rng); err != nil {
			return nil, err
		}
		in.fubOffset = rng.Intn(len(in.sites))
	}
	in.digest = in.computeDigest()
	return in, nil
}

// jitter returns base with every value moved by uniform noise of
// ±jitterHalf, clamped to [0,1]. Keys are visited in sorted order so the
// output depends on the RNG state alone.
func jitter(rng *stats.RNG, base *core.Inputs) *core.Inputs {
	j := func(v float64) float64 {
		return math.Min(1, math.Max(0, v+(rng.Float64()*2-1)*jitterHalf))
	}
	out := core.NewInputs()
	ports := func(dst, src map[core.StructPort]float64) {
		keys := make([]core.StructPort, 0, len(src))
		for sp := range src {
			keys = append(keys, sp)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a].String() < keys[b].String() })
		for _, sp := range keys {
			dst[sp] = j(src[sp])
		}
	}
	ports(out.ReadPorts, base.ReadPorts)
	ports(out.WritePorts, base.WritePorts)
	names := make([]string, 0, len(base.StructAVF))
	for s := range base.StructAVF {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		out.StructAVF[s] = j(base.StructAVF[s])
	}
	return out
}

// ecoSites picks, for every FUB, a random eligible signal (a non-debug
// combinational or sequential node) for ECO flops to register, and finds
// where the FUB module's node list ends in the netlist text.
func ecoSites(d *netlist.Design, text []byte, rng *stats.RNG) ([]ecoSite, error) {
	sites := make([]ecoSite, 0, len(d.Fubs))
	for _, f := range d.Fubs {
		mod := d.Modules[f.Module]
		var cands []*netlist.Node
		for _, n := range mod.Nodes {
			if (n.Kind == netlist.KindComb || n.Kind == netlist.KindSeq) && n.Class != netlist.ClassDebug {
				cands = append(cands, n)
			}
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("FUB %s has no signal to register", f.Name)
		}
		src := cands[rng.Intn(len(cands))]
		start := bytes.Index(text, []byte("\nmodule "+mod.Name+"\n"))
		if start < 0 {
			return nil, fmt.Errorf("module %s not found in netlist text", mod.Name)
		}
		body := start + len("\nmodule "+mod.Name+"\n")
		end := body
		for end < len(text) {
			line := text[end:]
			if nl := bytes.IndexByte(line, '\n'); nl >= 0 {
				line = line[:nl+1]
			}
			if bytes.HasPrefix(line, []byte("  inst ")) || bytes.HasPrefix(line, []byte("endmodule")) {
				break
			}
			end += len(line)
		}
		sites = append(sites, ecoSite{offset: end, src: src.Name, width: src.Width})
	}
	return sites, nil
}

// ecoSite returns the site op i edits.
func (in *inputs) ecoSite(i int) ecoSite {
	return in.sites[(in.fubOffset+i)%len(in.sites)]
}

// editBody returns op i's edited netlist: the base netlist plus flop
// eco_<i>. Op i-1's flop is absent, so the design keeps its size while
// every op produces a netlist, and a fingerprint, never seen before.
func (in *inputs) editBody(i int) []byte {
	s := in.ecoSite(i)
	line := fmt.Sprintf("  seq eco_%d %d = %s\n", i, s.width, s.src)
	out := make([]byte, 0, len(in.netlist)+len(line))
	out = append(out, in.netlist[:s.offset]...)
	out = append(out, line...)
	return append(out, in.netlist[s.offset:]...)
}

// computeDigest hashes every generated byte the server will receive, so
// two runs can show they sent the same load.
func (in *inputs) computeDigest() string {
	h := sha256.New()
	h.Write(in.netlist)
	for _, group := range [][][]byte{in.bodies, in.intervals, in.harden} {
		for _, b := range group {
			h.Write(b)
		}
	}
	for i := range in.sites {
		h.Write(in.editBody(i))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs always marshal
	}
	return b
}
