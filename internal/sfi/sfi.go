// Package sfi implements statistical fault injection into RTL — the
// brute-force baseline of §3.1. Two copies of the netlist simulation run
// side by side; a random sequential bit is flipped in one copy at a random
// cycle; the runs are compared at the observation points (program outputs,
// for SDC) for a bounded window.
//
// Classification follows the paper:
//
//   - Error:   the observation streams diverge within the window;
//   - Unknown: the streams match but corrupted state is still resident at
//     the end of the window (the fault may yet propagate);
//   - Masked:  the streams match and the architectural state reconverged.
//
// Sequential AVF is Equation 2: (#Errors + #Unknown) / #Injected.
package sfi

import (
	"fmt"
	"sort"
	"sync"

	"seqavf/internal/obs"
	"seqavf/internal/rtlsim"
	"seqavf/internal/stats"
)

// Observation names the netlist ports SFI compares: a valid/data pair
// (the program output port) plus a halted flag.
type Observation struct {
	Fub    string
	Valid  string
	Data   string
	Halted string
}

// Config tunes a campaign.
type Config struct {
	// InjectionsPerBit is the number of random injection cycles tried
	// for every sequential bit (statistically significant per-node AVFs
	// need several).
	InjectionsPerBit int
	// Window is the number of cycles a fault may propagate before the
	// run is classified (the paper quotes 10,000-50,000 for real RTL;
	// tinycore programs are far shorter).
	Window int
	// MaxCycles bounds the golden run.
	MaxCycles int
	// SnapshotEvery controls the golden checkpoint interval used to
	// fast-forward fault runs.
	SnapshotEvery int
	Seed          uint64
	// SiteFilter, when non-nil, restricts injection to matching
	// sequential nodes. The paper's §4.3 "solution 2" uses exactly this:
	// characterize only the loop nodes with targeted RTL simulation
	// instead of a full-design campaign.
	SiteFilter func(rtlsim.SeqSite) bool
	// Workers parallelizes the campaign across sites (fault injection is
	// embarrassingly parallel — the reason real campaigns run on farms).
	// Results are identical for any worker count: every site draws its
	// injection cycles from its own name-derived random stream.
	Workers int
	// Exhaustive injects into EVERY (bit, cycle) pair instead of sampling
	// — the paper's "complete coverage of the solution space"
	// (#sequentials x #cycles simulations, §3.1). Only feasible for small
	// designs and short programs; InjectionsPerBit is ignored.
	Exhaustive bool
	// Obs receives campaign telemetry: golden/inject spans, injection and
	// outcome counters, and simulated-cycle and node-eval tallies. nil
	// disables it.
	Obs *obs.Registry
}

// DefaultConfig returns a small but meaningful campaign.
func DefaultConfig() Config {
	return Config{
		InjectionsPerBit: 6,
		Window:           2000,
		MaxCycles:        20000,
		SnapshotEvery:    64,
		Seed:             1,
	}
}

// NodeResult aggregates injections into one sequential node.
type NodeResult struct {
	Fub, Node  string
	Width      int
	Injections int
	Errors     int
	Unknown    int
	Masked     int
}

// AVF applies Equation 2 to the node's tallies.
func (n *NodeResult) AVF() float64 {
	if n.Injections == 0 {
		return 0
	}
	return float64(n.Errors+n.Unknown) / float64(n.Injections)
}

// CI returns the 95% binomial confidence interval on the node AVF.
func (n *NodeResult) CI() stats.Interval {
	return stats.BinomialCI(n.Errors+n.Unknown, max(n.Injections, 1))
}

// Result is a completed campaign.
type Result struct {
	Nodes []NodeResult
	// GoldenCycles is the golden run length (halt + drain, or MaxCycles).
	GoldenCycles uint64
	// SimulatedCycles totals the cycles executed across all fault runs —
	// the paper's cost argument in numbers.
	SimulatedCycles uint64

	Injections int
	Errors     int
	Unknown    int
	Masked     int
}

// AVF is the campaign-wide Equation 2 value.
func (r *Result) AVF() float64 {
	if r.Injections == 0 {
		return 0
	}
	return float64(r.Errors+r.Unknown) / float64(r.Injections)
}

// NodeAVF returns the per-node AVF map keyed "fub/node".
func (r *Result) NodeAVF() map[string]float64 {
	out := make(map[string]float64, len(r.Nodes))
	for i := range r.Nodes {
		n := &r.Nodes[i]
		out[n.Fub+"/"+n.Node] = n.AVF()
	}
	return out
}

type obsEvent struct {
	cycle uint64
	val   uint64
}

// golden captures the reference run: observation events, per-cycle state
// hashes, and periodic snapshots.
type golden struct {
	events []obsEvent
	hashes []uint64 // hash after settle at each cycle index
	snaps  []*rtlsim.Sim
	snapAt []uint64
	end    uint64 // first cycle index NOT simulated
}

func runGolden(sim *rtlsim.Sim, obs Observation, cfg Config) (*golden, error) {
	g := &golden{}
	cur := sim.Clone()
	haltDrain := -1
	for c := uint64(0); c < uint64(cfg.MaxCycles); c++ {
		if c%uint64(cfg.SnapshotEvery) == 0 {
			g.snaps = append(g.snaps, cur.Clone())
			g.snapAt = append(g.snapAt, c)
		}
		g.hashes = append(g.hashes, cur.Hash())
		if v, err := cur.Value(obs.Fub, obs.Valid); err != nil {
			return nil, err
		} else if v&1 == 1 {
			data, _ := cur.Value(obs.Fub, obs.Data)
			g.events = append(g.events, obsEvent{cycle: c, val: data})
		}
		if h, _ := cur.Value(obs.Fub, obs.Halted); h&1 == 1 {
			if haltDrain < 0 {
				haltDrain = 3 // a few cycles of post-halt settling
			}
			haltDrain--
			if haltDrain <= 0 {
				g.end = c + 1
				return g, nil
			}
		}
		cur.Step()
	}
	g.end = uint64(cfg.MaxCycles)
	return g, nil
}

// eventsIn returns golden events with cycle >= from.
func (g *golden) eventsIn(from uint64) []obsEvent {
	i := sort.Search(len(g.events), func(i int) bool { return g.events[i].cycle >= from })
	return g.events[i:]
}

// Run executes a campaign against the machine state in sim (typically a
// freshly constructed design with its program loaded, at cycle 0).
func Run(sim *rtlsim.Sim, obsPoints Observation, cfg Config) (*Result, error) {
	if (cfg.InjectionsPerBit <= 0 && !cfg.Exhaustive) || cfg.MaxCycles <= 0 || cfg.SnapshotEvery <= 0 {
		return nil, fmt.Errorf("sfi: invalid config %+v", cfg)
	}
	reg := cfg.Obs
	sp := reg.StartSpan("sfi.campaign")
	defer sp.End()
	gsp := sp.Child("golden")
	g, err := runGolden(sim, obsPoints, cfg)
	if err != nil {
		gsp.End()
		return nil, err
	}
	gsp.SetAttr("cycles", g.end)
	gsp.End()
	if g.end < 2 {
		return nil, fmt.Errorf("sfi: golden run too short (%d cycles)", g.end)
	}
	res := &Result{GoldenCycles: g.end}

	var sites []rtlsim.SeqSite
	for _, site := range sim.SeqSites() {
		if cfg.SiteFilter == nil || cfg.SiteFilter(site) {
			sites = append(sites, site)
		}
	}
	results := make([]NodeResult, len(sites))
	cycleCounts := make([]uint64, len(sites))
	errs := make([]error, len(sites))
	isp := sp.Child("inject")
	isp.SetAttr("sites", len(sites))
	isp.SetAttr("workers", cfg.Workers)

	runSite := func(si int) {
		site := sites[si]
		// Name-derived stream: identical draws regardless of worker
		// count or site visitation order.
		rng := stats.New(cfg.Seed ^ nameHash(site.Fub+"/"+site.Node))
		nr := NodeResult{Fub: site.Fub, Node: site.Node, Width: site.Width}
		inject := func(bit int, c uint64) bool {
			outcome, cycles, err := injectOne(g, obsPoints, cfg, site, bit, c)
			if err != nil {
				errs[si] = err
				return false
			}
			cycleCounts[si] += cycles
			nr.Injections++
			switch outcome {
			case outcomeError:
				nr.Errors++
			case outcomeUnknown:
				nr.Unknown++
			default:
				nr.Masked++
			}
			return true
		}
		for bit := 0; bit < site.Width; bit++ {
			if cfg.Exhaustive {
				for c := uint64(0); c < g.end-1; c++ {
					if !inject(bit, c) {
						return
					}
				}
			} else {
				for k := 0; k < cfg.InjectionsPerBit; k++ {
					c := uint64(rng.Intn(int(g.end - 1)))
					if !inject(bit, c) {
						return
					}
				}
			}
		}
		results[si] = nr
	}
	if cfg.Workers > 1 {
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for si := range work {
					runSite(si)
				}
			}()
		}
		for si := range sites {
			work <- si
		}
		close(work)
		wg.Wait()
	} else {
		for si := range sites {
			runSite(si)
		}
	}
	isp.End()
	for si := range sites {
		if errs[si] != nil {
			return nil, errs[si]
		}
		nr := results[si]
		res.SimulatedCycles += cycleCounts[si]
		res.Injections += nr.Injections
		res.Errors += nr.Errors
		res.Unknown += nr.Unknown
		res.Masked += nr.Masked
		res.Nodes = append(res.Nodes, nr)
	}
	if reg != nil {
		reg.Counter("sfi.campaigns").Inc()
		reg.Counter("sfi.injections").Add(int64(res.Injections))
		reg.Counter("sfi.errors").Add(int64(res.Errors))
		reg.Counter("sfi.unknown").Add(int64(res.Unknown))
		reg.Counter("sfi.masked").Add(int64(res.Masked))
		reg.Counter("sfi.sim_cycles").Add(int64(res.SimulatedCycles))
		reg.Counter("rtlsim.cycles").Add(int64(res.SimulatedCycles + res.GoldenCycles))
		evals := (res.SimulatedCycles + res.GoldenCycles) * uint64(sim.NumEvalNodes())
		reg.Counter("rtlsim.node_evals").Add(int64(evals))
		sp.SetAttr("injections", res.Injections)
		sp.SetAttr("avf", res.AVF())
	}
	return res, nil
}

// nameHash is a 64-bit FNV-1a over the site name.
func nameHash(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

type outcome uint8

const (
	outcomeMasked outcome = iota
	outcomeError
	outcomeUnknown
)

// injectOne runs a single fault experiment: flip (site,bit) at cycle c and
// compare against the golden run until the window closes.
func injectOne(g *golden, obs Observation, cfg Config, site rtlsim.SeqSite, bit int, c uint64) (outcome, uint64, error) {
	// Fast-forward from the nearest snapshot at or before c.
	si := sort.Search(len(g.snapAt), func(i int) bool { return g.snapAt[i] > c }) - 1
	m := g.snaps[si].Clone()
	cycles := uint64(0)
	for cur := g.snapAt[si]; cur < c; cur++ {
		m.Step()
		cycles++
	}
	if err := m.FlipBit(site.Fub, site.Node, bit); err != nil {
		return 0, cycles, err
	}
	end := c + uint64(cfg.Window)
	if end > g.end-1 {
		end = g.end - 1
	}
	want := g.eventsIn(c)
	wi := 0
	for cur := c; ; cur++ {
		if v, _ := m.Value(obs.Fub, obs.Valid); v&1 == 1 {
			data, _ := m.Value(obs.Fub, obs.Data)
			if wi >= len(want) || want[wi].cycle != cur || want[wi].val != data {
				return outcomeError, cycles, nil
			}
			wi++
		} else if wi < len(want) && want[wi].cycle == cur {
			return outcomeError, cycles, nil // golden emitted, fault run silent
		}
		if cur == end {
			break
		}
		m.Step()
		cycles++
	}
	// Window closed without divergence: is corrupted state resident?
	if m.Hash() != g.hashes[end] {
		return outcomeUnknown, cycles, nil
	}
	return outcomeMasked, cycles, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
