// Package sweep is the workload sweep engine: the compile-once /
// serve-many half of the paper's §5.1 symbolic-propagation claim, built
// for batches.
//
// A solved core.Result carries one closed-form equation per bit vertex:
// AVF = MIN(Union(forward terms), Union(backward terms)). Evaluating a new
// workload therefore needs only a new term environment — no walks. But the
// per-vertex equations are massively redundant: propagation copies the same
// term sets down whole pipelines, so a design with hundreds of thousands of
// bits typically resolves to a few hundred distinct sets. Compile flattens
// the equations into a deduplicated plan — every distinct term set becomes
// one shared subterm slot, evaluated once per workload — and Engine pushes
// batches of workloads through compiled plans with a bounded worker pool,
// per-shard chunking, and an LRU plan cache keyed by the analyzer's design
// fingerprint.
//
// Numerically the plan is exact: subterm evaluation replays pavf.Set.Eval's
// summation order (ascending TermID, capped at 1.0) and the final MIN
// matches pavf.Expr.Eval, so plan results are bit-identical to
// Result.Reevaluate and to a fresh Solve under the same inputs.
package sweep

import (
	"fmt"

	"seqavf/internal/core"
	"seqavf/internal/pavf"
)

// Plan is a compiled, immutable evaluation plan for one design. It is safe
// for concurrent evaluation: the blocked kernel (block.go) writes only
// into caller-provided or freshly allocated buffers.
type Plan struct {
	// Analyzer is the design the plan was compiled for; environments are
	// built against its term universe.
	Analyzer *core.Analyzer
	// Fingerprint is Analyzer.Fingerprint(), the plan-cache key.
	Fingerprint uint64

	visited []bool

	// sets is the deduplicated set table, and fwdIdx/bwdIdx give each
	// vertex's set slot per direction, or -1 when the walk never reached
	// that side (conservative 1.0). All three alias the source result's
	// (read-only), so per-workload Results carry the same closed forms.
	sets   pavf.CSR
	fwdIdx []int32
	bwdIdx []int32

	// The deduplicated (fwdIdx, bwdIdx) pair table: vertices sharing both
	// set slots resolve to the same MIN, so the blocked kernel computes
	// each distinct pair once per lane and broadcasts the values.
	// pairFwd/pairBwd are the slot pair for each unique pair (slot -1 =
	// unknown side). Adjacent vertices overwhelmingly share a pair (the
	// bits of one node), so the vertex->pair map is run-length encoded:
	// run r covers vertices [runOff[r], runOff[r+1]) and resolves to pair
	// runPair[r], turning the broadcast into a constant fill per run.
	pairFwd []int32
	pairBwd []int32
	runOff  []int32
	runPair []int32

	// layout is the analyzer's summary layout remapped from vertices to
	// pair indices, so the summary sink reduces pair values in exactly
	// the order Result.Summarize and SeqAVFByNode sum vertex AVFs.
	// visitedFrac is the plan's (workload-independent) visited fraction.
	layout      *core.SummaryLayout
	visitedFrac float64
}

// Stats describes a compiled plan's shape.
type Stats struct {
	// Vertices is the number of bit equations the plan resolves.
	Vertices int
	// UniqueSets counts distinct term sets — the subterms evaluated once
	// per workload.
	UniqueSets int
	// SetRefs counts per-vertex set references (known sides only);
	// SetRefs/UniqueSets is the sharing factor the dedup exploits.
	SetRefs int
	// Terms is the total TermID count across unique sets.
	Terms int
}

// Compile flattens res's closed-form equations into an evaluation plan.
// The result's set table and per-vertex slots (Result.Sets, Fwd, Bwd)
// already are the plan's CSR, deduplicated in first-sighting order, so
// Compile adopts them as they are and only builds the pair table.
func Compile(res *core.Result) (*Plan, error) {
	a := res.Analyzer
	n := a.G.NumVerts()
	if len(res.Fwd) != n || len(res.Bwd) != n {
		return nil, fmt.Errorf("sweep: result has %d/%d set slots but design %q has %d vertices",
			len(res.Fwd), len(res.Bwd), a.G.Design.Name, n)
	}
	p := &Plan{
		Analyzer:    a,
		Fingerprint: a.Fingerprint(),
		visited:     res.Visited,
		sets:        res.Sets,
		fwdIdx:      res.Fwd,
		bwdIdx:      res.Bwd,
	}
	p.buildPairs()
	return p, nil
}

// buildPairs fills the unique (fwd, bwd) slot-pair table, its
// run-length-encoded vertex map, and the pair-indexed summary layout.
// Derived entirely from fwdIdx/bwdIdx and the visited bitmap, so both
// Compile and Restore produce identical tables for the same CSR plan.
func (p *Plan) buildPairs() {
	n := len(p.fwdIdx)
	seen := make(map[uint64]int32, 64)
	pairOf := make([]int32, n)
	prev := int32(-1)
	for v := 0; v < n; v++ {
		fi, bi := p.fwdIdx[v], p.bwdIdx[v]
		// A vertex continuing its predecessor's run (most do: the bits
		// of one node) needs no lookup.
		if prev >= 0 && fi == p.pairFwd[prev] && bi == p.pairBwd[prev] {
			pairOf[v] = prev
			continue
		}
		key := uint64(uint32(fi))<<32 | uint64(uint32(bi))
		pi, ok := seen[key]
		if !ok {
			pi = int32(len(p.pairFwd))
			seen[key] = pi
			p.pairFwd = append(p.pairFwd, fi)
			p.pairBwd = append(p.pairBwd, bi)
		}
		pairOf[v] = pi
		if pi != prev {
			p.runOff = append(p.runOff, int32(v))
			p.runPair = append(p.runPair, pi)
			prev = pi
		}
	}
	p.runOff = append(p.runOff, int32(n))
	p.layout = p.Analyzer.SummaryLayout().Remap(pairOf)
	p.visitedFrac = p.Analyzer.VisitedFraction(p.visited)
}

// Raw is the plan's CSR subterm table in serializable form. Slices alias
// the plan's internal storage and must not be modified.
type Raw struct {
	// SetOff/SetIDs are the deduplicated set table in CSR form: set s
	// covers SetIDs[SetOff[s]:SetOff[s+1]], term IDs strictly ascending.
	SetOff []int32
	SetIDs []pavf.TermID
	// FwdIdx/BwdIdx give each vertex's set slot per direction, -1 when the
	// walk never reached that side.
	FwdIdx []int32
	BwdIdx []int32
}

// Raw exposes the plan's CSR subterm table for persistence
// (internal/artifact). The returned slices alias the plan and are
// read-only.
func (p *Plan) Raw() Raw {
	return Raw{SetOff: p.sets.Off, SetIDs: p.sets.IDs, FwdIdx: p.fwdIdx, BwdIdx: p.bwdIdx}
}

// Restore reconstructs a compiled plan from a persisted CSR table. It
// validates every structural invariant evaluation relies on — offsets
// monotone and in range, per-set term IDs strictly ascending and inside
// a's term universe, per-vertex indices in range — so a corrupted or
// adversarial table is refused instead of producing out-of-range
// indexing at evaluation time, and a core.Result built on the same
// arrays may read its closed forms from them unchecked. The plan adopts
// raw's arrays; a plan restored from the CSR written by Raw is
// bit-identical in behavior to a fresh Compile. This is the
// artifact-decode hot path: validation is a single pass, and no set is
// copied.
func Restore(a *core.Analyzer, raw Raw, visited []bool) (*Plan, error) {
	n := a.G.NumVerts()
	if len(raw.FwdIdx) != n || len(raw.BwdIdx) != n {
		return nil, fmt.Errorf("sweep: raw plan covers %d/%d vertices but design has %d",
			len(raw.FwdIdx), len(raw.BwdIdx), n)
	}
	if len(visited) != n {
		return nil, fmt.Errorf("sweep: %d visited flags for %d vertices", len(visited), n)
	}
	if len(raw.SetOff) < 1 || raw.SetOff[0] != 0 || int(raw.SetOff[len(raw.SetOff)-1]) != len(raw.SetIDs) {
		return nil, fmt.Errorf("sweep: raw plan offsets malformed (%d offsets, %d term IDs)",
			len(raw.SetOff), len(raw.SetIDs))
	}
	nSets := len(raw.SetOff) - 1
	uniLen := pavf.TermID(a.Universe().Len())
	for s := 0; s < nSets; s++ {
		lo, hi := raw.SetOff[s], raw.SetOff[s+1]
		if lo > hi {
			return nil, fmt.Errorf("sweep: raw plan set %d has negative extent [%d,%d)", s, lo, hi)
		}
		prev := pavf.TermID(-1)
		for _, id := range raw.SetIDs[lo:hi] {
			if id < 0 || id >= uniLen {
				return nil, fmt.Errorf("sweep: raw plan set %d references term %d outside universe of %d", s, id, uniLen)
			}
			if id <= prev {
				return nil, fmt.Errorf("sweep: raw plan set %d terms not strictly ascending at %d", s, id)
			}
			prev = id
		}
	}
	// Validate the per-vertex indices in their own linear scans (cheap:
	// two int32 arrays, no stores).
	for v, fi := range raw.FwdIdx {
		if fi < -1 || int(fi) >= nSets {
			return nil, fmt.Errorf("sweep: raw plan vertex %d forward index %d out of range (%d sets)", v, fi, nSets)
		}
	}
	for v, bi := range raw.BwdIdx {
		if bi < -1 || int(bi) >= nSets {
			return nil, fmt.Errorf("sweep: raw plan vertex %d backward index %d out of range (%d sets)", v, bi, nSets)
		}
	}
	p := &Plan{
		Analyzer:    a,
		Fingerprint: a.Fingerprint(),
		visited:     visited,
		sets:        pavf.CSR{Off: raw.SetOff, IDs: raw.SetIDs},
		fwdIdx:      raw.FwdIdx,
		bwdIdx:      raw.BwdIdx,
	}
	p.buildPairs()
	return p, nil
}

// NumVerts returns the number of bit equations in the plan.
func (p *Plan) NumVerts() int { return len(p.fwdIdx) }

// NumSets returns the number of deduplicated subterm sets.
func (p *Plan) NumSets() int { return p.sets.Len() }

// Stats summarizes the plan's shape.
func (p *Plan) Stats() Stats {
	st := Stats{
		Vertices:   p.NumVerts(),
		UniqueSets: p.NumSets(),
		Terms:      len(p.sets.IDs),
	}
	for v := range p.fwdIdx {
		if p.fwdIdx[v] >= 0 {
			st.SetRefs++
		}
		if p.bwdIdx[v] >= 0 {
			st.SetRefs++
		}
	}
	return st
}
