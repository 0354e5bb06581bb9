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
// Derived entirely from fwdIdx/bwdIdx and the visited bitmap, so a
// result decoded from an artifact compiles to the same tables as the
// result it was encoded from.
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

// Table returns the plan's set table and each vertex's forward and
// backward slot (-1 = that side unknown). They alias the plan and its
// source result, and are read-only.
func (p *Plan) Table() (sets pavf.CSR, fwd, bwd []int32) {
	return p.sets, p.fwdIdx, p.bwdIdx
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
