package core

import (
	"sort"
	"strings"

	"seqavf/internal/graph"
	"seqavf/internal/netlist"
	"seqavf/internal/pavf"
)

// This file decomposes each node's AVF into SDC / DUE / DCE components
// (§1 of the paper distinguishes silent data corruption, detected
// uncorrectable, and detected corrected errors; §3.1 notes SDC and DUE
// have different observability points — SFI needs separate campaigns for
// them, while the analytical flow resolves both from one pass).
//
// The model follows end-to-end protection (the paper's refs [10][11]):
// when a structure is declared parity- or ECC-protected, its incoming
// data is covered by the code from the producer, so the fraction of a
// node's outgoing ACE traffic that sinks into protected write ports is
// detected (parity -> DUE) or corrected (ECC -> DCE). The backward term
// set of the node's closed form records exactly that composition, so the
// decomposition is a weighted split of the resolved AVF:
//
//	p_class = Σ value(term in class) / Σ value(all backward terms)
//
// Traffic with unknown destination (⊤, pseudo-structures, loop
// boundaries) and structure *read*-port sinks (a corrupted read address
// fetches a wrong-but-valid codeword, which no code detects) classify as
// SDC — the conservative direction.

// AVFClass is a fault-outcome class.
type AVFClass uint8

const (
	// ClassSDC faults silently corrupt user-visible results.
	ClassSDC AVFClass = iota
	// ClassDUE faults are detected but not correctable.
	ClassDUE
	// ClassDCE faults are detected and corrected (no user impact).
	ClassDCE
)

func (c AVFClass) String() string {
	switch c {
	case ClassSDC:
		return "SDC"
	case ClassDUE:
		return "DUE"
	case ClassDCE:
		return "DCE"
	default:
		return "AVFClass?"
	}
}

// termClass classifies one backward term.
func (a *Analyzer) termClass(id pavf.TermID) AVFClass {
	t := a.universe.Term(id)
	if t.Kind != pavf.KindWritePort {
		return ClassSDC
	}
	structName, _, ok := strings.Cut(t.Name, ".")
	if !ok {
		return ClassSDC
	}
	st, ok := a.G.Design.Structures[structName]
	if !ok {
		return ClassSDC
	}
	switch st.Prot {
	case netlist.ProtParity:
		return ClassDUE
	case netlist.ProtECC:
		return ClassDCE
	default:
		return ClassSDC
	}
}

// Decomposition splits one node's AVF by fault outcome.
type Decomposition struct {
	SDC float64
	DUE float64
	DCE float64
}

// Total returns the full AVF (the three components sum to it).
func (d Decomposition) Total() float64 { return d.SDC + d.DUE + d.DCE }

// Decompose splits vertex v's resolved AVF into SDC/DUE/DCE using the
// backward term composition of its closed form.
func (r *Result) Decompose(v graph.VertexID) Decomposition {
	a := r.Analyzer
	avf := r.AVF[v]
	if avf == 0 {
		return Decomposition{}
	}
	x := r.Expr(v)
	if !x.KnownBwd {
		return Decomposition{SDC: avf}
	}
	var wSDC, wDUE, wDCE float64
	for _, id := range x.Bwd.IDs() {
		w := r.Env[id]
		switch a.termClass(id) {
		case ClassDUE:
			wDUE += w
		case ClassDCE:
			wDCE += w
		default:
			wSDC += w
		}
	}
	total := wSDC + wDUE + wDCE
	if total == 0 {
		return Decomposition{SDC: avf}
	}
	return Decomposition{
		SDC: avf * wSDC / total,
		DUE: avf * wDUE / total,
		DCE: avf * wDCE / total,
	}
}

// SDCAVF returns the silent-corruption component of vertex v's AVF.
func (r *Result) SDCAVF(v graph.VertexID) float64 { return r.Decompose(v).SDC }

// DUEAVF returns the detected-uncorrectable component.
func (r *Result) DUEAVF(v graph.VertexID) float64 { return r.Decompose(v).DUE }

// Contributor is one pAVF source appearing in a node's closed form, with
// its current numeric contribution — the data a mitigation planner needs
// to know *which measured structure ports* drive a node's vulnerability.
type Contributor struct {
	Term  string
	Value float64
}

// Contributors lists the forward and backward sources of vertex v's
// closed-form equation, each with its current value under the result's
// environment, sorted by descending contribution.
func (r *Result) Contributors(v graph.VertexID) (fwd, bwd []Contributor) {
	collect := func(set pavf.Set, known bool) []Contributor {
		if !known {
			return nil
		}
		out := make([]Contributor, 0, set.Len())
		for _, id := range set.IDs() {
			out = append(out, Contributor{
				Term:  r.Analyzer.universe.Term(id).String(),
				Value: r.Env[id],
			})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Value != out[j].Value {
				return out[i].Value > out[j].Value
			}
			return out[i].Term < out[j].Term
		})
		return out
	}
	x := r.Expr(v)
	return collect(x.Fwd, x.KnownFwd), collect(x.Bwd, x.KnownBwd)
}

// SeqDecomposition aggregates the decomposition over all sequential bits
// (unweighted sum of per-bit components divided by bit count).
func (r *Result) SeqDecomposition() Decomposition {
	var d Decomposition
	n := 0
	for v := 0; v < r.Analyzer.G.NumVerts(); v++ {
		if !r.IsSequentialBit(graph.VertexID(v)) {
			continue
		}
		dv := r.Decompose(graph.VertexID(v))
		d.SDC += dv.SDC
		d.DUE += dv.DUE
		d.DCE += dv.DCE
		n++
	}
	if n > 0 {
		d.SDC /= float64(n)
		d.DUE /= float64(n)
		d.DCE /= float64(n)
	}
	return d
}
