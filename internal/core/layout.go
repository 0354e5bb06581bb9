package core

import "seqavf/internal/netlist"

// SummaryLayout is the one definition of the design-wide statistics:
// which bits each FUB's node and sequential averages cover, which bits
// make up each sequential node's average, and the order every sum is
// accumulated in. Result.FubStats, Summarize and SeqAVFByNode reduce an
// AVF vector through it, and the sweep engine reduces its per-pair
// values through a remapped copy, so both paths perform the same float
// operations in the same order and agree bit for bit.
//
// Entries are value slots: the analyzer's layout (Analyzer.SummaryLayout)
// uses vertex IDs, so its slots index a per-vertex AVF vector; Remap
// re-targets them to any other per-vertex value table. Slot lists are
// stored as runs — consecutive vertex IDs in the analyzer's layout,
// repeats of one slot in a remapped one (a node's bits share one
// (fwd, bwd) pair) — so either form stays a small fraction of the
// vertex count. The layout is immutable once built.
type SummaryLayout struct {
	// step is the slot stride inside a run: 1 for the analyzer's
	// layout, 0 for a remapped one.
	step  int32
	fubs  []fubBits
	nodes []nodeBits
	// Design-wide bit counts (sums of the per-FUB counts).
	seqBits, nodeBits, loopBits, ctrlBits int
}

// SlotRun is N slot references in order: First, First+step, ... In the
// analyzer's layout (step 1) a run is the consecutive vertices
// [First, First+N); in a remapped one (step 0) it is N references to
// slot First.
type SlotRun struct{ First, N int32 }

// slotList is an ordered run-length list of value slots.
type slotList struct {
	runs []SlotRun
	n    int // total slots
}

// add appends slot s, extending the last run when s continues it.
func (sl *slotList) add(s, step int32) {
	if k := len(sl.runs) - 1; k >= 0 && sl.runs[k].First+sl.runs[k].N*step == s {
		sl.runs[k].N++
	} else {
		sl.runs = append(sl.runs, SlotRun{s, 1})
	}
	sl.n++
}

// trimmed returns the list with its runs copied to an exact-size slice,
// dropping append's growth slack from a layout that lives as long as
// its analyzer or plan.
func (sl slotList) trimmed() slotList {
	sl.runs = append([]SlotRun(nil), sl.runs...)
	return sl
}

// fubBits lists one FUB's statistic bits in vertex order.
type fubBits struct {
	name string
	// node covers every analyzable bit (combinational and sequential,
	// debug and constant bits excluded); seq its sequential subset.
	node, seq slotList
	// loop and ctrl count the loop-boundary and control-register
	// sequential bits.
	loop, ctrl int
}

// nodeBits lists one "fub/node" key's sequential bits in vertex order.
type nodeBits struct {
	key  string
	bits slotList
}

// SummaryLayout returns the analyzer's reduction layout over vertex IDs,
// built on first use and shared by every Result of this analyzer.
func (a *Analyzer) SummaryLayout() *SummaryLayout {
	a.layoutOnce.Do(func() { a.layout = a.buildLayout() })
	return a.layout
}

func (a *Analyzer) buildLayout() *SummaryLayout {
	g := a.G
	l := &SummaryLayout{step: 1, fubs: make([]fubBits, len(g.FubNames))}
	for i, name := range g.FubNames {
		l.fubs[i].name = name
	}
	keyIdx := make(map[string]int)
	// A node's bits are adjacent vertices, so the key of the previous
	// sequential bit is reused instead of rebuilding the string per bit.
	var prevNode *netlist.Node
	prevFub, prevKey := int32(-1), -1
	for v := range g.Verts {
		vx := &g.Verts[v]
		role := a.roles[v]
		isSeq := vx.Node.Kind == netlist.KindSeq
		if role != RoleDebug && role != RoleConst {
			fb := &l.fubs[vx.Fub]
			fb.node.add(int32(v), 1)
			if isSeq {
				fb.seq.add(int32(v), 1)
				if role == RoleLoop {
					fb.loop++
				}
				if role == RoleControl {
					fb.ctrl++
				}
			}
		}
		// Node averages cover every non-debug sequential bit, constant
		// ones included (IsSequentialBit).
		if !isSeq || role == RoleDebug {
			continue
		}
		if vx.Node != prevNode || vx.Fub != prevFub {
			key := g.FubNames[vx.Fub] + "/" + vx.Node.Name
			k, ok := keyIdx[key]
			if !ok {
				k = len(l.nodes)
				keyIdx[key] = k
				l.nodes = append(l.nodes, nodeBits{key: key})
			}
			prevNode, prevFub, prevKey = vx.Node, vx.Fub, k
		}
		l.nodes[prevKey].bits.add(int32(v), 1)
	}
	for i := range l.nodes {
		l.nodes[i].bits = l.nodes[i].bits.trimmed()
	}
	for i := range l.fubs {
		fb := &l.fubs[i]
		fb.node, fb.seq = fb.node.trimmed(), fb.seq.trimmed()
		l.seqBits += fb.seq.n
		l.nodeBits += fb.node.n
		l.loopBits += fb.loop
		l.ctrlBits += fb.ctrl
	}
	return l
}

// Remap returns a copy of the layout whose every slot s is replaced by
// slot[s]: with slot mapping each vertex to its row in another value
// table, the copy reduces that table exactly as the original reduces
// the per-vertex AVF vector, provided row slot[v] holds vertex v's AVF.
func (l *SummaryLayout) Remap(slot []int32) *SummaryLayout {
	// visit emits src's runs remapped through slot, in order.
	visit := func(src slotList, emit func(SlotRun)) {
		var cur SlotRun
		for _, r := range src.runs {
			for j := int32(0); j < r.N; j++ {
				s := slot[r.First+j*l.step]
				if cur.N > 0 && cur.First == s {
					cur.N++
					continue
				}
				if cur.N > 0 {
					emit(cur)
				}
				cur = SlotRun{s, 1}
			}
		}
		if cur.N > 0 {
			emit(cur)
		}
	}
	// Every remapped list is a window of one run buffer, sized by a
	// counting pass, so the copy costs a few allocations however many
	// nodes the design has.
	total := 0
	count := func(SlotRun) { total++ }
	for _, fb := range l.fubs {
		visit(fb.node, count)
		visit(fb.seq, count)
	}
	for _, nb := range l.nodes {
		visit(nb.bits, count)
	}
	runs := make([]SlotRun, 0, total)
	add := func(r SlotRun) { runs = append(runs, r) }
	remap := func(src slotList) slotList {
		lo := len(runs)
		visit(src, add)
		return slotList{runs: runs[lo:len(runs):len(runs)], n: src.n}
	}
	m := *l
	m.step = 0
	m.fubs = make([]fubBits, len(l.fubs))
	for i, fb := range l.fubs {
		fb.node, fb.seq = remap(fb.node), remap(fb.seq)
		m.fubs[i] = fb
	}
	m.nodes = make([]nodeBits, len(l.nodes))
	for i, nb := range l.nodes {
		m.nodes[i] = nodeBits{key: nb.key, bits: remap(nb.bits)}
	}
	return &m
}

// NumNodes returns the number of sequential "fub/node" keys: one per
// key a non-debug sequential bit carries (SeqAVFByNode's key set).
func (l *SummaryLayout) NumNodes() int { return len(l.nodes) }

// Node returns node k's "fub/node" key, its bit count, and its bits as
// runs in vertex order (see SlotRun). Nodes are numbered in order of
// their key's first sighting in vertex order. The runs alias the layout
// and are read-only.
func (l *SummaryLayout) Node(k int) (key string, bits int, runs []SlotRun) {
	nb := &l.nodes[k]
	return nb.key, nb.bits.n, nb.bits.runs
}

// sum adds the values of list's slots to acc lane by lane, in slot
// order. vals is slot-major and lane-minor: slot s's value in lane w is
// vals[s*lanes+w], lanes = len(acc).
func (l *SummaryLayout) sum(acc, vals []float64, list slotList) {
	lanes, step := len(acc), l.step
	if lanes == 1 {
		// The single-lane case (Result methods) skips the lane loop;
		// the adds and their order are the same.
		sum := acc[0]
		for _, r := range list.runs {
			for j := int32(0); j < r.N; j++ {
				sum += vals[r.First+j*step]
			}
		}
		acc[0] = sum
		return
	}
	for _, r := range list.runs {
		for j := int32(0); j < r.N; j++ {
			s := int(r.First+j*step) * lanes
			col := vals[s : s+lanes]
			col = col[:len(acc)]
			for w := range acc {
				acc[w] += col[w]
			}
		}
	}
}

// mean is a FubStats / SeqAVFByNode average: the slot-order sum over n
// bits divided by n (a set without bits keeps its zero sum).
func mean(sum float64, n int) float64 {
	if n > 0 {
		return sum / float64(n)
	}
	return sum
}

// fubStats reduces a single-lane value table to per-FUB statistics in
// FUB declaration order.
func (l *SummaryLayout) fubStats(vals []float64) []FubStat {
	out := make([]FubStat, len(l.fubs))
	var node, seq [1]float64
	for f := range l.fubs {
		fb := &l.fubs[f]
		node[0], seq[0] = 0, 0
		l.sum(node[:], vals, fb.node)
		l.sum(seq[:], vals, fb.seq)
		out[f] = FubStat{
			Fub:         fb.name,
			SeqBits:     fb.seq.n,
			NodeBits:    fb.node.n,
			AvgSeqAVF:   mean(seq[0], fb.seq.n),
			AvgNodeAVF:  mean(node[0], fb.node.n),
			LoopSeqBits: fb.loop,
			CtrlBits:    fb.ctrl,
		}
	}
	return out
}

// Summaries reduces every lane of vals (slot-major, len(out) lanes) to
// its design-wide summary: per-FUB means combined in FUB order, weighted
// by each FUB's bit counts. It fills the bit counts, the weighted AVFs
// and LoopSeqFraction; VisitedFraction, Iterations and Converged
// describe the solve, not the values, and are left to the caller.
func (l *SummaryLayout) Summaries(vals []float64, out []Summary) {
	lanes := len(out)
	if lanes == 0 {
		return
	}
	acc := make([]float64, 4*lanes)
	node, seq := acc[:lanes], acc[lanes:2*lanes]
	nodeSum, seqSum := acc[2*lanes:3*lanes], acc[3*lanes:]
	for f := range l.fubs {
		fb := &l.fubs[f]
		clear(node)
		clear(seq)
		l.sum(node, vals, fb.node)
		l.sum(seq, vals, fb.seq)
		ns, nn := fb.seq.n, fb.node.n
		for w := range out {
			seqSum[w] += mean(seq[w], ns) * float64(ns)
			nodeSum[w] += mean(node[w], nn) * float64(nn)
		}
	}
	for w := range out {
		s := Summary{
			SeqBits:     l.seqBits,
			NodeBits:    l.nodeBits,
			LoopSeqBits: l.loopBits,
			CtrlBits:    l.ctrlBits,
		}
		if s.SeqBits > 0 {
			s.WeightedSeqAVF = seqSum[w] / float64(s.SeqBits)
			s.LoopSeqFraction = float64(s.LoopSeqBits) / float64(s.SeqBits)
		}
		if s.NodeBits > 0 {
			s.WeightedNodeAVF = nodeSum[w] / float64(s.NodeBits)
		}
		out[w] = s
	}
}

// NodeAVFs reduces every lane of vals (slot-major, len(out) lanes) to
// its per-sequential-node average AVF, keyed by "fub/node". Each out[w]
// is replaced by a fresh map.
func (l *SummaryLayout) NodeAVFs(vals []float64, out []map[string]float64) {
	lanes := len(out)
	if lanes == 0 {
		return
	}
	for w := range out {
		out[w] = make(map[string]float64, len(l.nodes))
	}
	acc := make([]float64, lanes)
	for k := range l.nodes {
		nb := &l.nodes[k]
		clear(acc)
		l.sum(acc, vals, nb.bits)
		for w, m := range out {
			m[nb.key] = mean(acc[w], nb.bits.n)
		}
	}
}

// VisitedFraction returns the share of analyzable vertices (debug bits
// excluded) that visited marks as reached by a walk.
func (a *Analyzer) VisitedFraction(visited []bool) float64 {
	total, vis := 0, 0
	for v, ok := range visited {
		if a.roles[v] == RoleDebug {
			continue
		}
		total++
		if ok {
			vis++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(vis) / float64(total)
}
