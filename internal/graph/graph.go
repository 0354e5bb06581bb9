// Package graph extracts the bit-level node graph that SART walks from a
// flattened netlist (the paper's "node graph extracted from RTL").
//
// Every word-level netlist node expands to one vertex per bit. Edges follow
// the operator's bit-dependency class: elementwise operators connect bit i
// to bit i (with mux selects and register enables broadcasting), mixing
// operators (adders, comparators, shifts, decoders) connect every input bit
// to every output bit, and bit-routing operators (select/concat/constant
// shifts) connect the exact positions they route.
//
// The package also finds loops (Tarjan SCC) — the paper's Section 4.3
// challenge — and produces topological orders used by the propagation
// fixpoint, treating a caller-supplied set of vertices as cut points.
package graph

import (
	"fmt"

	"seqavf/internal/netlist"
)

// VertexID indexes a vertex within a Graph.
type VertexID int32

// Vertex is one bit of one flat netlist node.
type Vertex struct {
	Fub  int32 // index into Graph.FubNames
	Node *netlist.Node
	Bit  int32
	// InLoop marks membership in a non-trivial strongly connected
	// component (or a self-loop).
	InLoop bool
}

// Graph is the bit-level dependency graph of a flattened design.
//
// Vertices are FUB-contiguous, and within a FUB node-contiguous in node
// order. In every successor and predecessor row the intra-FUB edges
// (emitted from the FUB's nodes, in node order) precede the cross edges
// (emitted from the connects, in connect order): BuildFrom relies on it
// to copy a reused FUB's rows.
type Graph struct {
	Design   *netlist.FlatDesign
	FubNames []string
	Verts    []Vertex

	succOff, predOff []int32
	succs, preds     []VertexID

	// fubOff[f] is FUB f's first vertex (fubOff[len(FubNames)] is the
	// vertex count), and nodeOff[f][i] the first vertex of FUB f's node
	// i relative to fubOff[f] (nodeOff[f][len(nodes)] is the FUB's
	// vertex count). A reused FUB shares its prior's nodeOff row.
	fubOff  []VertexID
	nodeOff [][]int32
	// fubIndex maps FUB names to indices (the first FUB of a name).
	fubIndex map[string]int32
	// reused marks the FUBs whose rows BuildFrom copied from a prior.
	reused []bool

	// CrossEdges lists inter-FUB edges (from FUB output-port bits to FUB
	// input-port bits) — the FUBIO connections merged between relaxation
	// iterations in partitioned mode.
	CrossEdges []Edge

	// DrivenInputs marks FUB input-port vertices driven by a connect;
	// undriven input ports belong to the design boundary
	// pseudo-structure.
	DrivenInputs map[VertexID]bool
	// ConsumedOutputs marks FUB output-port vertices consumed by a
	// connect; unconsumed output ports sink into the boundary
	// pseudo-structure.
	ConsumedOutputs map[VertexID]bool
}

// Edge is a directed bit-level dependency.
type Edge struct {
	From, To VertexID
}

// Build extracts the bit graph from fd.
func Build(fd *netlist.FlatDesign) (*Graph, error) { return BuildFrom(fd, nil) }

// BuildFrom is Build reusing a prior version's graph: a FUB whose
// *FlatFub is the one prior holds under the same name has the same
// intra-FUB edges, so its rows are copied from prior, shifted to the
// FUB's new vertex offset, instead of being re-derived from its nodes.
// Cross edges, DrivenInputs, ConsumedOutputs, loop marking and the
// combinational-loop check are always computed over the whole design.
// prior may be nil; it is only read.
func BuildFrom(fd *netlist.FlatDesign, prior *Graph) (*Graph, error) {
	nf := len(fd.Fubs)
	g := &Graph{
		Design:   fd,
		FubNames: make([]string, nf),
		fubOff:   make([]VertexID, nf+1),
		nodeOff:  make([][]int32, nf),
		fubIndex: make(map[string]int32, nf),
		reused:   make([]bool, nf),
	}
	// from[f] is the prior FUB whose rows FUB f copies, or -1, and
	// newOf the inverse.
	from := make([]int32, nf)
	var newOf []int32
	if prior != nil {
		newOf = make([]int32, len(prior.FubNames))
		for i := range newOf {
			newOf[i] = -1
		}
	}
	for f, fub := range fd.Fubs {
		g.FubNames[f] = fub.Name
		if _, dup := g.fubIndex[fub.Name]; !dup {
			g.fubIndex[fub.Name] = int32(f)
		}
		from[f] = -1
		if prior != nil {
			if pf, ok := prior.fubIndex[fub.Name]; ok && prior.Design.Fubs[pf] == fub && newOf[pf] < 0 {
				from[f], newOf[pf] = pf, int32(f)
				g.reused[f] = true
				g.nodeOff[f] = prior.nodeOff[pf]
			}
		}
		if from[f] < 0 {
			off := make([]int32, len(fub.Nodes)+1)
			for i, n := range fub.Nodes {
				off[i+1] = off[i] + int32(n.Width)
			}
			g.nodeOff[f] = off
		}
		g.fubOff[f+1] = g.fubOff[f] + VertexID(g.nodeOff[f][len(fub.Nodes)])
	}
	nv := int(g.fubOff[nf])
	g.Verts = make([]Vertex, 0, nv)
	for fi, fub := range fd.Fubs {
		for _, n := range fub.Nodes {
			for b := 0; b < n.Width; b++ {
				g.Verts = append(g.Verts, Vertex{Fub: int32(fi), Node: n, Bit: int32(b)})
			}
		}
	}
	// Edges go straight into CSR form, with no intermediate edge list.
	// sNext/pNext first count each vertex's intra-FUB degrees: a copied
	// FUB's are its prior rows' lengths less their cross edges, a
	// rebuilt FUB's come from a counting pass over its nodes, with every
	// input resolved to its position in the FUB once. The cross edges are added on
	// top, the offsets summed, and a second pass fills the rows in the
	// same order, sNext/pNext now serving as write cursors.
	sNext := make([]int32, nv)
	pNext := make([]int32, nv)
	if prior != nil {
		for f, pf := range from {
			if pf < 0 {
				continue
			}
			at := g.fubOff[f]
			for pv := prior.fubOff[pf]; pv < prior.fubOff[pf+1]; pv, at = pv+1, at+1 {
				sNext[at] = prior.succOff[pv+1] - prior.succOff[pv]
				pNext[at] = prior.predOff[pv+1] - prior.predOff[pv]
			}
		}
		moved := func(pv VertexID) (VertexID, bool) {
			pf := prior.Verts[pv].Fub
			f := newOf[pf]
			if f < 0 {
				return 0, false
			}
			return pv - prior.fubOff[pf] + g.fubOff[f], true
		}
		for _, e := range prior.CrossEdges {
			if v, ok := moved(e.From); ok {
				sNext[v]--
			}
			if v, ok := moved(e.To); ok {
				pNext[v]--
			}
		}
	}
	count := func(from, to VertexID) {
		sNext[from]++
		pNext[to]++
	}
	// ins[f] holds rebuilt FUB f's resolved input positions, node by
	// node in input order.
	ins := make([][]int32, nf)
	for f, fub := range fd.Fubs {
		if from[f] >= 0 {
			continue
		}
		in, err := g.resolveInputs(f)
		if err != nil {
			return nil, err
		}
		ins[f] = in
		k := 0
		for i, n := range fub.Nodes {
			if k, err = g.nodeEdges(f, i, n, in, k, count); err != nil {
				return nil, err
			}
		}
	}
	g.DrivenInputs = make(map[VertexID]bool)
	g.ConsumedOutputs = make(map[VertexID]bool)
	for _, c := range fd.Connects {
		ff, okf := g.fubIndex[c.From.Fub]
		tf, okt := g.fubIndex[c.To.Fub]
		if !okf || !okt {
			return nil, fmt.Errorf("graph: connect references unknown FUB: %v -> %v", c.From, c.To)
		}
		fp, okf := fd.Fubs[ff].NodeIndex(c.From.Port)
		tp, okt := fd.Fubs[tf].NodeIndex(c.To.Port)
		if !okf || !okt || fd.Fubs[ff].Nodes[fp].Width != fd.Fubs[tf].Nodes[tp].Width {
			return nil, fmt.Errorf("graph: bad connect %v -> %v", c.From, c.To)
		}
		fb := g.fubOff[ff] + VertexID(g.nodeOff[ff][fp])
		tb := g.fubOff[tf] + VertexID(g.nodeOff[tf][tp])
		for b := 0; b < fd.Fubs[ff].Nodes[fp].Width; b++ {
			e := Edge{From: fb + VertexID(b), To: tb + VertexID(b)}
			g.CrossEdges = append(g.CrossEdges, e)
			g.DrivenInputs[e.To] = true
			g.ConsumedOutputs[e.From] = true
		}
	}
	g.succOff = make([]int32, nv+1)
	g.predOff = make([]int32, nv+1)
	copy(g.succOff[1:], sNext)
	copy(g.predOff[1:], pNext)
	for _, e := range g.CrossEdges {
		g.succOff[e.From+1]++
		g.predOff[e.To+1]++
	}
	for i := 0; i < nv; i++ {
		g.succOff[i+1] += g.succOff[i]
		g.predOff[i+1] += g.predOff[i]
	}
	g.succs = make([]VertexID, g.succOff[nv])
	g.preds = make([]VertexID, g.predOff[nv])
	fill := func(from, to VertexID) {
		g.succs[sNext[from]] = to
		sNext[from]++
		g.preds[pNext[to]] = from
		pNext[to]++
	}
	for f, fub := range fd.Fubs {
		lo, hi := g.fubOff[f], g.fubOff[f+1]
		if pf := from[f]; pf >= 0 {
			shift := lo - prior.fubOff[pf]
			for v := lo; v < hi; v++ {
				pv := v - shift
				sNext[v] = g.succOff[v] + copyShifted(g.succs[g.succOff[v]:], prior.succs[prior.succOff[pv]:][:sNext[v]], shift)
				pNext[v] = g.predOff[v] + copyShifted(g.preds[g.predOff[v]:], prior.preds[prior.predOff[pv]:][:pNext[v]], shift)
			}
			continue
		}
		copy(sNext[lo:hi], g.succOff[lo:hi])
		copy(pNext[lo:hi], g.predOff[lo:hi])
		k := 0
		for i, n := range fub.Nodes {
			// Cannot fail: the counting pass accepted every node.
			k, _ = g.nodeEdges(f, i, n, ins[f], k, fill)
		}
	}
	for _, e := range g.CrossEdges {
		fill(e.From, e.To)
	}
	g.markLoops()
	if err := g.checkCombLoops(); err != nil {
		return nil, err
	}
	return g, nil
}

// copyShifted copies src into dst adding shift to every vertex and
// returns len(src).
func copyShifted(dst, src []VertexID, shift VertexID) int32 {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = v + shift
	}
	return int32(len(src))
}

// resolveInputs returns the position in FUB f of every input of every
// node of FUB f, node by node in input order.
func (g *Graph) resolveInputs(f int) ([]int32, error) {
	fub := g.Design.Fubs[f]
	total := 0
	for _, n := range fub.Nodes {
		total += len(n.Inputs)
	}
	in := make([]int32, 0, total)
	for _, n := range fub.Nodes {
		for _, ref := range n.Inputs {
			p, ok := fub.NodeIndex(ref)
			if !ok {
				return nil, fmt.Errorf("graph: FUB %s node %s: unresolved input %q", fub.Name, n.Name, ref)
			}
			in = append(in, int32(p))
		}
	}
	return in, nil
}

// nodeEdges emits the in-edges of every bit of n, node i of FUB f.
// ins[k:] holds the positions of n's inputs in the FUB; it returns the
// index past them.
func (g *Graph) nodeEdges(f, i int, n *netlist.Node, ins []int32, k int, add func(from, to VertexID)) (int, error) {
	fub := g.Design.Fubs[f]
	base, off := g.fubOff[f], g.nodeOff[f]
	out := base + VertexID(off[i])
	pos := ins[k : k+len(n.Inputs)]
	in := func(i int) (VertexID, int) {
		p := pos[i]
		return base + VertexID(off[p]), fub.Nodes[p].Width
	}
	allToAll := func(i int) {
		ib, iw := in(i)
		for x := 0; x < iw; x++ {
			for y := 0; y < n.Width; y++ {
				add(ib+VertexID(x), out+VertexID(y))
			}
		}
	}
	elementwise := func(i int) {
		ib, _ := in(i)
		for b := 0; b < n.Width; b++ {
			add(ib+VertexID(b), out+VertexID(b))
		}
	}
	broadcast := func(i int) {
		ib, _ := in(i)
		for b := 0; b < n.Width; b++ {
			add(ib, out+VertexID(b))
		}
	}
	switch n.Kind {
	case netlist.KindInput, netlist.KindConst:
		// No intra-FUB edges; inputs gain edges from connects.
	case netlist.KindOutput:
		elementwise(0)
	case netlist.KindSeq:
		elementwise(0)
		if n.HasEnable() {
			broadcast(1)
			// An enabled register holds its value when the enable is low:
			// physically a recirculation mux. The self-edge makes the
			// retention explicit, so SART classifies the bit as a loop
			// boundary (§4's first assumption: data held for more than
			// one cycle cannot be reasoned about as a simple pipeline).
			for b := 0; b < n.Width; b++ {
				add(out+VertexID(b), out+VertexID(b))
			}
		}
	case netlist.KindStructRead:
		// Address/enable inputs feed the structure: they terminate at the
		// port vertices (every addr bit affects every data bit).
		for i := range n.Inputs {
			allToAll(i)
		}
	case netlist.KindStructWrite:
		// Data elementwise into the port's bit vertices (node width is a
		// placeholder 1; map data bit d to vertex min(d, width-1)).
		db, dw := in(0)
		for b := 0; b < dw; b++ {
			t := b
			if t >= n.Width {
				t = n.Width - 1
			}
			add(db+VertexID(b), out+VertexID(t))
		}
		for i := 1; i < len(n.Inputs); i++ {
			allToAll(i)
		}
	case netlist.KindComb:
		switch n.Op {
		case netlist.OpPass, netlist.OpNot:
			elementwise(0)
		case netlist.OpAnd, netlist.OpOr, netlist.OpXor:
			for i := range n.Inputs {
				elementwise(i)
			}
		case netlist.OpNand, netlist.OpNor, netlist.OpXnor:
			elementwise(0)
			elementwise(1)
		case netlist.OpMux:
			broadcast(0)
			elementwise(1)
			elementwise(2)
		case netlist.OpAdd, netlist.OpSub, netlist.OpMul, netlist.OpShl, netlist.OpShr,
			netlist.OpEq, netlist.OpNe, netlist.OpLt,
			netlist.OpRedAnd, netlist.OpRedOr, netlist.OpRedXor, netlist.OpDecode:
			for i := range n.Inputs {
				allToAll(i)
			}
		case netlist.OpSelect:
			ib, _ := in(0)
			for b := 0; b < n.Width; b++ {
				add(ib+VertexID(int64(b)+n.Param), out+VertexID(b))
			}
		case netlist.OpConcat:
			off := 0
			for i := range n.Inputs {
				ib, iw := in(i)
				for b := 0; b < iw; b++ {
					add(ib+VertexID(b), out+VertexID(off+b))
				}
				off += iw
			}
		case netlist.OpShlK:
			ib, _ := in(0)
			for b := int(n.Param); b < n.Width; b++ {
				add(ib+VertexID(b-int(n.Param)), out+VertexID(b))
			}
		case netlist.OpShrK:
			ib, _ := in(0)
			for b := 0; b < n.Width-int(n.Param); b++ {
				add(ib+VertexID(b+int(n.Param)), out+VertexID(b))
			}
		default:
			return k, fmt.Errorf("graph: FUB %s node %s: unsupported op %v", fub.Name, n.Name, n.Op)
		}
	default:
		return k, fmt.Errorf("graph: FUB %s node %s: unsupported kind %v", fub.Name, n.Name, n.Kind)
	}
	return k + len(n.Inputs), nil
}

// NumVerts returns the vertex count.
func (g *Graph) NumVerts() int { return len(g.Verts) }

// Succs returns v's out-neighbors. The slice aliases internal storage.
func (g *Graph) Succs(v VertexID) []VertexID { return g.succs[g.succOff[v]:g.succOff[v+1]] }

// Preds returns v's in-neighbors. The slice aliases internal storage.
func (g *Graph) Preds(v VertexID) []VertexID { return g.preds[g.predOff[v]:g.predOff[v+1]] }

// VertexBase returns the first vertex of node within fub and the node's
// width; ok is false if unknown.
func (g *Graph) VertexBase(fub, node string) (base VertexID, width int, ok bool) {
	f, ok := g.fubIndex[fub]
	if !ok {
		return 0, 0, false
	}
	ff := g.Design.Fubs[f]
	i, ok := ff.NodeIndex(node)
	if !ok {
		return 0, 0, false
	}
	return g.fubOff[f] + VertexID(g.nodeOff[f][i]), ff.Nodes[i].Width, true
}

// FubIndex returns the index of the FUB named name.
func (g *Graph) FubIndex(name string) (int, bool) {
	f, ok := g.fubIndex[name]
	return int(f), ok
}

// RowsReused reports whether BuildFrom copied FUB f's rows from its
// prior rather than deriving them from the FUB's nodes.
func (g *Graph) RowsReused(f int) bool { return g.reused[f] }

// Name returns a human-readable "fub/node[bit]" label for v.
func (g *Graph) Name(v VertexID) string {
	vx := &g.Verts[v]
	return fmt.Sprintf("%s/%s[%d]", g.FubNames[vx.Fub], vx.Node.Name, vx.Bit)
}

// markLoops runs iterative Tarjan SCC and sets InLoop on every vertex in a
// non-trivial component or with a self-edge.
func (g *Graph) markLoops() {
	n := len(g.Verts)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack, comp []VertexID
	next := int32(0)

	type frame struct {
		v  VertexID
		ei int32
	}
	var callStack []frame
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		callStack = append(callStack[:0], frame{v: VertexID(root)})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, VertexID(root))
		onStack[root] = true
		for len(callStack) > 0 {
			fr := &callStack[len(callStack)-1]
			v := fr.v
			ss := g.Succs(v)
			if int(fr.ei) < len(ss) {
				w := ss[fr.ei]
				fr.ei++
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{v: w})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// Pop.
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := callStack[len(callStack)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				// v is an SCC root; pop the component.
				comp = comp[:0]
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				if len(comp) > 1 {
					for _, w := range comp {
						g.Verts[w].InLoop = true
					}
				} else {
					// Self-loop check.
					w := comp[0]
					for _, s := range g.Succs(w) {
						if s == w {
							g.Verts[w].InLoop = true
							break
						}
					}
				}
			}
		}
	}
}

// checkCombLoops rejects cycles that contain no sequential element —
// invalid RTL that no loop-boundary cut can break.
func (g *Graph) checkCombLoops() error {
	// Within the loop-marked subgraph, cut all sequential vertices and
	// look for a remaining cycle among combinational loop members.
	n := len(g.Verts)
	state := make([]uint8, n) // 0 unvisited, 1 in progress, 2 done
	var stack []VertexID
	isCut := func(v VertexID) bool {
		k := g.Verts[v].Node.Kind
		return k == netlist.KindSeq || k == netlist.KindStructRead || k == netlist.KindStructWrite
	}
	for root := 0; root < n; root++ {
		v0 := VertexID(root)
		if !g.Verts[v0].InLoop || isCut(v0) || state[v0] != 0 {
			continue
		}
		// Iterative DFS with explicit post-processing.
		stack = append(stack[:0], v0)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			if state[v] == 0 {
				state[v] = 1
				for _, w := range g.Succs(v) {
					if !g.Verts[w].InLoop || isCut(w) {
						continue
					}
					if state[w] == 1 {
						return fmt.Errorf("graph: combinational loop through %s and %s", g.Name(v), g.Name(w))
					}
					if state[w] == 0 {
						stack = append(stack, w)
					}
				}
			} else {
				state[v] = 2
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// LoopSeqVertices returns all sequential vertices that belong to loops —
// the nodes that receive the injected loop-boundary pAVF.
func (g *Graph) LoopSeqVertices() []VertexID {
	var out []VertexID
	for i := range g.Verts {
		if g.Verts[i].InLoop && g.Verts[i].Node.Kind == netlist.KindSeq {
			out = append(out, VertexID(i))
		}
	}
	return out
}

// TopoOrder returns a topological order of all vertices for which
// fixed(v) is false. Fixed vertices hold precomputed values, so edges
// leaving them impose no ordering constraint and the vertices themselves
// are not ordered. It returns an error if a cycle remains among non-fixed
// vertices (i.e. the loop cut was incomplete).
func (g *Graph) TopoOrder(fixed func(VertexID) bool) ([]VertexID, error) {
	n := len(g.Verts)
	indeg := make([]int32, n)
	isFixed := make([]bool, n)
	for v := 0; v < n; v++ {
		isFixed[v] = fixed(VertexID(v))
	}
	free := 0
	for v := 0; v < n; v++ {
		if isFixed[v] {
			continue
		}
		free++
		for _, p := range g.Preds(VertexID(v)) {
			if !isFixed[p] {
				indeg[v]++
			}
		}
	}
	order := make([]VertexID, 0, free)
	queue := make([]VertexID, 0, free)
	for v := 0; v < n; v++ {
		if !isFixed[v] && indeg[v] == 0 {
			queue = append(queue, VertexID(v))
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, v)
		for _, w := range g.Succs(v) {
			if isFixed[w] {
				continue
			}
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != free {
		return nil, fmt.Errorf("graph: cycle remains among %d unordered vertices (loop cut incomplete)", free-len(order))
	}
	return order, nil
}

// FubOf returns the FUB index of v.
func (g *Graph) FubOf(v VertexID) int32 { return g.Verts[v].Fub }

// IsCross reports whether edge from->to crosses a FUB boundary.
func (g *Graph) IsCross(from, to VertexID) bool {
	return g.Verts[from].Fub != g.Verts[to].Fub
}
