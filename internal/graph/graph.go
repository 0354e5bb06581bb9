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
type Graph struct {
	Design   *netlist.FlatDesign
	FubNames []string
	Verts    []Vertex

	succOff, predOff []int32
	succs, preds     []VertexID

	// base maps "fub/node" to the node's first vertex; a node's bit b is
	// base + b.
	base map[string]VertexID

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
func Build(fd *netlist.FlatDesign) (*Graph, error) {
	g := &Graph{
		Design:          fd,
		base:            make(map[string]VertexID),
		DrivenInputs:    make(map[VertexID]bool),
		ConsumedOutputs: make(map[VertexID]bool),
	}
	// Create vertices, FUB-contiguous, in one allocation of the final
	// size.
	nv := 0
	for _, fub := range fd.Fubs {
		for _, n := range fub.Nodes {
			nv += n.Width
		}
	}
	g.Verts = make([]Vertex, 0, nv)
	g.FubNames = make([]string, 0, len(fd.Fubs))
	for fi, fub := range fd.Fubs {
		g.FubNames = append(g.FubNames, fub.Name)
		for _, n := range fub.Nodes {
			g.base[fub.Name+"/"+n.Name] = VertexID(len(g.Verts))
			for b := 0; b < n.Width; b++ {
				g.Verts = append(g.Verts, Vertex{Fub: int32(fi), Node: n, Bit: int32(b)})
			}
		}
	}
	// Edges go straight into CSR form, with no intermediate edge list:
	// a first pass over the emission order (every node's in-edges, FUB
	// by FUB, then the connects) counts each vertex's degrees, and a
	// second pass over the same order fills the rows.
	g.succOff = make([]int32, nv+1)
	g.predOff = make([]int32, nv+1)
	degree := func(from, to VertexID) {
		g.succOff[from+1]++
		g.predOff[to+1]++
	}
	for _, fub := range fd.Fubs {
		for _, n := range fub.Nodes {
			if err := g.nodeEdges(fub, n, degree); err != nil {
				return nil, err
			}
		}
	}
	// Inter-FUB connects.
	for _, c := range fd.Connects {
		fromFub := fd.Fub(c.From.Fub)
		toFub := fd.Fub(c.To.Fub)
		if fromFub == nil || toFub == nil {
			return nil, fmt.Errorf("graph: connect references unknown FUB: %v -> %v", c.From, c.To)
		}
		fn := fromFub.Node(c.From.Port)
		tn := toFub.Node(c.To.Port)
		if fn == nil || tn == nil || fn.Width != tn.Width {
			return nil, fmt.Errorf("graph: bad connect %v -> %v", c.From, c.To)
		}
		fb := g.base[c.From.Fub+"/"+c.From.Port]
		tb := g.base[c.To.Fub+"/"+c.To.Port]
		for b := 0; b < fn.Width; b++ {
			e := Edge{From: fb + VertexID(b), To: tb + VertexID(b)}
			g.CrossEdges = append(g.CrossEdges, e)
			g.DrivenInputs[e.To] = true
			g.ConsumedOutputs[e.From] = true
			degree(e.From, e.To)
		}
	}
	for i := 0; i < nv; i++ {
		g.succOff[i+1] += g.succOff[i]
		g.predOff[i+1] += g.predOff[i]
	}
	g.succs = make([]VertexID, g.succOff[nv])
	g.preds = make([]VertexID, g.predOff[nv])
	sNext := append([]int32(nil), g.succOff[:nv]...)
	pNext := append([]int32(nil), g.predOff[:nv]...)
	fill := func(from, to VertexID) {
		g.succs[sNext[from]] = to
		sNext[from]++
		g.preds[pNext[to]] = from
		pNext[to]++
	}
	for _, fub := range fd.Fubs {
		for _, n := range fub.Nodes {
			// Cannot fail: the counting pass accepted every node.
			_ = g.nodeEdges(fub, n, fill)
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

// nodeEdges emits the in-edges of every bit of n.
func (g *Graph) nodeEdges(fub *netlist.FlatFub, n *netlist.Node, add func(from, to VertexID)) error {
	out := g.base[fub.Name+"/"+n.Name]
	in := func(i int) (VertexID, int) {
		ref := n.Inputs[i]
		b := g.base[fub.Name+"/"+ref]
		return b, fub.Node(ref).Width
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
			return fmt.Errorf("graph: FUB %s node %s: unsupported op %v", fub.Name, n.Name, n.Op)
		}
	default:
		return fmt.Errorf("graph: FUB %s node %s: unsupported kind %v", fub.Name, n.Name, n.Kind)
	}
	return nil
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
	b, ok := g.base[fub+"/"+node]
	if !ok {
		return 0, 0, false
	}
	f := g.Design.Fub(fub)
	return b, f.Node(node).Width, true
}

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
