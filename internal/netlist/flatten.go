package netlist

import (
	"fmt"
	"maps"
)

// FlatFub is one fully flattened top-level FUB: all sub-module hierarchy
// expanded, every node carrying a module-local unique name. Instance
// boundary ports become OpPass combinational nodes, preserving the
// original signal names for reporting.
//
// Flatten and Clone build the name index Node and NodeIndex read; a FUB
// Flatten returns is read-only from then on, and may be shared by later
// design versions (FlattenFrom). Edit tooling works on a Clone and
// appends through AddNode.
type FlatFub struct {
	Name   string
	Module string
	Nodes  []*Node

	index map[string]int32 // node name -> position in Nodes
}

// AddNode appends n to the FUB, keeping the name index coherent.
func (f *FlatFub) AddNode(n *Node) {
	f.index[n.Name] = int32(len(f.Nodes))
	f.Nodes = append(f.Nodes, n)
}

// Node returns the flat node named name, or nil.
func (f *FlatFub) Node(name string) *Node {
	if i, ok := f.index[name]; ok {
		return f.Nodes[i]
	}
	return nil
}

// NodeIndex returns the position in Nodes of the node named name.
func (f *FlatFub) NodeIndex(name string) (int, bool) {
	i, ok := f.index[name]
	return int(i), ok
}

// FlatDesign is the flattened form of a Design, ready for graph
// extraction, simulation, and SART analysis.
type FlatDesign struct {
	Name       string
	Structures map[string]*Structure
	Fubs       []*FlatFub
	Connects   []Connect
}

// Clone returns a deep copy of the flat design, sharing only the
// immutable Structure definitions. Netlist-edit tooling (ECO flows, the
// edit-generator test harness) mutates the clone and rebuilds the graph
// while the original keeps serving.
func (fd *FlatDesign) Clone() *FlatDesign {
	out := &FlatDesign{
		Name:       fd.Name,
		Structures: fd.Structures,
		Connects:   append([]Connect(nil), fd.Connects...),
		Fubs:       make([]*FlatFub, len(fd.Fubs)),
	}
	for i, f := range fd.Fubs {
		nf := &FlatFub{Name: f.Name, Module: f.Module, Nodes: make([]*Node, len(f.Nodes)), index: maps.Clone(f.index)}
		for j, n := range f.Nodes {
			nf.Nodes[j] = cloneNode(n)
		}
		out.Fubs[i] = nf
	}
	return out
}

// Fub returns the flat FUB named name, or nil.
func (fd *FlatDesign) Fub(name string) *FlatFub {
	for _, f := range fd.Fubs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// NumNodes returns the total flat node count across all FUBs.
func (fd *FlatDesign) NumNodes() int {
	total := 0
	for _, f := range fd.Fubs {
		total += len(f.Nodes)
	}
	return total
}

// Flatten expands all module hierarchy, producing one FlatFub per top-level
// FUB instance. The design must already Validate.
//
// Expansion rules per instance I of sub-module S inside module M:
//   - every node n of (recursively flattened) S is cloned as "I/n";
//   - S's input port p becomes OpPass node "I/p" driven by M's bound signal;
//   - S's output port p bound to parent signal s becomes OpPass node "s"
//     driven by the (renamed) internal driver — so references in M resolve.
//
// Unbound sub-module outputs become dangling "I/p" pass nodes.
func Flatten(d *Design) (*FlatDesign, error) { return FlattenFrom(d, nil, nil) }

// FlattenFrom is Flatten reusing the flat FUBs of a prior version: prior
// is the parsed design priorFlat was flattened from. A FUB keeps
// priorFlat's *FlatFub of the same name when it instantiates the same
// module and every module of that module's instance closure is the same
// *Module in d as in prior — which ParseFrom guarantees only for
// byte-identical module text — so the flat nodes would come out equal.
// Everything else is flattened afresh. Either prior may be nil.
func FlattenFrom(d *Design, prior *Design, priorFlat *FlatDesign) (*FlatDesign, error) {
	// memo holds each module's flattened node templates: the module's
	// own nodes as parsed, then its instances' nodes renamed into it.
	// Every FUB clones the templates once, so no two FUBs share a node
	// (the analyzer keys loop terms by *Node).
	memo := make(map[string][]*Node)
	var flattenModule func(name string) ([]*Node, error)
	flattenModule = func(name string) ([]*Node, error) {
		if nodes, ok := memo[name]; ok {
			return nodes, nil
		}
		m, ok := d.Modules[name]
		if !ok {
			return nil, fmt.Errorf("netlist: flatten: undefined module %q", name)
		}
		out := m.Nodes
		if len(m.Insts) > 0 {
			out = append([]*Node(nil), m.Nodes...)
		}
		for _, inst := range m.Insts {
			subNodes, err := flattenModule(inst.Module)
			if err != nil {
				return nil, err
			}
			rename := func(sig string) string { return inst.Name + "/" + sig }
			for _, n := range subNodes {
				c := cloneNode(n)
				switch {
				case c.Kind == KindInput:
					bound := inst.Conns[c.Name]
					c.Kind = KindComb
					c.Op = OpPass
					c.Name = rename(c.Name)
					c.Inputs = []string{bound}
				case c.Kind == KindOutput:
					origName := c.Name
					c.Kind = KindComb
					c.Op = OpPass
					if bound, ok := inst.Conns[origName]; ok {
						c.Name = bound
					} else {
						c.Name = rename(origName)
					}
					c.Inputs = []string{rename(c.Inputs[0])}
				default:
					c.Name = rename(c.Name)
					for i, in := range c.Inputs {
						// Inputs referencing the sub-module's own input
						// ports resolve to the pass nodes created above.
						c.Inputs[i] = rename(in)
					}
				}
				out = append(out, c)
			}
		}
		memo[name] = out
		return out, nil
	}

	// reusable reports whether module name's whole instance closure is
	// pointer-identical in d and prior.
	same := make(map[string]bool)
	var reusable func(name string) bool
	reusable = func(name string) bool {
		if ok, seen := same[name]; seen {
			return ok
		}
		m := d.Modules[name]
		ok := m != nil && m == prior.Modules[name]
		for i := 0; ok && i < len(m.Insts); i++ {
			ok = reusable(m.Insts[i].Module)
		}
		same[name] = ok
		return ok
	}
	var priorFubs map[string]*FlatFub
	if prior != nil && priorFlat != nil {
		priorFubs = make(map[string]*FlatFub, len(priorFlat.Fubs))
		for _, f := range priorFlat.Fubs {
			priorFubs[f.Name] = f
		}
	}

	fd := &FlatDesign{
		Name:       d.Name,
		Structures: d.Structures,
		Connects:   append([]Connect(nil), d.Connects...),
		Fubs:       make([]*FlatFub, 0, len(d.Fubs)),
	}
	for _, fub := range d.Fubs {
		if pf := priorFubs[fub.Name]; pf != nil && pf.Module == fub.Module && reusable(fub.Module) {
			// At most once: two FUBs must never share nodes.
			delete(priorFubs, fub.Name)
			fd.Fubs = append(fd.Fubs, pf)
			continue
		}
		nodes, err := flattenModule(fub.Module)
		if err != nil {
			return nil, err
		}
		ff := &FlatFub{Name: fub.Name, Module: fub.Module, Nodes: make([]*Node, len(nodes))}
		for i, n := range nodes {
			ff.Nodes[i] = cloneNode(n)
		}
		if err := ff.indexNodes(); err != nil {
			return nil, err
		}
		fd.Fubs = append(fd.Fubs, ff)
	}
	return fd, nil
}

// cloneNode copies n, Inputs included.
func cloneNode(n *Node) *Node {
	c := *n
	c.Inputs = append([]string(nil), n.Inputs...)
	return &c
}

// indexNodes builds the FUB's name index and verifies that every node
// name is unique and every reference resolves.
func (f *FlatFub) indexNodes() error {
	f.index = make(map[string]int32, len(f.Nodes))
	for i, n := range f.Nodes {
		if _, dup := f.index[n.Name]; dup {
			return fmt.Errorf("netlist: flatten: FUB %s: duplicate flat node %q", f.Name, n.Name)
		}
		f.index[n.Name] = int32(i)
	}
	for _, n := range f.Nodes {
		for _, in := range n.Inputs {
			if _, ok := f.index[in]; !ok {
				return fmt.Errorf("netlist: flatten: FUB %s: node %s references unresolved signal %q", f.Name, n.Name, in)
			}
		}
	}
	return nil
}
