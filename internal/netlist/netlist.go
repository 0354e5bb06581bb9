// Package netlist defines the word-level RTL netlist representation that
// the SART tool flow consumes (the stand-in for the paper's EXLIF
// intermediate format, Section 5.1).
//
// A Design is a set of Modules. Module instances at the top level are FUBs
// (functional blocks) — the paper's natural partition boundary. Modules may
// instantiate sub-modules; Flatten removes all hierarchy, producing one
// flat node list per FUB, "a single model statement that represents the
// original FUB with all hierarchy removed".
//
// Nodes are word-level (1..64 bits). Sequential nodes model flops/latches;
// combinational nodes carry an operator; structure-port nodes bind signals
// to the read/write ports of ACE-modeled storage structures, which are the
// sources and sinks of pAVF walks.
package netlist

import (
	"fmt"
	"sort"
)

// Op enumerates combinational operators. Each op has an arity contract
// (checked by Validate) and a bit-dependency class used when the graph
// package expands word-level nodes to bit-level vertices.
type Op uint8

const (
	OpInvalid Op = iota
	// Elementwise: output bit i depends on bit i of every input.
	OpPass // 1 input
	OpNot  // 1 input
	OpAnd  // 2+ inputs
	OpOr   // 2+ inputs
	OpXor  // 2+ inputs
	OpNand // 2 inputs
	OpNor  // 2 inputs
	OpXnor // 2 inputs
	// OpMux: inputs [sel, a, b]; data elementwise, sel broadcasts to all
	// output bits. sel must be 1 bit wide.
	OpMux
	// Mixing: every output bit depends on every input bit.
	OpAdd // 2 inputs
	OpSub // 2 inputs
	OpMul // 2 inputs
	OpShl // 2 inputs (value, amount)
	OpShr // 2 inputs (value, amount)
	OpEq  // 2 inputs, width must be 1
	OpNe  // 2 inputs, width must be 1
	OpLt  // 2 inputs (unsigned), width must be 1
	// Reductions: 1 input, width must be 1; output depends on all bits.
	OpRedAnd
	OpRedOr
	OpRedXor
	// OpSelect extracts Width bits starting at bit Param of its single
	// input: output bit i depends on input bit Param+i.
	OpSelect
	// OpConcat concatenates inputs, first input in the low bits. Bit
	// positions are preserved.
	OpConcat
	// OpShlK / OpShrK shift by the constant Param; position-preserving.
	OpShlK
	OpShrK
	// OpDecode: 1 input; output bit i is (input == i). Every output bit
	// depends on every input bit. Width may exceed 2^inputWidth needs.
	OpDecode
)

var opNames = map[Op]string{
	OpPass: "pass", OpNot: "not", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpNand: "nand", OpNor: "nor", OpXnor: "xnor", OpMux: "mux",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpShl: "shl", OpShr: "shr",
	OpEq: "eq", OpNe: "ne", OpLt: "lt",
	OpRedAnd: "redand", OpRedOr: "redor", OpRedXor: "redxor",
	OpSelect: "select", OpConcat: "concat", OpShlK: "shlk", OpShrK: "shrk",
	OpDecode: "decode",
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, n := range opNames {
		m[n] = op
	}
	return m
}()

func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// OpFromName returns the operator named n, or OpInvalid.
func OpFromName(n string) Op { return opByName[n] }

// Elementwise reports whether the op maps input bit i to output bit i
// (with OpMux's select broadcasting).
func (o Op) Elementwise() bool {
	switch o {
	case OpPass, OpNot, OpAnd, OpOr, OpXor, OpNand, OpNor, OpXnor, OpMux:
		return true
	}
	return false
}

// Kind classifies a node.
type Kind uint8

const (
	KindInvalid Kind = iota
	KindInput        // module input port; no inputs inside the module
	KindOutput       // module output port; exactly one input (its driver)
	KindSeq          // flop/latch register; inputs [D] or [D, EN]
	KindComb         // combinational node with an Op
	KindConst        // constant; Param holds the value
	// KindStructRead is a structure read port: Inputs are address/enable
	// signals feeding the structure; the node's value is the data read.
	// pAVF walks treat it as a forward source (pAVF_R).
	KindStructRead
	// KindStructWrite is a structure write port: Inputs[0] is the data,
	// the rest address/enable signals. It is a sink; pAVF walks treat it
	// as a backward source (pAVF_W).
	KindStructWrite
)

var kindNames = map[Kind]string{
	KindInput: "input", KindOutput: "output", KindSeq: "seq",
	KindComb: "comb", KindConst: "const",
	KindStructRead: "sread", KindStructWrite: "swrite",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Class tags a node for SART's special handling.
type Class uint8

const (
	// ClassNone is ordinary functional logic.
	ClassNone Class = iota
	// ClassControl marks a configuration control register: SART assigns
	// pAVF_R = 100% and omits the walk up from its write side (§5.1).
	ClassControl
	// ClassDebug marks DFX/instrumentation logic that plays no role in
	// normal operation; it is stripped before analysis (§4, third
	// assumption) unless it can cause runtime errors.
	ClassDebug
	// ClassDebugLive marks debug control logic intentionally retained
	// because faults in it affect the product ("debug-mode enables").
	ClassDebugLive
)

var classNames = map[Class]string{
	ClassNone: "", ClassControl: "ctrl", ClassDebug: "dfx", ClassDebugLive: "dfxlive",
}

func (c Class) String() string { return classNames[c] }

// ClassFromName parses a class label; unknown labels return ClassNone
// with ok=false.
func ClassFromName(s string) (Class, bool) {
	for c, n := range classNames {
		if n == s {
			return c, true
		}
	}
	return ClassNone, false
}

// Node is one named signal-producing (or, for swrite/output, consuming)
// element of a module.
type Node struct {
	Name  string
	Kind  Kind
	Op    Op  // KindComb only
	Width int // 1..64 (bits of the produced signal; swrite uses data width)
	Param int64
	// Inputs name driver nodes within the same module (post-flatten) or
	// module input ports.
	Inputs []string
	// Struct and Port bind structure-port nodes to an ACE structure.
	Struct string
	Port   string
	// Clock optionally names the clock/enable domain; SART's control
	// register detection can key off it (e.g. "cfgclk").
	Clock string
	Class Class
	// Init is the reset value for sequential nodes.
	Init uint64
}

// HasEnable reports whether a sequential node has an enable input
// (Inputs[1]). Per §4, enabled sequentials behave as structures; the
// design generator maps them to ACE structures, but plain enabled flops
// are still legal here.
func (n *Node) HasEnable() bool { return n.Kind == KindSeq && len(n.Inputs) == 2 }

// Module is a named collection of nodes plus sub-instances. Create
// modules with Design.AddModule and append nodes with Add, which keep
// the name index Node reads; once parsed, a module is shared read-only
// by every design version whose text repeats it (see ParseFrom).
type Module struct {
	Name  string
	Nodes []*Node
	Insts []*Inst

	index map[string]*Node
}

// Inst is a sub-module instantiation. Conns binds the sub-module's ports:
// input ports map to parent signals driving them; output ports map to
// fresh parent-visible signal names exported by the instance.
type Inst struct {
	Name   string
	Module string
	Conns  map[string]string
}

// Node returns the node named name, or nil. With duplicate names (which
// Validate rejects) the last one added wins.
func (m *Module) Node(name string) *Node { return m.index[name] }

// Add appends a node (no validation; Validate checks the whole design).
func (m *Module) Add(n *Node) *Node {
	m.Nodes = append(m.Nodes, n)
	m.index[n.Name] = n
	return n
}

// Inputs returns the module's input port nodes in declaration order.
func (m *Module) Inputs() []*Node { return m.byKind(KindInput) }

// Outputs returns the module's output port nodes in declaration order.
func (m *Module) Outputs() []*Node { return m.byKind(KindOutput) }

func (m *Module) byKind(k Kind) []*Node {
	var out []*Node
	for _, n := range m.Nodes {
		if n.Kind == k {
			out = append(out, n)
		}
	}
	return out
}

// Protection describes a structure's error protection domain. The model
// follows end-to-end protection schemes (the paper's refs [10][11]): data
// is covered by the code from producer to consumer, so faults in
// sequentials whose traffic sinks exclusively into a protected structure
// are detected (parity -> DUE) or corrected (ECC -> DCE) rather than
// silently corrupting results.
type Protection uint8

const (
	// ProtNone leaves faults silent (SDC).
	ProtNone Protection = iota
	// ProtParity detects but cannot correct (DUE).
	ProtParity
	// ProtECC detects and corrects (DCE).
	ProtECC
)

var protNames = map[Protection]string{
	ProtNone: "", ProtParity: "parity", ProtECC: "ecc",
}

func (p Protection) String() string { return protNames[p] }

// ProtectionFromName parses a protection label.
func ProtectionFromName(s string) (Protection, bool) {
	for p, n := range protNames {
		if n == s {
			return p, true
		}
	}
	return ProtNone, false
}

// Structure declares an ACE-modeled storage structure (latch array,
// register file, queue, ...). The structure's own AVF comes from the ACE
// performance model, not from SART.
type Structure struct {
	Name    string
	Entries int
	Width   int
	Prot    Protection
}

// Bits returns the structure's total storage bit count.
func (s *Structure) Bits() int { return s.Entries * s.Width }

// FubInst is a top-level module instance — one FUB.
type FubInst struct {
	Name   string
	Module string
}

// Connect wires FUB ports together: To (an input port "fub.port") is
// driven by From (an output port "fub.port").
type Connect struct {
	From PortRef
	To   PortRef
}

// PortRef names a FUB port.
type PortRef struct {
	Fub  string
	Port string
}

func (p PortRef) String() string { return p.Fub + "." + p.Port }

// Design is a complete netlist: module library, declared structures, FUB
// instances and their interconnect. FUB input ports left undriven and
// output ports left unconsumed attach to the implicit boundary
// pseudo-structure (the paper's "circuits that lie outside of the RTL
// being analyzed").
type Design struct {
	Name       string
	Modules    map[string]*Module
	Structures map[string]*Structure
	Fubs       []FubInst
	Connects   []Connect
}

// NewDesign returns an empty design.
func NewDesign(name string) *Design {
	return &Design{
		Name:       name,
		Modules:    make(map[string]*Module),
		Structures: make(map[string]*Structure),
	}
}

// AddModule creates (or returns an existing) module named name.
func (d *Design) AddModule(name string) *Module {
	if m, ok := d.Modules[name]; ok {
		return m
	}
	m := &Module{Name: name, index: make(map[string]*Node)}
	d.Modules[name] = m
	return m
}

// AddStructure declares a structure.
func (d *Design) AddStructure(name string, entries, width int) *Structure {
	s := &Structure{Name: name, Entries: entries, Width: width}
	d.Structures[name] = s
	return s
}

// AddFub instantiates module as a top-level FUB named name.
func (d *Design) AddFub(name, module string) {
	d.Fubs = append(d.Fubs, FubInst{Name: name, Module: module})
}

// ConnectPorts wires fromFub.fromPort -> toFub.toPort.
func (d *Design) ConnectPorts(fromFub, fromPort, toFub, toPort string) {
	d.Connects = append(d.Connects, Connect{
		From: PortRef{Fub: fromFub, Port: fromPort},
		To:   PortRef{Fub: toFub, Port: toPort},
	})
}

// Fub returns the FUB instance named name, or nil.
func (d *Design) Fub(name string) *FubInst {
	for i := range d.Fubs {
		if d.Fubs[i].Name == name {
			return &d.Fubs[i]
		}
	}
	return nil
}

// SortedModuleNames returns module names in lexical order (stable output
// for serialization and reports).
func (d *Design) SortedModuleNames() []string {
	names := make([]string, 0, len(d.Modules))
	for n := range d.Modules {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SortedStructureNames returns structure names in lexical order.
func (d *Design) SortedStructureNames() []string {
	names := make([]string, 0, len(d.Structures))
	for n := range d.Structures {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
