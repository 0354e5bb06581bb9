package netlist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file implements the textual netlist format, our stand-in for the
// paper's EXLIF intermediate RTL files. The format is line based:
//
//	design <name>
//	structure <name> <entries> <width>
//	module <name>
//	  input  <name> <width>
//	  output <name> <width> = <driver>
//	  const  <name> <width> <value>
//	  seq    <name> <width> = <d> [en=<sig>] [init=<v>] [clock=<c>] [class=<cls>]
//	  comb   <name> <width> <op> <in>... [param=<k>]
//	  sread  <name> <width> <struct> <port> [<addr>...]
//	  swrite <name> <struct> <port> <data> [<addr>...]
//	  inst   <name> <module> <port>=<signal>...
//	endmodule
//	top <fub> <module>
//	connect <fub>.<port> -> <fub>.<port>
//
// '#' starts a comment; blank lines are ignored.

// maxLine bounds one line of netlist text, '\n' included: a longer line
// fails with bufio.ErrTooLong, as a bufio.Scanner with this buffer
// limit would.
const maxLine = 1 << 22

// Source is one parsed netlist text: the text, the design parsed from
// it, and where each module's definition sits in the text. It is the
// prior a later ParseFrom reuses modules from. A Source and its design
// are read-only once ParseFrom returns.
type Source struct {
	Design *Design

	text []byte
	// spans locates every module whose definition is self-contained:
	// its lines from "module" through "endmodule" (newline included)
	// hold only module-level statements, comments and blank lines.
	spans map[string]textSpan
}

// textSpan is a module definition's byte range in Source.text and the
// number of lines it spans.
type textSpan struct {
	start, end, lines int
}

// Parse reads a design in the textual format.
func Parse(r io.Reader) (*Design, error) {
	text, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	src, err := ParseFrom(text, nil)
	if err != nil {
		return nil, err
	}
	return src.Design, nil
}

// ParseFrom parses text, reusing prior's parsed module for every module
// whose definition is byte-identical to one in prior's text: the
// definition's lines are skipped rather than parsed, and the new design
// shares prior's *Module. Parsing the same bytes can only produce the
// same module, so the design and any error equal Parse's. prior may be
// nil. The returned Source keeps text; the caller must not modify it.
func ParseFrom(text []byte, prior *Source) (*Source, error) {
	src := &Source{text: text, spans: make(map[string]textSpan)}
	var priorSpans map[string]textSpan
	if prior != nil {
		priorSpans = prior.spans
	}
	var d *Design
	var cur *Module
	modStart, modLine, selfContained := 0, 0, false
	lineNo := 0
	fail := func(format string, args ...any) error {
		return fmt.Errorf("netlist: line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	for pos := 0; pos < len(text); {
		lineStart := pos
		raw := text[pos:]
		if i := bytes.IndexByte(raw, '\n'); i >= 0 {
			raw = raw[:i]
			pos += i + 1
		} else {
			pos = len(text)
		}
		if len(raw) >= maxLine {
			return nil, bufio.ErrTooLong
		}
		lineNo++
		if i := bytes.IndexByte(raw, '#'); i >= 0 {
			raw = raw[:i]
		}
		fields := strings.Fields(string(raw))
		if len(fields) == 0 {
			continue
		}
		kw, args := fields[0], fields[1:]
		if d == nil && kw != "design" {
			return nil, fail("file must start with a design line")
		}
		switch kw {
		case "design":
			if d != nil {
				return nil, fail("duplicate design line")
			}
			if len(args) != 1 {
				return nil, fail("design takes one name")
			}
			d = NewDesign(args[0])
		case "structure":
			selfContained = false
			if len(args) != 3 && len(args) != 4 {
				return nil, fail("structure takes name entries width [prot=...]")
			}
			entries, err1 := strconv.Atoi(args[1])
			width, err2 := strconv.Atoi(args[2])
			if err1 != nil || err2 != nil {
				return nil, fail("bad structure geometry %q %q", args[1], args[2])
			}
			st := d.AddStructure(args[0], entries, width)
			if len(args) == 4 {
				v, ok := strings.CutPrefix(args[3], "prot=")
				if !ok {
					return nil, fail("bad structure option %q", args[3])
				}
				p, ok := ProtectionFromName(v)
				if !ok {
					return nil, fail("unknown protection %q", v)
				}
				st.Prot = p
			}
		case "module":
			if cur != nil {
				return nil, fail("nested module")
			}
			if len(args) != 1 {
				return nil, fail("module takes one name")
			}
			name := args[0]
			if _, dup := d.Modules[name]; dup {
				return nil, fail("duplicate module %q", name)
			}
			if ps, ok := priorSpans[name]; ok {
				n := ps.end - ps.start
				if lineStart+n <= len(text) && bytes.Equal(text[lineStart:lineStart+n], prior.text[ps.start:ps.end]) {
					d.Modules[name] = prior.Design.Modules[name]
					src.spans[name] = textSpan{start: lineStart, end: lineStart + n, lines: ps.lines}
					pos = lineStart + n
					lineNo += ps.lines - 1
					continue
				}
			}
			cur = d.AddModule(name)
			modStart, modLine, selfContained = lineStart, lineNo, true
		case "endmodule":
			if cur == nil {
				return nil, fail("endmodule outside module")
			}
			if selfContained && text[pos-1] == '\n' {
				src.spans[cur.Name] = textSpan{start: modStart, end: pos, lines: lineNo - modLine + 1}
			}
			cur = nil
		case "top":
			selfContained = false
			if len(args) != 2 {
				return nil, fail("top takes fub module")
			}
			d.AddFub(args[0], args[1])
		case "connect":
			selfContained = false
			if len(args) != 3 || args[1] != "->" {
				return nil, fail("connect takes <fub>.<port> -> <fub>.<port>")
			}
			from, err1 := parsePortRef(args[0])
			to, err2 := parsePortRef(args[2])
			if err1 != nil {
				return nil, fail("%v", err1)
			}
			if err2 != nil {
				return nil, fail("%v", err2)
			}
			d.Connects = append(d.Connects, Connect{From: from, To: to})
		default:
			if cur == nil {
				return nil, fail("%q outside module", kw)
			}
			if err := parseModuleLine(cur, kw, args); err != nil {
				return nil, fail("%v", err)
			}
		}
	}
	if d == nil {
		return nil, fmt.Errorf("netlist: empty input")
	}
	if cur != nil {
		return nil, fmt.Errorf("netlist: unterminated module %q", cur.Name)
	}
	src.Design = d
	return src, nil
}

func parsePortRef(s string) (PortRef, error) {
	i := strings.IndexByte(s, '.')
	if i <= 0 || i == len(s)-1 {
		return PortRef{}, fmt.Errorf("bad port reference %q", s)
	}
	return PortRef{Fub: s[:i], Port: s[i+1:]}, nil
}

func parseModuleLine(m *Module, kw string, args []string) error {
	switch kw {
	case "input":
		if len(args) != 2 {
			return fmt.Errorf("input takes name width")
		}
		w, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("bad width %q", args[1])
		}
		m.Add(&Node{Name: args[0], Kind: KindInput, Width: w})
	case "output":
		if len(args) != 4 || args[2] != "=" {
			return fmt.Errorf("output takes name width = driver")
		}
		w, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("bad width %q", args[1])
		}
		m.Add(&Node{Name: args[0], Kind: KindOutput, Width: w, Inputs: []string{args[3]}})
	case "const":
		if len(args) != 3 {
			return fmt.Errorf("const takes name width value")
		}
		w, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("bad width %q", args[1])
		}
		v, err := strconv.ParseUint(args[2], 0, 64)
		if err != nil {
			return fmt.Errorf("bad const value %q", args[2])
		}
		m.Add(&Node{Name: args[0], Kind: KindConst, Width: w, Param: int64(v)})
	case "seq":
		if len(args) < 4 || args[2] != "=" {
			return fmt.Errorf("seq takes name width = d [options]")
		}
		w, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("bad width %q", args[1])
		}
		n := &Node{Name: args[0], Kind: KindSeq, Width: w, Inputs: []string{args[3]}}
		for _, opt := range args[4:] {
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return fmt.Errorf("bad seq option %q", opt)
			}
			switch k {
			case "en":
				n.Inputs = append(n.Inputs, v)
			case "init":
				iv, err := strconv.ParseUint(v, 0, 64)
				if err != nil {
					return fmt.Errorf("bad init %q", v)
				}
				n.Init = iv
			case "clock":
				n.Clock = v
			case "class":
				c, ok := ClassFromName(v)
				if !ok {
					return fmt.Errorf("unknown class %q", v)
				}
				n.Class = c
			default:
				return fmt.Errorf("unknown seq option %q", k)
			}
		}
		m.Add(n)
	case "comb":
		if len(args) < 3 {
			return fmt.Errorf("comb takes name width op inputs...")
		}
		w, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("bad width %q", args[1])
		}
		op := OpFromName(args[2])
		if op == OpInvalid {
			return fmt.Errorf("unknown op %q", args[2])
		}
		n := &Node{Name: args[0], Kind: KindComb, Op: op, Width: w}
		for _, a := range args[3:] {
			if v, ok := strings.CutPrefix(a, "param="); ok {
				p, err := strconv.ParseInt(v, 0, 64)
				if err != nil {
					return fmt.Errorf("bad param %q", v)
				}
				n.Param = p
				continue
			}
			n.Inputs = append(n.Inputs, a)
		}
		m.Add(n)
	case "sread":
		if len(args) < 4 {
			return fmt.Errorf("sread takes name width struct port [addrs...]")
		}
		w, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("bad width %q", args[1])
		}
		m.Add(&Node{
			Name: args[0], Kind: KindStructRead, Width: w,
			Struct: args[2], Port: args[3], Inputs: append([]string(nil), args[4:]...),
		})
	case "swrite":
		if len(args) < 4 {
			return fmt.Errorf("swrite takes name struct port data [addrs...]")
		}
		m.Add(&Node{
			Name: args[0], Kind: KindStructWrite, Width: 1,
			Struct: args[1], Port: args[2], Inputs: append([]string(nil), args[3:]...),
		})
	case "inst":
		if len(args) < 2 {
			return fmt.Errorf("inst takes name module [port=signal...]")
		}
		inst := &Inst{Name: args[0], Module: args[1], Conns: make(map[string]string)}
		for _, a := range args[2:] {
			p, s, ok := strings.Cut(a, "=")
			if !ok {
				return fmt.Errorf("bad binding %q", a)
			}
			inst.Conns[p] = s
		}
		m.Insts = append(m.Insts, inst)
	default:
		return fmt.Errorf("unknown keyword %q", kw)
	}
	return nil
}

// Write serializes d in the textual format. Output is deterministic:
// modules and structures appear in lexical order, nodes in declaration
// order.
func Write(w io.Writer, d *Design) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "design %s\n", d.Name)
	for _, name := range d.SortedStructureNames() {
		s := d.Structures[name]
		fmt.Fprintf(bw, "structure %s %d %d", s.Name, s.Entries, s.Width)
		if s.Prot != ProtNone {
			fmt.Fprintf(bw, " prot=%s", s.Prot)
		}
		fmt.Fprintln(bw)
	}
	for _, name := range d.SortedModuleNames() {
		m := d.Modules[name]
		fmt.Fprintf(bw, "module %s\n", m.Name)
		for _, n := range m.Nodes {
			writeNode(bw, n)
		}
		for _, inst := range m.Insts {
			fmt.Fprintf(bw, "  inst %s %s", inst.Name, inst.Module)
			ports := make([]string, 0, len(inst.Conns))
			for p := range inst.Conns {
				ports = append(ports, p)
			}
			sort.Strings(ports)
			for _, p := range ports {
				fmt.Fprintf(bw, " %s=%s", p, inst.Conns[p])
			}
			fmt.Fprintln(bw)
		}
		fmt.Fprintln(bw, "endmodule")
	}
	for _, f := range d.Fubs {
		fmt.Fprintf(bw, "top %s %s\n", f.Name, f.Module)
	}
	for _, c := range d.Connects {
		fmt.Fprintf(bw, "connect %s -> %s\n", c.From, c.To)
	}
	return bw.Flush()
}

func writeNode(w io.Writer, n *Node) {
	switch n.Kind {
	case KindInput:
		fmt.Fprintf(w, "  input %s %d\n", n.Name, n.Width)
	case KindOutput:
		fmt.Fprintf(w, "  output %s %d = %s\n", n.Name, n.Width, n.Inputs[0])
	case KindConst:
		fmt.Fprintf(w, "  const %s %d %d\n", n.Name, n.Width, uint64(n.Param))
	case KindSeq:
		fmt.Fprintf(w, "  seq %s %d = %s", n.Name, n.Width, n.Inputs[0])
		if len(n.Inputs) == 2 {
			fmt.Fprintf(w, " en=%s", n.Inputs[1])
		}
		if n.Init != 0 {
			fmt.Fprintf(w, " init=%d", n.Init)
		}
		if n.Clock != "" {
			fmt.Fprintf(w, " clock=%s", n.Clock)
		}
		if n.Class != ClassNone {
			fmt.Fprintf(w, " class=%s", n.Class)
		}
		fmt.Fprintln(w)
	case KindComb:
		fmt.Fprintf(w, "  comb %s %d %s", n.Name, n.Width, n.Op)
		for _, in := range n.Inputs {
			fmt.Fprintf(w, " %s", in)
		}
		if n.Param != 0 {
			fmt.Fprintf(w, " param=%d", n.Param)
		}
		fmt.Fprintln(w)
	case KindStructRead:
		fmt.Fprintf(w, "  sread %s %d %s %s", n.Name, n.Width, n.Struct, n.Port)
		for _, in := range n.Inputs {
			fmt.Fprintf(w, " %s", in)
		}
		fmt.Fprintln(w)
	case KindStructWrite:
		fmt.Fprintf(w, "  swrite %s %s %s", n.Name, n.Struct, n.Port)
		for _, in := range n.Inputs {
			fmt.Fprintf(w, " %s", in)
		}
		fmt.Fprintln(w)
	}
}
