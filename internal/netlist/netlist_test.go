package netlist

import (
	"strings"
	"testing"
)

// buildSmallDesign constructs a two-FUB design with a sub-module, one
// structure, a control register and a loop, exercising most node kinds.
func buildSmallDesign(t testing.TB) *Design {
	t.Helper()
	d := NewDesign("small")
	d.AddStructure("RF", 16, 32)

	// Sub-module: a registered adder.
	addm := d.AddModule("addreg")
	ab := Build(addm)
	a := ab.In("a", 32)
	bIn := ab.In("b", 32)
	sum := ab.C("sum", 32, OpAdd, a, bIn)
	ab.Out("q", 32, ab.Seq("r", 32, sum))

	// FUB 1: reads the structure, pipes through the sub-module.
	front := d.AddModule("front")
	fb := Build(front)
	idx := fb.In("idx", 4)
	data := fb.SRead("rf_rd", 32, "RF", "rd0", idx)
	fb.Inst("u_add", "addreg", map[string]string{"a": data, "b": data, "q": "addq"})
	fb.Out("to_back", 32, fb.Seq("stage", 32, "addq"))

	// FUB 2: control register, a loop, a structure write.
	back := d.AddModule("back")
	bb := Build(back)
	in := bb.In("from_front", 32)
	cfg := bb.CtrlReg("cfg_mode", 32, "cfg_mode", 1)
	masked := bb.C("masked", 32, OpAnd, in, cfg)
	// Feedback loop: counter via self-add.
	one := bb.Const("one", 8, 1)
	cnt := bb.M.Add(&Node{Name: "count", Kind: KindSeq, Width: 8, Inputs: []string{"cnt_next"}})
	_ = cnt
	bb.C("cnt_next", 8, OpAdd, "count", one)
	bb.SWrite("rf_wr", "RF", "wr0", masked)
	bb.Out("obs", 8, "count")

	d.AddFub("FRONT", "front")
	d.AddFub("BACK", "back")
	d.ConnectPorts("FRONT", "to_back", "BACK", "from_front")
	return d
}

func TestValidateGoodDesign(t *testing.T) {
	d := buildSmallDesign(t)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(d *Design)
		want   string
	}{
		{"undefined input ref", func(d *Design) {
			m := d.Modules["back"]
			m.Node("masked").Inputs[0] = "nonesuch"
		}, "undefined signal"},
		{"duplicate node", func(d *Design) {
			m := d.Modules["back"]
			m.Add(&Node{Name: "masked", Kind: KindConst, Width: 1})
		}, "duplicate node"},
		{"bad width", func(d *Design) {
			d.Modules["back"].Node("one").Width = 99
		}, "width 99 out of range"},
		{"mux select width", func(d *Design) {
			m := d.Modules["front"]
			Build(m).Mux("m0", 32, "idx", "rf_rd", "rf_rd")
		}, "mux select width"},
		{"unknown structure", func(d *Design) {
			d.Modules["front"].Node("rf_rd").Struct = "NOPE"
		}, "unknown structure"},
		{"recursive module", func(d *Design) {
			m := d.Modules["addreg"]
			m.Insts = append(m.Insts, &Inst{Name: "self", Module: "addreg", Conns: map[string]string{"a": "a", "b": "b"}})
		}, "recursive instantiation"},
		{"unbound inst input", func(d *Design) {
			m := d.Modules["front"]
			delete(m.Insts[0].Conns, "b")
		}, "unbound"},
		{"fub of undefined module", func(d *Design) {
			d.AddFub("X", "ghost")
		}, "undefined module"},
		{"connect width mismatch", func(d *Design) {
			d.Connects[0].To = PortRef{Fub: "BACK", Port: "from_front"}
			d.Modules["back"].Node("from_front").Width = 8
			d.Modules["back"].Node("masked").Inputs = []string{"cfg_mode", "cfg_mode"}
		}, "width mismatch"},
		{"input driven twice", func(d *Design) {
			d.ConnectPorts("FRONT", "to_back", "BACK", "from_front")
		}, "driven twice"},
		{"connect from input port", func(d *Design) {
			d.ConnectPorts("FRONT", "idx", "BACK", "from_front")
		}, "not an output port"},
		{"struct port reuse", func(d *Design) {
			Build(d.Modules["front"]).SRead("rf_rd2", 32, "RF", "rd0", "idx")
		}, "used by both"},
		{"eq width", func(d *Design) {
			m := d.Modules["front"]
			Build(m).C("cmp", 2, OpEq, "rf_rd", "rf_rd")
		}, "output width 2 != 1"},
		{"select out of range", func(d *Design) {
			m := d.Modules["front"]
			Build(m).Select("sel0", 8, "idx", 2)
		}, "out of input width"},
		{"concat width sum", func(d *Design) {
			m := d.Modules["front"]
			Build(m).C("cc", 10, OpConcat, "idx", "idx")
		}, "sum to 8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := buildSmallDesign(t)
			tc.mutate(d)
			err := d.Validate()
			if err == nil {
				t.Fatalf("Validate accepted bad design (%s)", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestStructModuleInstantiatedTwice(t *testing.T) {
	d := NewDesign("dup")
	d.AddStructure("Q", 4, 8)
	sub := d.AddModule("reader")
	sb := Build(sub)
	sb.Out("q", 8, sb.SRead("rd", 8, "Q", "r0"))
	top := d.AddModule("top")
	tb := Build(top)
	tb.Inst("u1", "reader", map[string]string{"q": "q1"})
	tb.Inst("u2", "reader", map[string]string{"q": "q2"})
	tb.Out("o", 8, tb.C("x", 8, OpXor, "q1", "q2"))
	d.AddFub("T", "top")
	err := d.Validate()
	if err == nil || !strings.Contains(err.Error(), "instantiated 2 times") {
		t.Fatalf("want struct-module reuse error, got %v", err)
	}
}

func TestFlattenSmallDesign(t *testing.T) {
	d := buildSmallDesign(t)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	fd, err := Flatten(d)
	if err != nil {
		t.Fatalf("Flatten: %v", err)
	}
	if len(fd.Fubs) != 2 {
		t.Fatalf("got %d FUBs", len(fd.Fubs))
	}
	front := fd.Fub("FRONT")
	if front == nil {
		t.Fatal("FRONT missing")
	}
	// The sub-module register must exist with instance-prefixed name.
	r := front.Node("u_add/r")
	if r == nil || r.Kind != KindSeq {
		t.Fatalf("u_add/r not flattened correctly: %+v", r)
	}
	// The instance output is exported under the bound name.
	q := front.Node("addq")
	if q == nil || q.Kind != KindComb || q.Op != OpPass {
		t.Fatalf("bound output addq wrong: %+v", q)
	}
	if q.Inputs[0] != "u_add/r" {
		t.Fatalf("addq driven by %q", q.Inputs[0])
	}
	// Instance input ports became pass nodes bound to parent signals.
	ain := front.Node("u_add/a")
	if ain == nil || ain.Op != OpPass || ain.Inputs[0] != "rf_rd" {
		t.Fatalf("u_add/a wrong: %+v", ain)
	}
	// Every flat reference resolves (checkFlat ran inside Flatten).
	if fd.NumNodes() == 0 {
		t.Fatal("no nodes")
	}
}

func TestFlattenNestedHierarchy(t *testing.T) {
	d := NewDesign("nested")
	leaf := d.AddModule("leaf")
	lb := Build(leaf)
	lb.Out("y", 8, lb.C("inv", 8, OpNot, lb.In("x", 8)))
	mid := d.AddModule("mid")
	mb := Build(mid)
	mb.In("x", 8)
	mb.Inst("u_leaf", "leaf", map[string]string{"x": "x", "y": "ly"})
	mb.Out("y", 8, mb.Seq("r", 8, "ly"))
	top := d.AddModule("top")
	tb := Build(top)
	tb.In("x", 8)
	tb.Inst("u_mid", "mid", map[string]string{"x": "x", "y": "my"})
	tb.Out("y", 8, "my")
	d.AddFub("T", "top")
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	fd, err := Flatten(d)
	if err != nil {
		t.Fatalf("Flatten: %v", err)
	}
	f := fd.Fub("T")
	inv := f.Node("u_mid/u_leaf/inv")
	if inv == nil || inv.Op != OpNot {
		t.Fatalf("nested leaf node missing; have %v", names(f))
	}
	if got := inv.Inputs[0]; got != "u_mid/u_leaf/x" {
		t.Fatalf("nested input = %q", got)
	}
	lx := f.Node("u_mid/u_leaf/x")
	if lx == nil || lx.Op != OpPass || lx.Inputs[0] != "u_mid/x" {
		t.Fatalf("leaf input pass wrong: %+v", lx)
	}
}

func names(f *FlatFub) []string {
	var out []string
	for _, n := range f.Nodes {
		out = append(out, n.Name)
	}
	return out
}

func TestTextRoundTrip(t *testing.T) {
	d := buildSmallDesign(t)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	var buf strings.Builder
	if err := Write(&buf, d); err != nil {
		t.Fatalf("Write: %v", err)
	}
	d2, err := Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("Parse: %v\ninput:\n%s", err, buf.String())
	}
	if err := d2.Validate(); err != nil {
		t.Fatalf("re-Validate: %v", err)
	}
	var buf2 strings.Builder
	if err := Write(&buf2, d2); err != nil {
		t.Fatalf("Write2: %v", err)
	}
	if buf.String() != buf2.String() {
		t.Fatalf("round trip not stable:\n--- first\n%s\n--- second\n%s", buf.String(), buf2.String())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"no design", "module m\nendmodule\n", "must start with a design"},
		{"dup design", "design a\ndesign b\n", "duplicate design"},
		{"bad structure", "design a\nstructure S x 8\n", "bad structure"},
		{"nested module", "design a\nmodule m\nmodule n\n", "nested module"},
		{"stray endmodule", "design a\nendmodule\n", "outside module"},
		{"unknown op", "design a\nmodule m\ncomb x 8 frob y\nendmodule\n", "unknown op"},
		{"node outside module", "design a\nseq r 8 = d\n", "outside module"},
		{"bad connect", "design a\nconnect A.x B.y\n", "connect takes"},
		{"bad portref", "design a\nconnect Ax -> B.y\n", "bad port reference"},
		{"unterminated", "design a\nmodule m\n", "unterminated module"},
		{"empty", "", "empty input"},
		{"bad seq option", "design a\nmodule m\nseq r 8 = d frotz\nendmodule\n", "bad seq option"},
		{"unknown class", "design a\nmodule m\nseq r 8 = d class=zap\nendmodule\n", "unknown class"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("Parse accepted bad input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestParseComments(t *testing.T) {
	in := `
# a comment
design demo   # trailing comment
structure RF 4 8
module m
  input a 8
  output y 8 = r   # pipeline it
  seq r 8 = a init=3 clock=clk class=ctrl
endmodule
top M m
`
	d, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	n := d.Modules["m"].Node("r")
	if n.Init != 3 || n.Clock != "clk" || n.Class != ClassControl {
		t.Fatalf("seq options wrong: %+v", n)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuilderPipe(t *testing.T) {
	d := NewDesign("p")
	m := d.AddModule("m")
	b := Build(m)
	in := b.In("x", 16)
	last := b.Pipe("st", 16, 3, in)
	if last != "st_3" {
		t.Fatalf("Pipe returned %q", last)
	}
	b.Out("y", 16, last)
	d.AddFub("P", "m")
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if m.Node("st_1") == nil || m.Node("st_2") == nil {
		t.Fatal("intermediate stages missing")
	}
	if m.Node("st_2").Inputs[0] != "st_1" {
		t.Fatal("pipe not chained")
	}
}

func TestOpClassification(t *testing.T) {
	if !OpMux.Elementwise() || !OpPass.Elementwise() || !OpXor.Elementwise() {
		t.Fatal("elementwise ops misclassified")
	}
	if OpAdd.Elementwise() || OpSelect.Elementwise() || OpDecode.Elementwise() {
		t.Fatal("mixing ops misclassified")
	}
	if OpFromName("add") != OpAdd || OpFromName("nope") != OpInvalid {
		t.Fatal("OpFromName wrong")
	}
	if OpAdd.String() != "add" {
		t.Fatal("Op.String wrong")
	}
}

func TestStructureBits(t *testing.T) {
	s := &Structure{Name: "S", Entries: 16, Width: 32}
	if s.Bits() != 512 {
		t.Fatalf("Bits = %d", s.Bits())
	}
}

func TestHasEnable(t *testing.T) {
	n := &Node{Kind: KindSeq, Inputs: []string{"d", "en"}}
	if !n.HasEnable() {
		t.Fatal("HasEnable false for enabled seq")
	}
	n2 := &Node{Kind: KindSeq, Inputs: []string{"d"}}
	if n2.HasEnable() {
		t.Fatal("HasEnable true for plain seq")
	}
}

func TestProtectionRoundTrip(t *testing.T) {
	d := NewDesign("prot")
	d.AddStructure("P", 4, 8).Prot = ProtParity
	d.AddStructure("E", 4, 8).Prot = ProtECC
	d.AddStructure("N", 4, 8)
	m := d.AddModule("m")
	b := Build(m)
	b.SWrite("w1", "P", "w", b.SRead("r1", 8, "N", "r"))
	b.SWrite("w2", "E", "w", "r1")
	d.AddFub("F", "m")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "prot=parity") || !strings.Contains(sb.String(), "prot=ecc") {
		t.Fatalf("protection not serialized:\n%s", sb.String())
	}
	d2, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Structures["P"].Prot != ProtParity || d2.Structures["E"].Prot != ProtECC ||
		d2.Structures["N"].Prot != ProtNone {
		t.Fatal("protection not parsed")
	}
	if _, err := Parse(strings.NewReader("design d\nstructure X 2 2 prot=zap\n")); err == nil {
		t.Fatal("bad protection accepted")
	}
	if _, err := Parse(strings.NewReader("design d\nstructure X 2 2 frotz\n")); err == nil {
		t.Fatal("bad structure option accepted")
	}
}

func TestNameConstraints(t *testing.T) {
	d := NewDesign("dots")
	d.AddStructure("a.b", 2, 2)
	m := d.AddModule("m")
	b := Build(m)
	b.Out("o", 2, b.SRead("r", 2, "a.b", "p"))
	d.AddFub("F", "m")
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "must not contain") {
		t.Fatalf("dotted structure name accepted: %v", err)
	}
	d2 := NewDesign("fubdot")
	m2 := d2.AddModule("m")
	b2 := Build(m2)
	b2.Out("o", 2, b2.Seq("r", 2, b2.In("i", 2)))
	d2.AddFub("F.0", "m")
	if err := d2.Validate(); err == nil || !strings.Contains(err.Error(), "must not contain") {
		t.Fatalf("dotted FUB name accepted: %v", err)
	}
}

func TestClassAndProtectionNames(t *testing.T) {
	for _, c := range []Class{ClassNone, ClassControl, ClassDebug, ClassDebugLive} {
		got, ok := ClassFromName(c.String())
		if !ok || got != c {
			t.Fatalf("class %v did not round trip", c)
		}
	}
	if _, ok := ClassFromName("bogus"); ok {
		t.Fatal("bogus class accepted")
	}
	for _, p := range []Protection{ProtNone, ProtParity, ProtECC} {
		got, ok := ProtectionFromName(p.String())
		if !ok || got != p {
			t.Fatalf("protection %v did not round trip", p)
		}
	}
}

func TestFlattenUnboundOutputDangles(t *testing.T) {
	d := NewDesign("dangle")
	sub := d.AddModule("sub")
	sb := Build(sub)
	in := sb.In("x", 4)
	sb.Out("y", 4, in)
	sb.Out("z", 4, sb.C("inv", 4, OpNot, in)) // z left unbound by parent
	top := d.AddModule("top")
	tb := Build(top)
	tb.In("x", 4)
	tb.Inst("u", "sub", map[string]string{"x": "x", "y": "yy"})
	tb.Out("o", 4, "yy")
	d.AddFub("T", "top")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	fd, err := Flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	f := fd.Fub("T")
	z := f.Node("u/z")
	if z == nil || z.Op != OpPass {
		t.Fatalf("unbound output not preserved as dangling pass: %+v", z)
	}
}
