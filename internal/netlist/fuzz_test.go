package netlist

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// nestedText is a three-level hierarchy: FUB T instantiates top, which
// instantiates mid, which instantiates leaf.
const nestedText = `design nested
module leaf
  input x 8
  comb inv 8 not x
  output y 8 = inv
endmodule
module mid
  input x 8
  seq r 8 = ly
  output y 8 = r
  inst u_leaf leaf x=x y=ly
endmodule
module top
  input x 8
  output y 8 = my
  inst u_mid mid x=x y=my
endmodule
top T top
top U leaf
connect T.y -> U.x
`

// quirkyText exercises the line syntax around module spans: comments,
// CRLF line ends, a module holding a design-level statement (so it has
// no reusable span), and a last module ended without a newline.
const quirkyText = "# header\r\ndesign quirky  # name\r\nmodule a\r\n  input i 4\r\n" +
	"  output o 4 = i # pass\r\nendmodule\r\nmodule b\n  input i 4\n  structure S 2 4\n" +
	"  sread r 4 S rd i\n  output o 4 = r\nendmodule\ntop A a\ntop B b\nconnect A.o -> B.i\n" +
	"module c\n  input i 1\n  output o 1 = i\nendmodule"

// seedTexts are the fuzz corpus seeds; the ones that parse also serve
// as the priors fuzzed text is parsed against.
func seedTexts(t testing.TB) []string {
	var small strings.Builder
	if err := Write(&small, buildSmallDesign(t)); err != nil {
		t.Fatal(err)
	}
	return []string{small.String(), nestedText, quirkyText,
		"module early\nendmodule\ndesign late\n", strings.Replace(nestedText, "endmodule\nmodule top", "module top", 1)}
}

// FuzzParseNetlist checks incremental parsing against the cold parse:
// for any text and any prior parsed from a seed, ParseFrom with the
// prior returns the cold parse's design or its exact error. A design
// that parses and validates round-trips through Write and Parse.
func FuzzParseNetlist(f *testing.F) {
	var priors []*Source
	for i, s := range seedTexts(f) {
		f.Add([]byte(s), uint8(i))
		if src, err := ParseFrom([]byte(s), nil); err == nil {
			priors = append(priors, src)
		}
	}
	f.Fuzz(func(t *testing.T, text []byte, pick uint8) {
		prior := priors[int(pick)%len(priors)]
		cold, coldErr := ParseFrom(text, nil)
		warm, warmErr := ParseFrom(text, prior)
		if coldErr != nil || warmErr != nil {
			if coldErr == nil || warmErr == nil || coldErr.Error() != warmErr.Error() {
				t.Fatalf("cold error %v, with prior %v", coldErr, warmErr)
			}
			return
		}
		if !reflect.DeepEqual(cold.Design, warm.Design) {
			t.Fatalf("design parsed with prior differs from the cold parse")
		}
		if cold.Design.Validate() != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, cold.Design); err != nil {
			t.Fatal(err)
		}
		again, err := Parse(&out)
		if err != nil {
			t.Fatalf("reparsing written design: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(again, cold.Design) {
			t.Fatalf("Write then Parse does not round-trip:\n%s", out.Bytes())
		}
	})
}

// TestParseFromReusesModules: a module whose definition is byte-identical
// to the prior's is shared, wherever it now sits in the text; an edited
// one, or one holding a design-level statement, is parsed afresh; and
// line numbers in errors past a reused module are the cold parse's.
func TestParseFromReusesModules(t *testing.T) {
	prior, err := ParseFrom([]byte(quirkyText), nil)
	if err != nil {
		t.Fatal(err)
	}
	edited := "design quirky\nmodule c\n  input i 1\n  output o 1 = i\nendmodule\n" +
		"module a\r\n  input i 4\r\n  output o 4 = i # pass\r\nendmodule\r\n" +
		"module b\n  input i 4\n  structure S 2 4\n  sread r 4 S rd i\n  output o 4 = r\nendmodule\n" +
		"top A a\ntop B b\nconnect A.o -> B.i\n"
	warm, err := ParseFrom([]byte(edited), prior)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := ParseFrom([]byte(edited), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Design, cold.Design) {
		t.Fatal("reusing parse differs from the cold parse")
	}
	if warm.Design.Modules["a"] != prior.Design.Modules["a"] {
		t.Error("moved, byte-identical module a was not reused")
	}
	if warm.Design.Modules["b"] == prior.Design.Modules["b"] {
		t.Error("module b holds a structure line but was reused")
	}
	if warm.Design.Modules["c"] == prior.Design.Modules["c"] {
		t.Error("module c ended without a newline in the prior but was reused")
	}
	// c now ends with a newline, so a third version reuses it from warm.
	third, err := ParseFrom([]byte(edited+"bogus\n"), warm)
	if err == nil || third != nil {
		t.Fatal("trailing garbage accepted")
	}
	if _, coldErr := ParseFrom([]byte(edited+"bogus\n"), nil); err.Error() != coldErr.Error() {
		t.Fatalf("error %q, cold %q", err, coldErr)
	}
	if !strings.Contains(err.Error(), "line 19:") {
		t.Fatalf("error %q not on line 19", err)
	}
	if again, err := ParseFrom([]byte(edited), warm); err != nil || again.Design.Modules["c"] != warm.Design.Modules["c"] {
		t.Fatalf("module c not reused from a prior that recorded it (%v)", err)
	}
}

// TestParseLongLine: a line of maxLine bytes or more fails as a
// bufio.Scanner with that limit would, after the lines before it.
func TestParseLongLine(t *testing.T) {
	long := "design d\n# " + strings.Repeat("x", maxLine) + "\n"
	if _, err := Parse(strings.NewReader(long)); err != bufio.ErrTooLong {
		t.Fatalf("long line: %v, want bufio.ErrTooLong", err)
	}
	early := "design d\nbogus\n# " + strings.Repeat("x", maxLine) + "\n"
	if _, err := Parse(strings.NewReader(early)); err == nil || !strings.Contains(err.Error(), "line 2:") {
		t.Fatalf("error before the long line: %v", err)
	}
	fits := "design d\n#" + strings.Repeat("x", maxLine-2) + "\n"
	if _, err := Parse(strings.NewReader(fits)); err != nil {
		t.Fatalf("line of maxLine bytes with its newline: %v", err)
	}
}

// TestFlattenFromReuse: a FUB keeps its prior flat FUB only while its
// whole module closure is the prior's; editing a leaf module rebuilds
// every FUB that instantiates it, directly or not, and the result
// equals a cold flatten.
func TestFlattenFromReuse(t *testing.T) {
	prior, err := ParseFrom([]byte(nestedText), nil)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Flatten(prior.Design)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, text string
		reused     map[string]bool
	}{
		{"unchanged", nestedText, map[string]bool{"T": true, "U": true}},
		{"leaf edited", strings.Replace(nestedText, "not x", "pass x", 1), map[string]bool{"T": false, "U": false}},
		{"mid edited", strings.Replace(nestedText, "seq r 8 = ly", "seq r 8 = ly init=1", 1), map[string]bool{"T": false, "U": true}},
		{"FUB remapped", strings.Replace(nestedText, "top U leaf", "top U mid", 1), map[string]bool{"T": true, "U": false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, err := ParseFrom([]byte(tc.text), prior)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := FlattenFrom(src.Design, prior.Design, pf)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Flatten(src.Design)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(warm, cold) {
				t.Fatal("reusing flatten differs from the cold flatten")
			}
			for i, f := range warm.Fubs {
				if got := f == pf.Fub(f.Name); got != tc.reused[f.Name] {
					t.Errorf("FUB %s reused = %v, want %v", f.Name, got, tc.reused[f.Name])
				}
				if cold.Fubs[i] == pf.Fub(f.Name) {
					t.Errorf("cold flatten returned a prior FUB")
				}
			}
		})
	}
}
