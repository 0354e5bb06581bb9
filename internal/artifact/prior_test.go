package artifact

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/graph/graphtest"
)

// TestDecodePriorRoundTrip proves the FUBSTATE section carries exactly
// what Result.PriorState distills live: encoding a solved result and
// decoding its prior must reproduce the same design name, inputs, set
// table references, fingerprints, and AVFs — with no analyzer in hand.
func TestDecodePriorRoundTrip(t *testing.T) {
	_, res, in := buildSolved(t, 21, 43)
	data, err := Encode(res)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodePrior(data)
	if err != nil {
		t.Fatalf("DecodePrior: %v", err)
	}
	want, err := res.PriorState()
	if err != nil {
		t.Fatalf("PriorState: %v", err)
	}
	if got.Design != want.Design {
		t.Fatalf("design %q, want %q", got.Design, want.Design)
	}
	if !got.Inputs.Equal(in) {
		t.Fatal("decoded prior inputs differ from the solve's inputs")
	}
	if len(got.Fubs) != len(want.Fubs) {
		t.Fatalf("%d FUBs, want %d", len(got.Fubs), len(want.Fubs))
	}
	for f := range want.Fubs {
		gf, wf := &got.Fubs[f], &want.Fubs[f]
		if gf.Name != wf.Name || gf.Fingerprint != wf.Fingerprint {
			t.Fatalf("FUB %d: (%s, %016x), want (%s, %016x)", f, gf.Name, gf.Fingerprint, wf.Name, wf.Fingerprint)
		}
		if len(gf.FwdIdx) != len(wf.FwdIdx) {
			t.Fatalf("FUB %s: %d vertices, want %d", gf.Name, len(gf.FwdIdx), len(wf.FwdIdx))
		}
		for i := range wf.FwdIdx {
			if gf.AVF[i] != wf.AVF[i] {
				t.Fatalf("FUB %s vertex %d: AVF %v, want %v", gf.Name, i, gf.AVF[i], wf.AVF[i])
			}
			// Indices are interned independently on each side; compare the
			// sets they name, including the unknown (-1) marker.
			for side, pair := range [][2]int32{{gf.FwdIdx[i], wf.FwdIdx[i]}, {gf.BwdIdx[i], wf.BwdIdx[i]}} {
				if (pair[0] < 0) != (pair[1] < 0) {
					t.Fatalf("FUB %s vertex %d side %d: known-ness %d vs %d", gf.Name, i, side, pair[0], pair[1])
				}
				if pair[0] < 0 {
					continue
				}
				gi, wi := got.Sets.SetIDs(pair[0]), want.Sets.SetIDs(pair[1])
				if len(gi) != len(wi) {
					t.Fatalf("FUB %s vertex %d side %d: set sizes %d vs %d", gf.Name, i, side, len(gi), len(wi))
				}
				for k := range wi {
					// The decoded universe interns the dictionary in ID
					// order, so term identity must agree by name.
					if got.Universe.Term(gi[k]) != want.Universe.Term(wi[k]) {
						t.Fatalf("FUB %s vertex %d side %d term %d: %v vs %v",
							gf.Name, i, side, k, got.Universe.Term(gi[k]), want.Universe.Term(wi[k]))
					}
				}
			}
		}
	}
}

// TestStorePrior covers the head-pointer flow end to end: Put leaves a
// name-keyed breadcrumb, Prior follows it to a usable seed state, an
// unknown design is a clean miss, and the decoded prior actually drives
// an incremental re-solve of an edited design.
func TestStorePrior(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, res, _ := buildSolved(t, 77, 99)
	if err := st.Put(res); err != nil {
		t.Fatalf("Put: %v", err)
	}
	ctx := context.Background()
	name := a.G.Design.Name

	ps, err := st.Prior(ctx, name)
	if err != nil {
		t.Fatalf("Prior: %v", err)
	}
	if ps == nil {
		t.Fatal("Prior missed immediately after Put")
	}
	if ps.Design != name {
		t.Fatalf("prior for design %q, want %q", ps.Design, name)
	}

	if miss, err := st.Prior(ctx, "no-such-design"); err != nil || miss != nil {
		t.Fatalf("unknown design: got (%v, %v), want clean miss", miss, err)
	}

	// The persisted prior must seed a real incremental re-solve: edit the
	// design, re-solve warm, and check the differential contract.
	d, err := graphtest.Generate(graphtest.Small(77))
	if err != nil {
		t.Fatal(err)
	}
	_, g2, edit, err := d.ApplyEdit(graphtest.EditAddFlop, 5)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := core.NewAnalyzer(g2, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	in2 := seededInputs(a2, 99)
	incr, stats, err := a2.ResolveIncremental(in2, ps)
	if err != nil {
		t.Fatalf("ResolveIncremental from stored prior: %v", err)
	}
	if stats.FubsDirty == 0 || stats.FubsDirty >= stats.FubsTotal {
		t.Fatalf("edit %q dirtied %d of %d FUBs", edit.Desc, stats.FubsDirty, stats.FubsTotal)
	}
	scratch, err := a2.Solve(seededInputs(a2, 99))
	if err != nil {
		t.Fatal(err)
	}
	if d := core.MaxAbsDiff(incr, scratch); d != 0 {
		t.Fatalf("stored-prior re-solve differs from scratch by %v", d)
	}
}

// TestStorePriorSurvivesEviction pins the degraded modes: a head pointer
// whose artifact was evicted is a clean miss, and a Put for a new
// fingerprint moves the head.
func TestStorePriorSurvivesEviction(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, res, in := buildSolved(t, 31, 62)
	if err := st.Put(res); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	name := a.G.Design.Name

	// Simulate eviction losing the pointed-to artifact.
	if err := removeAllArtifacts(st.Dir()); err != nil {
		t.Fatal(err)
	}
	if ps, err := st.Prior(ctx, name); err != nil || ps != nil {
		t.Fatalf("dangling head pointer: got (%v, %v), want clean miss", ps, err)
	}

	// A later Put re-establishes the head.
	res2, err := a.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(res2); err != nil {
		t.Fatal(err)
	}
	ps, err := st.Prior(ctx, name)
	if err != nil || ps == nil {
		t.Fatalf("Prior after re-Put: (%v, %v)", ps, err)
	}
}

// removeAllArtifacts deletes every .sart file under dir, leaving head
// pointers in place — the state an aggressive eviction pass produces.
func removeAllArtifacts(dir string) error {
	matches, err := filepath.Glob(filepath.Join(dir, "*"+ext))
	if err != nil {
		return err
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			return err
		}
	}
	return nil
}
