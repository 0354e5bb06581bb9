package artifact

import (
	"errors"
	"sync"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/sweep"
)

// fuzzTarget lazily builds one fixed analyzer (and a valid artifact for
// it) shared by every fuzz execution: the decoder's design-side inputs
// are constant so the corpus explores only the byte format.
var (
	fuzzOnce sync.Once
	fuzzAn   *core.Analyzer
	fuzzSeed []byte
	fuzzErr  error
)

func fuzzSetup(t testing.TB) (*core.Analyzer, []byte) {
	fuzzOnce.Do(func() {
		a, res, _ := buildSolved(t, 12, 34)
		fuzzAn = a
		fuzzSeed, fuzzErr = Encode(res)
	})
	if fuzzErr != nil {
		t.Fatalf("building fuzz seed artifact: %v", fuzzErr)
	}
	return fuzzAn, fuzzSeed
}

// FuzzDecodeArtifact feeds arbitrary bytes to the artifact decoder:
// every input must either decode into a structurally valid result+plan
// or fail with an error wrapping ErrCorrupt, ErrFormatVersion or
// ErrFingerprint — never panic, and never allocate
// proportionally to a declared (attacker-controlled) length rather than
// the actual input size. Seeds include a fully valid artifact so the
// mutator starts deep inside the format instead of dying on the magic.
func FuzzDecodeArtifact(f *testing.F) {
	a, valid := fuzzSetup(f)
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(valid)
	// A truncated and a bit-flipped variant seed the interesting error
	// paths directly.
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x80
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		res, plan, err := Decode(data, a)
		if err != nil {
			if res != nil || plan != nil {
				t.Fatal("Decode returned partial results alongside an error")
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFormatVersion) && !errors.Is(err, ErrFingerprint) {
				t.Fatalf("Decode failed without a sentinel error: %v", err)
			}
			return
		}
		// Accepted artifacts must be fully usable: a decoded result
		// carries one equation and one in-range AVF per vertex, every
		// equation reads from its set table, and its plan evaluates
		// without panicking.
		n := a.G.NumVerts()
		if len(res.AVF) != n || len(res.Fwd) != n || len(res.Bwd) != n || len(res.Visited) != n {
			t.Fatalf("accepted artifact has %d AVFs / %d/%d set slots / %d visited for %d vertices",
				len(res.AVF), len(res.Fwd), len(res.Bwd), len(res.Visited), n)
		}
		for v, avf := range res.AVF {
			if !(avf >= 0 && avf <= 1) {
				t.Fatalf("accepted artifact vertex %d AVF %v out of [0,1]", v, avf)
			}
			res.Expr(graph.VertexID(v))
		}
		if plan.NumVerts() != n {
			t.Fatalf("accepted plan covers %d of %d vertices", plan.NumVerts(), n)
		}
		if err := plan.EvalBlockInto([]sweep.Workload{{Name: "own", Inputs: res.Inputs}}, nil, nil, make([]*core.Result, 1)); err != nil {
			t.Fatalf("accepted plan failed to evaluate its own inputs: %v", err)
		}
	})
}

// FuzzDecodeFUBState feeds arbitrary bytes to the prior-state decoder —
// the path that must survive artifacts written by crashed processes,
// older binaries, and eviction races. Every input must either decode
// into a self-consistent PriorState or fail with one of the explicit
// "regenerate" sentinel errors (ErrCorrupt / ErrFormatVersion) — never
// panic. Seeds cover the valid artifact plus truncated, bit-flipped,
// and version-skewed variants so the mutator starts on each error path.
func FuzzDecodeFUBState(f *testing.F) {
	_, valid := fuzzSetup(f)
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[2*len(flipped)/3] ^= 0x40
	f.Add(flipped)
	// Version skew: a v1-era header (format version field at offset 8)
	// must be rejected up front, not misparsed section by section.
	skewed := append([]byte(nil), valid...)
	skewed[len(magic)] = 1
	f.Add(skewed)

	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := DecodePrior(data)
		if err != nil {
			if ps != nil {
				t.Fatal("DecodePrior returned partial state alongside an error")
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFormatVersion) {
				t.Fatalf("DecodePrior failed without a regenerate sentinel: %v", err)
			}
			return
		}
		// Accepted priors must be fully usable by ResolveIncremental: every
		// per-FUB index lands inside the set table (or is -1), the slices
		// agree on each FUB's vertex count, and AVFs are probabilities.
		if ps.Design == "" || ps.Universe == nil {
			t.Fatalf("accepted prior missing design name or universe: %+v", ps)
		}
		for _, fp := range ps.Fubs {
			if len(fp.FwdIdx) != len(fp.BwdIdx) || len(fp.FwdIdx) != len(fp.AVF) {
				t.Fatalf("FUB %s slice lengths disagree: %d fwd / %d bwd / %d avf",
					fp.Name, len(fp.FwdIdx), len(fp.BwdIdx), len(fp.AVF))
			}
			for i := range fp.FwdIdx {
				for _, idx := range [2]int32{fp.FwdIdx[i], fp.BwdIdx[i]} {
					if idx < -1 || int(idx) >= ps.Sets.Len() {
						t.Fatalf("FUB %s vertex %d set index %d outside table of %d", fp.Name, i, idx, ps.Sets.Len())
					}
				}
				if !(fp.AVF[i] >= 0 && fp.AVF[i] <= 1) {
					t.Fatalf("FUB %s vertex %d AVF %v out of [0,1]", fp.Name, i, fp.AVF[i])
				}
			}
		}
		for s := 0; s < ps.Sets.Len(); s++ {
			for _, id := range ps.Sets.SetIDs(int32(s)) {
				if int(id) >= ps.Universe.Len() {
					t.Fatalf("set term %d outside universe of %d", id, ps.Universe.Len())
				}
			}
		}
	})
}
