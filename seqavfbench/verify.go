package main

// Response checks. Every server response is compared byte for byte with
// the replay's rendering of the same op, after the fields that carry the
// server's own timings are zeroed. Go encodes a float64 as the shortest
// decimal that parses back to the same bits, so byte equality means the
// summaries, node maps, time series and plans are bit-exact after the
// JSON round trip. Edits and harden plans are additionally checked for
// the properties the ECO loop relies on.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"seqavf/internal/harden"
	"seqavf/internal/server"
)

// timingKeys are the response fields that report the server's own
// measurements and so differ between two correct answers.
var timingKeys = [][]byte{
	[]byte(`"eval_elapsed_ms": `),
	[]byte(`"workloads_per_sec": `),
	[]byte(`"elapsed_ms": `),
}

// maskTimings returns body with the value of every timing field replaced
// by 0.
func maskTimings(body []byte) []byte {
	out := body
	for _, key := range timingKeys {
		var b bytes.Buffer
		rest := out
		for {
			i := bytes.Index(rest, key)
			if i < 0 {
				break
			}
			j := i + len(key)
			b.Write(rest[:j])
			b.WriteByte('0')
			for j < len(rest) && strings.IndexByte("0123456789.eE+-", rest[j]) >= 0 {
				j++
			}
			rest = rest[j:]
		}
		if b.Len() > 0 {
			b.Write(rest)
			out = b.Bytes()
		}
	}
	return out
}

// sameResponse reports whether got matches the masked reference want,
// and if not, where they first differ.
func sameResponse(got, want []byte) error {
	g := maskTimings(got)
	if bytes.Equal(g, want) {
		return nil
	}
	i := 0
	for i < len(g) && i < len(want) && g[i] == want[i] {
		i++
	}
	lo := max(0, i-40)
	return fmt.Errorf("response differs from the reference at byte %d: got %q, want %q",
		i, g[lo:min(len(g), i+40)], want[lo:min(len(want), i+40)])
}

// checkEdit checks an ECO response: the re-solve was incremental and
// converged, and the design grew by exactly the new flop's width.
func checkEdit(body []byte, wantVerts int) error {
	var er server.EditResponse
	if err := json.Unmarshal(body, &er); err != nil {
		return fmt.Errorf("edit response: %w", err)
	}
	if er.Incremental == nil {
		return fmt.Errorf("edit fell back to a cold solve")
	}
	if !er.Incremental.Converged {
		return fmt.Errorf("incremental re-solve did not converge: %+v", *er.Incremental)
	}
	if er.Vertices != wantVerts {
		return fmt.Errorf("edited design has %d vertices, want %d", er.Vertices, wantVerts)
	}
	return nil
}

// checkHarden checks that no protection plan leaves more chip AVF than
// the unprotected design.
func checkHarden(body []byte) error {
	var hr harden.Response
	if err := json.Unmarshal(body, &hr); err != nil {
		return fmt.Errorf("harden response: %w", err)
	}
	if len(hr.Plans) != len(hardenBudgets) {
		return fmt.Errorf("harden returned %d plans for %d budgets", len(hr.Plans), len(hardenBudgets))
	}
	for _, p := range hr.Plans {
		if p.ResidualChipAVF > p.BaseChipAVF {
			return fmt.Errorf("budget %v: residual chip AVF %v exceeds base %v", p.Budget, p.ResidualChipAVF, p.BaseChipAVF)
		}
	}
	return nil
}

// checker holds the references for one run. Sweep ops are checked as
// they complete against references made at setup; an ECO op's answer
// depends on the whole edit chain before it, so ECO responses are kept
// and checked after the timed phase by replaying the chain.
type checker struct {
	in        *inputs
	baseVerts int
	// refs[k] are the masked responses of sweep pool entry k.
	refs [][]byte
}

func newChecker(in *inputs) (*checker, error) {
	r, err := newReplayer(in, "")
	if err != nil {
		return nil, err
	}
	c := &checker{in: in, baseVerts: r.live.Analyzer.G.NumVerts()}
	if in.workload == "eco_loop" {
		return c, nil
	}
	for k := 0; k < poolSize; k++ {
		out, err := r.op(k)
		if err != nil {
			return nil, fmt.Errorf("reference for request %d: %w", k, err)
		}
		c.refs = append(c.refs, maskTimings(out[0]))
	}
	return c, nil
}

// checkSweep checks the response of sweep op i.
func (c *checker) checkSweep(i int, body []byte) error {
	return sameResponse(body, c.refs[i%poolSize])
}

// checkECO replays the edit chain of ops 0..len(ops)-1 and checks the
// recorded responses; ops[i] holds op i's responses, nil when the op got
// none. It returns one verdict per op, nil for a correct answer.
func (c *checker) checkECO(ops [][][]byte) ([]error, error) {
	r, err := newReplayer(c.in, "")
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(ops))
	for i, got := range ops {
		want, err := r.op(i)
		if err != nil {
			// The chain cannot continue without this op's design.
			return nil, fmt.Errorf("replaying eco op %d: %w", i, err)
		}
		if len(got) != len(want) {
			errs[i] = fmt.Errorf("%d responses, want %d", len(got), len(want))
			continue
		}
		err = checkEdit(got[0], c.baseVerts+c.in.ecoSite(i).width)
		if err == nil {
			err = checkHarden(got[2])
		}
		for k := 0; err == nil && k < len(want); k++ {
			err = sameResponse(got[k], maskTimings(want[k]))
		}
		errs[i] = err
	}
	return errs, nil
}
