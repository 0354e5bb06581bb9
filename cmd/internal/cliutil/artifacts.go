package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"seqavf/internal/artifact"
	"seqavf/internal/core"
	"seqavf/internal/obs"
)

// Artifacts carries the shared artifact-store flags: -artifacts selects
// the store directory (empty disables persistence entirely),
// -artifacts-max bounds its disk usage, and -peers enables the fleet
// pull-through tier — on a local miss the store fetches the artifact
// from the owning peer before solving cold.
type Artifacts struct {
	Dir         string
	MaxBytes    int64
	Peers       *Replicas
	PeerTimeout time.Duration
}

// ArtifactFlags registers -artifacts, -artifacts-max, -peers, and
// -peer-timeout on the default FlagSet.
func ArtifactFlags() *Artifacts {
	a := &Artifacts{}
	flag.StringVar(&a.Dir, "artifacts", "", "artifact store directory: persist solved results and compiled plans, keyed by design fingerprint (empty = no persistence)")
	flag.Int64Var(&a.MaxBytes, "artifacts-max", 1<<30, "artifact store disk bound in bytes; least-recently-used artifacts are evicted beyond it (0 = unbounded)")
	a.Peers = ReplicasFlag("peers", "fleet peer base URLs (repeatable, comma-separated): on a local artifact miss, pull the artifact from the owning peer (requires -artifacts)")
	flag.DurationVar(&a.PeerTimeout, "peer-timeout", 5*time.Second, "per-fetch timeout for -peers pull-through requests")
	return a
}

// Open opens the configured store, or returns nil when -artifacts was
// not given.
func (a *Artifacts) Open(reg *obs.Registry) (*artifact.Store, error) {
	peers := 0
	if a.Peers != nil {
		peers = len(a.Peers.URLs)
	}
	if a.Dir == "" {
		if peers > 0 {
			return nil, errors.New("-peers requires -artifacts (the pull-through tier installs into the local store)")
		}
		return nil, nil
	}
	opts := artifact.Options{MaxBytes: a.MaxBytes, Obs: reg}
	if peers > 0 {
		opts.Remote = &artifact.Remote{
			Peers:  a.Peers.URLs,
			Client: &http.Client{Timeout: a.PeerTimeout},
		}
	}
	return artifact.Open(a.Dir, opts)
}

// Disposition reports which path SolveWithStore took to produce its
// result.
type Disposition struct {
	// Kind is "cold" (full solve), "warm" (fingerprint hit, closed forms
	// restored), or "incremental" (fingerprint miss, but a prior solve of
	// the same design name seeded an ECO re-solve).
	Kind string
	// Incremental carries the reuse statistics when Kind is
	// "incremental"; nil otherwise.
	Incremental *core.Incremental
}

// Warm reports whether the solve was skipped outright.
func (d Disposition) Warm() bool { return d.Kind == "warm" }

// SolveWithStore produces a solved result for analyzer a under inputs
// in, consulting st first: on a fingerprint hit the stored closed forms
// are decoded and re-evaluated against in — skipping the solve entirely.
// On a miss, a prior artifact for the same design *name* (left by an
// earlier Put, found via the store's head pointer) seeds an incremental
// re-solve that walks only the FUBs the edit dirtied; only when no prior
// exists is the design solved cold. Either way the fresh result is
// persisted back. st may be nil (always cold, never persisted). A
// present-but-unreadable artifact (version skew, corruption) is reported
// to stderr and regenerated, never fatal: warm and incremental starts
// are optimizations, not correctness dependencies. ctx carries the run's
// trace state: the restore or solve spans nest under its current span.
func SolveWithStore(ctx context.Context, tool string, st *artifact.Store, a *core.Analyzer, in *core.Inputs, reg *obs.Registry) (*core.Result, Disposition, error) {
	if st == nil {
		res, err := a.SolveContext(ctx, in)
		return res, Disposition{Kind: "cold"}, err
	}
	res, _, err := st.GetContext(ctx, a)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: artifact store: %v (solving cold and regenerating)\n", tool, err)
	}
	if res != nil {
		// The stored result already carries the evaluation of its own
		// inputs; only a different table needs plugging back in.
		if !res.Inputs.Equal(in) {
			if err := res.Reevaluate(in); err != nil {
				return nil, Disposition{}, err
			}
		}
		reg.Counter("artifact.warm_start").Inc()
		return res, Disposition{Kind: "warm"}, nil
	}
	prior, perr := st.Prior(ctx, a.G.Design.Name)
	if perr != nil {
		fmt.Fprintf(os.Stderr, "%s: artifact store: prior state: %v (solving cold)\n", tool, perr)
	}
	if prior != nil {
		res, ist, rerr := a.ResolveIncrementalContext(ctx, in, prior)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "%s: incremental re-solve failed: %v (solving cold)\n", tool, rerr)
		} else {
			reg.Counter("artifact.incremental_start").Inc()
			if err := st.Put(res); err != nil {
				fmt.Fprintf(os.Stderr, "%s: artifact store: persisting solve: %v\n", tool, err)
			}
			return res, Disposition{Kind: "incremental", Incremental: ist}, nil
		}
	}
	reg.Counter("artifact.cold_start").Inc()
	res, err = a.SolveContext(ctx, in)
	if err != nil {
		return nil, Disposition{}, err
	}
	if err := st.Put(res); err != nil {
		fmt.Fprintf(os.Stderr, "%s: artifact store: persisting solve: %v\n", tool, err)
	}
	return res, Disposition{Kind: "cold"}, nil
}
