// Command seqavf-gateway fronts a fleet of seqavfd replicas: one stable
// address that consistent-hash routes every design's traffic to its
// owning replica, so each replica solves and caches only its share of
// the design set while clients see one service.
//
// Routing uses rendezvous (highest-random-weight) hashing over the
// -replicas list keyed by design name: every gateway instance computes
// the same owner from the same list, no coordination or shared state,
// and adding or removing a replica only remaps the designs that replica
// owned. A dead replica is failed over — the gateway quarantines it for
// -cooldown and retries the next hash choice after -backoff — and
// replica 5xx unavailability (502/503/504) fails over the same way;
// 429 backpressure and client errors pass through untouched.
//
// Endpoints:
//
//	GET  /healthz        fleet health: per-replica liveness fan-out
//	GET  /metrics        fleet-wide Prometheus exposition (all replicas merged)
//	GET  /metrics.json   the gateway's own obs registry snapshot
//	GET  /v1/designs     union of every replica's registered designs
//	POST /v1/designs     routed to the owner, replicated to the runner-up
//	POST /v1/designs/{name}/edit  routed to the owner, replicated likewise
//	POST /v1/sweep       routed to the design's owner
//	POST /v1/sweep/intervals  routed to the design's owner
//	POST /v1/harden      routed to the design's owner
//	GET  /v1/artifacts/{fingerprint}  routed by artifact fingerprint
//
// Every routed endpoint takes the same path: the request goes whole to
// its key's owner (with failover) and the owner's response streams back
// unchanged.
//
// Every proxied request carries a W3C traceparent header, so a client's
// trace continues through the gateway into the replica's span tree.
//
// Usage:
//
//	seqavf-gateway -listen :8090 -replicas host1:8091,host2:8091,host3:8091
//	seqavf-gateway -listen :8090 -replicas host1:8091 -replicas host2:8091
//
// Run the replicas with -artifacts and -peers pointing at each other so
// a replica restarted with an empty cache warm-starts from the fleet
// (see seqavfd).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"seqavf/cmd/internal/cliutil"
	"seqavf/internal/fleet"
)

func main() {
	listen := flag.String("listen", ":8090", "HTTP listen address")
	replicas := cliutil.ReplicasFlag("replicas", "seqavfd replica base URLs (repeatable, comma-separated); required")
	timeout := flag.Duration("timeout", 60*time.Second, "per-attempt upstream request timeout")
	maxBody := flag.Int64("max-body", 8<<20, "request body size cap in bytes")
	retries := flag.Int("retries", 0, "replicas tried after the owner fails (0 = every remaining replica)")
	backoff := flag.Duration("backoff", 50*time.Millisecond, "pause between fail-over attempts")
	cooldown := flag.Duration("cooldown", 5*time.Second, "quarantine window for a replica after a transport failure")
	drain := flag.Duration("drain", 15*time.Second, "graceful shutdown drain deadline")
	ob := cliutil.ObsFlags()
	flag.Parse()

	if len(replicas.URLs) == 0 {
		cliutil.Exit("seqavf-gateway", errors.New("at least one -replicas entry is required"))
	}
	reg := ob.Start("seqavf-gateway")
	gw, err := fleet.New(fleet.Config{
		Replicas:     replicas.URLs,
		Obs:          reg,
		Client:       &http.Client{Timeout: *timeout},
		MaxBodyBytes: *maxBody,
		Retries:      *retries,
		Backoff:      *backoff,
		Cooldown:     *cooldown,
	})
	if err != nil {
		cliutil.Exit("seqavf-gateway", err)
	}

	hs := &http.Server{
		Addr:              *listen,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "seqavf-gateway: routing %d replica(s) on %s\n", len(replicas.URLs), *listen)
		errc <- hs.ListenAndServe()
	}()

	err = nil
	select {
	case err = <-errc:
		// Listener failed outright (bad address, port in use).
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "seqavf-gateway: draining in-flight requests...")
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		err = hs.Shutdown(dctx)
		cancel()
		if err != nil {
			err = errors.Join(fmt.Errorf("drain exceeded %v", *drain), hs.Close())
		}
		if ferr := ob.Finish(); err == nil {
			err = ferr
		}
	}
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	cliutil.Exit("seqavf-gateway", err)
}
