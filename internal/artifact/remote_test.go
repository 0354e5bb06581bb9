package artifact

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"seqavf/internal/obs"
)

// peerFor serves one store's artifacts over the /v1/artifacts wire
// format, standing in for a seqavfd replica.
func peerFor(t *testing.T, st *Store) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/artifacts/{fingerprint}", func(w http.ResponseWriter, r *http.Request) {
		fp, err := strconv.ParseUint(r.PathValue("fingerprint"), 16, 64)
		if err != nil {
			http.Error(w, "bad fingerprint", http.StatusBadRequest)
			return
		}
		data, err := st.Raw(fp)
		if err != nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// A local miss pulls through the peer, verifies, and installs: the
// second Get is a local hit and the artifact survives on disk.
func TestRemotePullThroughInstalls(t *testing.T) {
	src, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, res, in := buildSolved(t, 60, 7)
	if err := src.Put(res); err != nil {
		t.Fatal(err)
	}
	peer := peerFor(t, src)

	reg := obs.New()
	dst, err := Open(t.TempDir(), Options{
		Remote: &Remote{Peers: []string{peer.URL}},
		Obs:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, plan, err := dst.Get(a)
	if err != nil {
		t.Fatalf("remote Get: %v", err)
	}
	if got == nil || plan == nil {
		t.Fatal("remote Get missed though the peer holds the artifact")
	}
	if err := got.Reevaluate(in); err != nil {
		t.Fatal(err)
	}
	for v := range res.AVF {
		if got.AVF[v] != res.AVF[v] {
			t.Fatalf("vertex %d: remote AVF %v != original %v", v, got.AVF[v], res.AVF[v])
		}
	}
	if reg.Counter("artifact.remote_hits").Load() != 1 {
		t.Fatalf("artifact.remote_hits = %d, want 1", reg.Counter("artifact.remote_hits").Load())
	}
	if dst.Len() != 1 {
		t.Fatalf("pulled artifact not installed locally: Len = %d", dst.Len())
	}
	// Head pointer installed too: Prior works on the pulled store.
	ps, err := dst.Prior(t.Context(), res.Analyzer.G.Design.Name)
	if err != nil || ps == nil {
		t.Fatalf("Prior after pull-through = (%v, %v), want hit", ps, err)
	}
	// The second Get must not touch the network (peer closed).
	peer.Close()
	got2, _, err := dst.Get(freshAnalyzer(t, 60))
	if err != nil || got2 == nil {
		t.Fatalf("local Get after install = (%v, %v), want hit", got2, err)
	}
	if reg.Counter("artifact.remote_hits").Load() != 1 {
		t.Fatal("second Get consulted the remote tier again")
	}
}

// Peers without the artifact (and dead peers) degrade to a clean miss.
func TestRemoteMissAndDeadPeer(t *testing.T) {
	empty, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	peer := peerFor(t, empty)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	reg := obs.New()
	dst, err := Open(t.TempDir(), Options{
		Remote: &Remote{
			Peers:  []string{peer.URL, dead.URL},
			Client: &http.Client{Timeout: time.Second},
		},
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _, _ := buildSolved(t, 61, 7)
	got, plan, err := dst.Get(a)
	if err != nil || got != nil || plan != nil {
		t.Fatalf("fleet-wide miss = (%v, %v, %v), want clean miss", got, plan, err)
	}
	if reg.Counter("artifact.remote_misses").Load() != 1 {
		t.Fatalf("artifact.remote_misses = %d, want 1", reg.Counter("artifact.remote_misses").Load())
	}
	if reg.Counter("artifact.remote_errors").Load() != 1 {
		t.Fatalf("artifact.remote_errors = %d, want 1 (the dead peer)", reg.Counter("artifact.remote_errors").Load())
	}
}

// A peer serving corrupt bytes must not poison the local store: the
// fetch fails verification, counts an error, and the next peer serves
// the good copy.
func TestRemoteCorruptPeerRejected(t *testing.T) {
	src, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, res, _ := buildSolved(t, 62, 7)
	if err := src.Put(res); err != nil {
		t.Fatal(err)
	}
	good := peerFor(t, src)

	var evilServed atomic.Int64
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		evilServed.Add(1)
		data, err := src.Raw(res.Analyzer.Fingerprint())
		if err != nil {
			http.NotFound(w, r)
			return
		}
		data[len(data)/2] ^= 0xFF
		w.Write(data)
	}))
	t.Cleanup(evil.Close)

	reg := obs.New()
	dst, err := Open(t.TempDir(), Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic peer order for the test: corrupt peer first.
	dst.SetRemote(&Remote{Peers: []string{evil.URL}})
	if got, _, err := dst.Get(a); err != nil || got != nil {
		t.Fatalf("corrupt-only fleet Get = (%v, %v), want clean miss", got, err)
	}
	if evilServed.Load() == 0 {
		t.Fatal("test vacuous: corrupt peer never consulted")
	}
	if reg.Counter("artifact.remote_errors").Load() == 0 {
		t.Fatal("corrupt peer bytes not counted as artifact.remote_errors")
	}
	if dst.Len() != 0 {
		t.Fatal("corrupt bytes were installed locally")
	}
	// With the good peer behind the corrupt one, the fetch falls through
	// and succeeds.
	dst.SetRemote(&Remote{Peers: []string{evil.URL, good.URL}})
	got, _, err := dst.Get(freshAnalyzer(t, 62))
	if err != nil || got == nil {
		t.Fatalf("fallback past corrupt peer = (%v, %v), want hit", got, err)
	}
	if dst.Len() != 1 {
		t.Fatal("verified artifact not installed after fallback")
	}
}

// A store without a Remote never fabricates network traffic, and
// SetRemote(nil) disables an installed tier.
func TestRemoteDisabled(t *testing.T) {
	dst, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, _, _ := buildSolved(t, 63, 7)
	if got, _, err := dst.Get(a); err != nil || got != nil {
		t.Fatalf("no-remote Get = (%v, %v), want clean miss", got, err)
	}
	var consulted atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		consulted.Add(1)
		http.NotFound(w, r)
	}))
	t.Cleanup(peer.Close)
	dst.SetRemote(&Remote{Peers: []string{peer.URL}})
	dst.SetRemote(nil)
	if got, _, err := dst.Get(a); err != nil || got != nil {
		t.Fatalf("cleared-remote Get = (%v, %v), want clean miss", got, err)
	}
	if consulted.Load() != 0 {
		t.Fatal("SetRemote(nil) did not disable the tier")
	}
}

// Raw serves exactly the stored bytes and misses with fs.ErrNotExist.
func TestRawRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, res, _ := buildSolved(t, 64, 7)
	want, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(res); err != nil {
		t.Fatal(err)
	}
	got, err := st.Raw(res.Analyzer.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("Raw returned %d bytes differing from Encode's %d", len(got), len(want))
	}
	if _, err := st.Raw(res.Analyzer.Fingerprint() + 1); err == nil {
		t.Fatal("Raw of absent fingerprint succeeded")
	}
}
