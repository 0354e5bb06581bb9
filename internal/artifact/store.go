package artifact

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"seqavf/internal/core"
	"seqavf/internal/fleet"
	"seqavf/internal/obs"
	"seqavf/internal/sweep"
)

// ext names artifact files; the content address (design fingerprint) is
// the file name.
const ext = ".sart"

// headExt names head-pointer files: one per design name, holding the
// fingerprint of that design's most recently Put artifact. Content
// addressing alone cannot answer "what did this design look like before
// the edit?" — the edited design hashes to a fingerprint no artifact
// carries — so Put leaves a name-keyed breadcrumb for Prior to follow.
const headExt = ".head"

// tmpMaxAge gates the stale-staging sweep in Open: a put-*.tmp file
// older than this was stranded by a crash between CreateTemp and
// Rename (a live Put holds its tmp for milliseconds) and is removed so
// dead staging bytes stop eating the MaxBytes budget's disk. Younger
// tmp files may belong to a concurrent writer and are left alone.
const tmpMaxAge = time.Hour

// maxRemoteArtifactBytes caps how much of a peer's response the remote
// tier will buffer: the codec's own section caps mean a genuine
// artifact decodes from far less, so anything bigger is a broken or
// hostile peer.
const maxRemoteArtifactBytes = 1 << 30

// Remote configures the store's pull-through tier: on a local miss the
// store fetches the artifact from the fleet peer that owns its
// fingerprint (rendezvous order over Peers), verifies the bytes with
// the same CRC-checked Decode every local read gets, and installs the
// artifact atomically so the next read is local. Replication is safe
// by construction — artifacts are immutable, versioned, checksummed,
// and keyed by content.
type Remote struct {
	// Peers are the other replicas' base URLs (this process excluded),
	// each serving GET /v1/artifacts/{fingerprint}.
	Peers []string
	// Client performs the fetches. nil uses a client with a 5s timeout.
	Client *http.Client
}

// Options configure a Store. The zero value is usable: unbounded disk,
// no remote tier, no telemetry.
type Options struct {
	// MaxBytes bounds the store's total size — artifacts plus head
	// pointers, the same set eviction accounts. When a Put pushes the
	// store past the bound, least-recently-used artifacts (by access
	// time; Get touches) are evicted until it fits, keeping at least the
	// entry just written. 0 means unbounded.
	MaxBytes int64
	// Remote, when non-nil, enables the pull-through tier: local misses
	// consult the owning peers before reporting a miss.
	Remote *Remote
	// Obs receives store telemetry: hit/miss/put/eviction counters,
	// remote-tier counters, and decode-failure counts. nil disables
	// instrumentation.
	Obs *obs.Registry
}

// Store is an on-disk content-addressed artifact cache: one file per
// design fingerprint, written atomically (temp file + rename), decoded
// with full integrity checking on every Get. Multiple processes may
// share a directory — rename is atomic within a filesystem, and readers
// only ever observe complete files. The in-process mutex guards the
// index and serializes writes and eviction; reads do their file I/O
// outside it.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	remote *Remote // guarded by mu; set at Open or via SetRemote
	idx    index   // guarded by mu
}

// index is the store's in-memory view of its directory, so eviction
// pops the LRU front instead of listing, stat-ing and sorting every
// file. One scan builds it (at Open, and again on a write once
// max(1, entries/8) writes have passed since the last scan — that
// rescan is what picks up another process's files, out-of-band
// deletions and mtimes changed behind the store's back); this handle's
// own writes, touches and removals keep it current in between.
type index struct {
	lru    list.List                // *fileEntry, least recently used at Front
	files  map[string]*list.Element // .sart / .sens name → its LRU element
	heads  map[string]headEntry     // .head name → size and the artifact it names
	bytes  int64                    // every indexed size: the set MaxBytes bounds
	writes int                      // writes since the last scan
}

// fileEntry is one LRU member: an artifact or a sensitivity vector.
type fileEntry struct {
	name string
	size int64
}

type headEntry struct {
	size   int64
	target string // artifact file name; "" when the head is unreadable
}

func (ix *index) reset() {
	ix.lru.Init()
	ix.files = make(map[string]*list.Element)
	ix.heads = make(map[string]headEntry)
	ix.bytes, ix.writes = 0, 0
}

func (ix *index) entries() int { return len(ix.files) + len(ix.heads) }

// use records name (size bytes) as the most recently used entry,
// adding it if absent.
func (ix *index) use(name string, size int64) {
	if el, ok := ix.files[name]; ok {
		fe := el.Value.(*fileEntry)
		ix.bytes += size - fe.size
		fe.size = size
		ix.lru.MoveToBack(el)
		return
	}
	ix.files[name] = ix.lru.PushBack(&fileEntry{name: name, size: size})
	ix.bytes += size
}

// setHead records head (size bytes) as naming the artifact target.
func (ix *index) setHead(head string, size int64, target string) {
	ix.bytes += size - ix.heads[head].size
	ix.heads[head] = headEntry{size: size, target: target}
}

func (ix *index) dropHead(head string) {
	ix.bytes -= ix.heads[head].size
	delete(ix.heads, head)
}

func (ix *index) drop(el *list.Element) {
	fe := el.Value.(*fileEntry)
	ix.lru.Remove(el)
	delete(ix.files, fe.name)
	ix.bytes -= fe.size
}

// Open returns a Store rooted at dir, creating the directory if needed,
// and builds its index with one scan of the directory. That scan also
// sweeps staging files stranded by a crashed writer (put-*.tmp older
// than an hour) so they cannot silently eat the disk budget forever; a
// concurrent writer's fresh tmp is age-gated out of the sweep.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("artifact: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: creating store: %w", err)
	}
	s := &Store{dir: dir, opts: opts, remote: opts.Remote}
	s.idx.reset()
	s.mu.Lock()
	s.scanLocked()
	s.mu.Unlock()
	return s, nil
}

// SetRemote installs (or clears) the pull-through tier after Open —
// the late-binding hook for callers that learn their peer addresses
// only once listeners are up.
func (s *Store) SetRemote(rem *Remote) {
	s.mu.Lock()
	s.remote = rem
	s.mu.Unlock()
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func artifactName(fp uint64) string { return fmt.Sprintf("%016x%s", fp, ext) }

func (s *Store) path(fp uint64) string { return filepath.Join(s.dir, artifactName(fp)) }

// headName names the head-pointer file for a design name. The name is
// hashed rather than embedded: design names are arbitrary strings, file
// names are not. Prior re-checks the decoded artifact's design name, so
// a hash collision degrades to a miss, never to wrong state.
func headName(designName string) string {
	h := fnv.New64a()
	h.Write([]byte(designName))
	return fmt.Sprintf("%016x%s", h.Sum64(), headExt)
}

func (s *Store) headPath(designName string) string {
	return filepath.Join(s.dir, headName(designName))
}

// parseHead validates a head-pointer payload: exactly one 16-hex-digit
// token, nothing else. Sscanf-style parsing accepted trailing garbage —
// a torn or concatenated write would quietly resolve to a wrong-but-
// well-formed fingerprint — so anything but the canonical form Put
// writes is malformed.
func parseHead(b []byte) (uint64, bool) {
	if len(b) != 16 {
		return 0, false
	}
	for _, c := range b {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return 0, false
		}
	}
	fp, err := strconv.ParseUint(string(b), 16, 64)
	return fp, err == nil
}

// scanLocked rebuilds the index from one listing of the directory:
// artifacts and sensitivity vectors ordered by mtime (oldest first),
// heads resolved to the artifacts they name. It removes stale staging
// files and, in a bounded store, orphaned heads: those whose artifact
// was evicted by another process or deleted, or whose bytes do not
// parse, which would otherwise accumulate one per design name forever.
// A failed listing keeps the old index. Requires s.mu held.
func (s *Store) scanLocked() {
	d, err := os.Open(s.dir)
	if err != nil {
		return
	}
	ents, err := d.ReadDir(-1) // unsorted: the entries are sorted by mtime below
	d.Close()
	if err != nil {
		return
	}
	s.opts.Obs.Counter("artifact.dir_scans").Inc()
	type stamped struct {
		name  string
		size  int64
		mtime time.Time
	}
	var files []stamped
	var heads []stamped
	cutoff := time.Now().Add(-tmpMaxAge)
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		kind := filepath.Ext(name)
		tmp := strings.HasPrefix(name, "put-") && kind == ".tmp"
		if kind != ext && kind != sensExt && kind != headExt && !tmp {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		switch {
		case tmp:
			if info.ModTime().Before(cutoff) && os.Remove(filepath.Join(s.dir, name)) == nil {
				s.opts.Obs.Counter("artifact.tmp_sweeps").Inc()
			}
		case kind == headExt:
			heads = append(heads, stamped{name: name, size: info.Size()})
		default:
			// Sensitivity vectors join the same LRU as artifacts: counted
			// against MaxBytes, evicted by age, no head bookkeeping.
			files = append(files, stamped{name: name, size: info.Size(), mtime: info.ModTime()})
		}
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].name < files[j].name
	})
	s.idx.reset()
	for _, f := range files {
		s.idx.use(f.name, f.size)
	}
	for _, h := range heads {
		target := ""
		if data, err := os.ReadFile(filepath.Join(s.dir, h.name)); err == nil {
			if fp, ok := parseHead(data); ok {
				target = artifactName(fp)
			}
		}
		s.idx.setHead(h.name, h.size, target)
		if _, ok := s.idx.files[target]; !ok && s.opts.MaxBytes > 0 {
			s.removeHeadLocked(h.name)
		}
	}
}

// Get loads and decodes the artifact for a's fingerprint. A clean miss
// returns (nil, nil, nil); a present-but-unreadable artifact (version
// skew, corruption) returns the decode error so callers can report it
// before regenerating — the next Put overwrites the bad entry.
func (s *Store) Get(a *core.Analyzer) (*core.Result, *sweep.Plan, error) {
	return s.GetContext(context.Background(), a)
}

// GetContext is Get with request-scoped tracing: the "artifact.restore"
// span nests under ctx's current span, its "outcome" attribute
// distinguishes warm-start hits from misses, remote-tier hits, and
// decode errors, and successful restores feed the
// artifact.restore_seconds latency histogram — the warm-start half of
// the warm-vs-cold budget. With a Remote configured, a local miss
// consults the owning peers before reporting a miss.
func (s *Store) GetContext(ctx context.Context, a *core.Analyzer) (*core.Result, *sweep.Plan, error) {
	fp := a.Fingerprint()
	sp := s.opts.Obs.StartSpanContext(ctx, "artifact.restore")
	defer sp.End()
	sp.SetAttr("fingerprint", fmt.Sprintf("%016x", fp))
	start := time.Now()
	path := s.path(fp)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		s.opts.Obs.Counter("artifact.store_misses").Inc()
		if res, plan, n := s.fetchRemote(ctx, a, fp); res != nil {
			s.opts.Obs.FixedHistogram("artifact.restore_seconds", obs.LatencyBuckets).
				Observe(time.Since(start).Seconds())
			sp.SetAttr("outcome", "remote")
			sp.SetAttr("bytes", n)
			return res, plan, nil
		}
		sp.SetAttr("outcome", "miss")
		return nil, nil, nil
	}
	if err != nil {
		s.opts.Obs.Counter("artifact.store_errors").Inc()
		sp.SetAttr("outcome", "error")
		return nil, nil, fmt.Errorf("artifact: reading %s: %w", path, err)
	}
	res, plan, err := Decode(data, a)
	if err != nil {
		s.opts.Obs.Counter("artifact.decode_errors").Inc()
		sp.SetAttr("outcome", "error")
		return nil, nil, fmt.Errorf("artifact: %s: %w", path, err)
	}
	s.touch(artifactName(fp), len(data))
	s.opts.Obs.Counter("artifact.store_hits").Inc()
	s.opts.Obs.FixedHistogram("artifact.restore_seconds", obs.LatencyBuckets).
		Observe(time.Since(start).Seconds())
	sp.SetAttr("outcome", "hit")
	sp.SetAttr("bytes", len(data))
	return res, plan, nil
}

// fetchRemote is the pull-through tier: peers are tried in rendezvous
// order for the fingerprint (the first choice is the peer a
// consistently-hashed fleet would have routed this design's solve to),
// fetched bytes are verified with the full CRC-checked Decode before
// anything is trusted, and a verified artifact is installed locally so
// the warm start survives the next restart too. Every failure mode is
// soft: a dead peer, a 404, or bytes that fail verification move on to
// the next peer and at worst degrade to a clean local miss.
func (s *Store) fetchRemote(ctx context.Context, a *core.Analyzer, fp uint64) (*core.Result, *sweep.Plan, int) {
	s.mu.Lock()
	rem := s.remote
	s.mu.Unlock()
	if rem == nil || len(rem.Peers) == 0 {
		return nil, nil, 0
	}
	client := rem.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	key := fmt.Sprintf("%016x", fp)
	sp := obs.SpanFromContext(ctx)
	for _, peer := range fleet.Rank(key, rem.Peers) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/artifacts/"+key, nil)
		if err != nil {
			s.opts.Obs.Counter("artifact.remote_errors").Inc()
			continue
		}
		if sp != nil && !sp.TraceID().IsZero() {
			req.Header.Set("traceparent", obs.FormatTraceparent(sp.TraceID(), sp.SpanID()))
		}
		resp, err := client.Do(req)
		if err != nil {
			s.opts.Obs.Counter("artifact.remote_errors").Inc()
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			s.opts.Obs.Counter("artifact.remote_errors").Inc()
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxRemoteArtifactBytes))
		resp.Body.Close()
		if err != nil {
			s.opts.Obs.Counter("artifact.remote_errors").Inc()
			continue
		}
		// Verify before trusting: the peer's bytes go through the same
		// fingerprint + CRC gates a local read gets, so a stale, torn, or
		// hostile payload is indistinguishable from a miss, never state.
		res, plan, err := Decode(data, a)
		if err != nil {
			s.opts.Obs.Counter("artifact.remote_errors").Inc()
			continue
		}
		// Install locally (atomic temp + rename) so the pulled artifact
		// survives this process and serves the next peer's pull. Failure
		// to persist must not fail the hit.
		s.mu.Lock()
		if err := s.installLocked(data, fp, res.Analyzer.G.Design.Name); err != nil {
			s.opts.Obs.Counter("artifact.store_errors").Inc()
		}
		s.mu.Unlock()
		s.opts.Obs.Counter("artifact.remote_hits").Inc()
		return res, plan, len(data)
	}
	s.opts.Obs.Counter("artifact.remote_misses").Inc()
	return nil, nil, 0
}

// Raw returns the stored artifact bytes for a fingerprint without
// decoding — the serving side of the remote tier (the peer verifies).
// The read counts as an access for LRU purposes. Missing entries
// return an error satisfying errors.Is(err, fs.ErrNotExist).
func (s *Store) Raw(fp uint64) ([]byte, error) {
	data, err := os.ReadFile(s.path(fp))
	if err != nil {
		return nil, err
	}
	s.touch(artifactName(fp), len(data))
	return data, nil
}

// touch marks a just-read file as the most recently used: its mtime
// (which orders the next scan, here and in any process sharing the
// directory) and its LRU position. The read itself happened outside
// s.mu; the mtime update happens under it so a racing eviction by this
// handle cannot be undone by re-indexing a removed file. Best-effort —
// a read-only store must not fail the hit.
func (s *Store) touch(name string, size int) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Chtimes(filepath.Join(s.dir, name), now, now); errors.Is(err, fs.ErrNotExist) {
		return
	}
	s.idx.use(name, int64(size))
}

// Put encodes res and installs it under the design fingerprint via an
// atomic write-rename, then evicts least-recently-used entries beyond
// MaxBytes. An existing entry for the same fingerprint is replaced.
func (s *Store) Put(res *core.Result) error {
	data, err := Encode(res)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.installLocked(data, res.Analyzer.Fingerprint(), res.Analyzer.G.Design.Name)
}

// installLocked writes encoded artifact bytes under fp (atomic temp +
// rename), leaves the name-keyed head pointer, and evicts beyond
// MaxBytes. Requires s.mu held. Shared by Put and the remote tier's
// pull-through install.
func (s *Store) installLocked(data []byte, fp uint64, designName string) error {
	name := artifactName(fp)
	if err := s.writeAtomic(name, data); err != nil {
		return fmt.Errorf("artifact: writing %s: %w", filepath.Join(s.dir, name), err)
	}
	s.idx.use(name, int64(len(data)))
	s.opts.Obs.Counter("artifact.store_puts").Inc()
	// Leave the name-keyed head pointer for incremental re-solves — also
	// temp + rename, so a racing Prior (possibly in another process
	// sharing the directory) never reads a torn pointer. Best-effort: the
	// pointer is an optimization, and a stale or missing one only costs a
	// cold solve.
	head := headName(designName)
	ptr := fmt.Sprintf("%016x", fp)
	if err := s.writeAtomic(head, []byte(ptr)); err != nil {
		s.opts.Obs.Counter("artifact.store_errors").Inc()
	} else {
		s.idx.setHead(head, int64(len(ptr)), name)
	}
	s.evictLocked(name)
	return nil
}

// writeAtomic installs data as the store file name via temp file +
// rename, so no reader — in this process or another sharing the
// directory — ever observes a partial file.
func (s *Store) writeAtomic(name string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("staging write: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Chmod(tmp.Name(), 0o644)
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), filepath.Join(s.dir, name))
	}
	if werr != nil {
		os.Remove(tmp.Name())
	}
	return werr
}

// Prior loads the most recently Put artifact for a design *name* —
// regardless of fingerprint — and distills it into the seed state
// core.ResolveIncremental consumes. This is the edited-design path: the
// edit changed the fingerprint, so GetContext misses, but the prior
// artifact still describes every FUB the edit left alone. A clean miss
// (no head pointer, or it names an evicted artifact) returns (nil, nil);
// unreadable bytes return the decode error so callers can report before
// regenerating.
func (s *Store) Prior(ctx context.Context, designName string) (*core.PriorState, error) {
	sp := s.opts.Obs.StartSpanContext(ctx, "artifact.prior")
	defer sp.End()
	sp.SetAttr("design", designName)
	headData, err := os.ReadFile(s.headPath(designName))
	if errors.Is(err, fs.ErrNotExist) {
		sp.SetAttr("outcome", "miss")
		return nil, nil
	}
	if err != nil {
		sp.SetAttr("outcome", "error")
		return nil, fmt.Errorf("artifact: reading head pointer for %q: %w", designName, err)
	}
	fp, ok := parseHead(headData)
	if !ok {
		sp.SetAttr("outcome", "error")
		return nil, fmt.Errorf("artifact: head pointer for %q is malformed", designName)
	}
	path := s.path(fp)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		sp.SetAttr("outcome", "miss")
		return nil, nil
	}
	if err != nil {
		sp.SetAttr("outcome", "error")
		return nil, fmt.Errorf("artifact: reading %s: %w", path, err)
	}
	ps, err := priorAt(data, fp)
	if err != nil {
		s.opts.Obs.Counter("artifact.decode_errors").Inc()
		sp.SetAttr("outcome", "error")
		return nil, fmt.Errorf("artifact: %s: %w", path, err)
	}
	if ps.Design != designName {
		// Head-pointer hash collision between two design names.
		sp.SetAttr("outcome", "miss")
		return nil, nil
	}
	s.touch(artifactName(fp), len(data))
	sp.SetAttr("outcome", "hit")
	sp.SetAttr("fingerprint", fmt.Sprintf("%016x", fp))
	return ps, nil
}

// priorAt decodes the prior state of the artifact a head pointer names.
// No section CRC covers the header fingerprint, and DecodePrior skips
// it (an edited design's differs by construction). The head names fp
// as the fingerprint these bytes must carry, so a mismatch is
// corruption.
func priorAt(data []byte, fp uint64) (*core.PriorState, error) {
	got, payloads, err := readSections(data)
	if err != nil {
		return nil, err
	}
	if got != fp {
		return nil, fmt.Errorf("%w: header fingerprint %016x, head names %016x", ErrCorrupt, got, fp)
	}
	return decodePrior(payloads)
}

// evictLocked runs after every write: it counts the write, rescans
// the directory when the index is due (see index), then pops
// least-recently-used entries until the store fits MaxBytes, never
// evicting keep, the entry just written. Unbounded stores skip it all.
// Requires s.mu held.
//
// Accounting covers everything the store writes: artifact bytes,
// sensitivity-vector bytes, AND head-pointer bytes (SizeBytes reports
// the same set). Each evicted artifact takes its now-dangling head
// pointers with it.
func (s *Store) evictLocked(keep string) {
	if s.opts.MaxBytes <= 0 {
		return
	}
	s.idx.writes++
	if s.idx.writes >= max(1, s.idx.entries()/8) {
		s.scanLocked()
	}
	for el := s.idx.lru.Front(); el != nil && s.idx.bytes > s.opts.MaxBytes; {
		next := el.Next()
		if fe := el.Value.(*fileEntry); fe.name != keep {
			s.removeLocked(el)
		}
		el = next
	}
}

// removeLocked evicts one LRU entry and the heads naming it. A file
// already gone (another process evicted it) just leaves the index; one
// that cannot be removed stays indexed and is skipped.
func (s *Store) removeLocked(el *list.Element) {
	fe := el.Value.(*fileEntry)
	err := os.Remove(filepath.Join(s.dir, fe.name))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return
	}
	if err == nil {
		s.opts.Obs.Counter("artifact.evictions").Inc()
	}
	s.idx.drop(el)
	for head, he := range s.idx.heads {
		if he.target == fe.name {
			s.removeHeadLocked(head)
		}
	}
}

func (s *Store) removeHeadLocked(head string) {
	err := os.Remove(filepath.Join(s.dir, head))
	if err == nil {
		s.opts.Obs.Counter("artifact.head_evictions").Inc()
	}
	if err == nil || errors.Is(err, fs.ErrNotExist) {
		s.idx.dropHead(head)
	}
}

// Len reports the number of artifacts currently stored (head pointers
// are bookkeeping, not artifacts, and are not counted).
func (s *Store) Len() int {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, de := range ents {
		if !de.IsDir() && filepath.Ext(de.Name()) == ext {
			n++
		}
	}
	return n
}

// SizeBytes reports the store's total size on disk: artifacts,
// sensitivity vectors, and head pointers — the same set eviction
// accounts against MaxBytes.
func (s *Store) SizeBytes() int64 {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		switch filepath.Ext(de.Name()) {
		case ext, headExt, sensExt:
			if info, err := de.Info(); err == nil {
				total += info.Size()
			}
		}
	}
	return total
}

// GetPlan and PutPlan make *Store a sweep.PlanStore: the engine's
// second-level cache behind its in-memory LRU. GetPlan maps decode
// failures to errors (the engine counts them and recompiles) and clean
// misses to (nil, nil). The context carries the request's trace state
// so the restore span lands under the engine's "sweep.plan" span.
func (s *Store) GetPlan(ctx context.Context, res *core.Result) (*sweep.Plan, error) {
	_, plan, err := s.GetContext(ctx, res.Analyzer)
	return plan, err
}

// PutPlan persists res under the design fingerprint. p is unused: the
// result carries the set table the plan was compiled from, and that
// table is what the artifact stores. The parameter stays because
// PutPlan implements sweep.PlanStore.
func (s *Store) PutPlan(res *core.Result, p *sweep.Plan) error {
	return s.Put(res)
}
