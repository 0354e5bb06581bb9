// Sensitivity-vector side artifacts (.sens). A harden request's term
// gradient depends only on (design fingerprint, environment hash), so
// the pair names a tiny cacheable file alongside the design's .sart
// artifact. The store knows nothing of the payload — harden owns the
// CRC-checked codec — it just provides the same atomic-install,
// LRU-accounted persistence artifacts get. *Store implements
// harden.SensStore.

package artifact

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// sensExt names sensitivity-vector files; the key is the design
// fingerprint plus the environment hash the gradient was evaluated
// under.
const sensExt = ".sens"

func sensName(fp, envHash uint64) string {
	return fmt.Sprintf("%016x-%016x%s", fp, envHash, sensExt)
}

// GetSens returns the cached sensitivity vector for (fp, envHash), or
// (nil, nil) on a clean miss. Payload integrity is the caller's job
// (harden.DecodeVector is CRC-checked); a corrupt file surfaces there
// and the recompute's PutSens overwrites it. The read holds no lock, so
// it never waits on a concurrent Put's write or eviction.
func (s *Store) GetSens(fp, envHash uint64) ([]byte, error) {
	name := sensName(fp, envHash)
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		s.opts.Obs.Counter("artifact.store_errors").Inc()
		return nil, fmt.Errorf("artifact: reading sensitivity vector: %w", err)
	}
	// Freshen the entry so a hot vector survives LRU eviction, mirroring
	// how artifact reads keep warm entries alive.
	s.touch(name, len(data))
	return data, nil
}

// PutSens installs a sensitivity vector via the store's atomic
// temp+rename protocol, then re-evicts: .sens files count against
// MaxBytes and age out of the same LRU as artifacts.
func (s *Store) PutSens(fp, envHash uint64, data []byte) error {
	name := sensName(fp, envHash)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeAtomic(name, data); err != nil {
		s.opts.Obs.Counter("artifact.store_errors").Inc()
		return fmt.Errorf("artifact: writing %s: %w", filepath.Join(s.dir, name), err)
	}
	s.idx.use(name, int64(len(data)))
	s.opts.Obs.Counter("artifact.sens_puts").Inc()
	s.evictLocked(name)
	return nil
}
