package dmsii

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"sim/internal/btree"
	"sim/internal/pager"
)

// captureAudit records a CRC of every page a commit snapshot captured and
// checks it again when the snapshot is written back. A commit shares its
// frames' buffers instead of copying them, so a writer that changed a
// captured buffer in place — instead of swapping in a fresh one — would
// journal or write back bytes no commit produced.
type captureAudit struct {
	mu      sync.Mutex
	crcs    map[*pager.Snapshot][]uint32
	commits int
	errs    []string
}

func (a *captureAudit) observe(snap *pager.Snapshot, writeBack bool) {
	frames := snap.Frames()
	sums := make([]uint32, len(frames))
	for i, f := range frames {
		sums[i] = crc32.ChecksumIEEE(f.Data)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !writeBack {
		a.crcs[snap] = sums
		a.commits++
		return
	}
	for i, f := range frames {
		if want := a.crcs[snap][i]; sums[i] != want && len(a.errs) < 10 {
			a.errs = append(a.errs, fmt.Sprintf("commit stamp %d: page %d changed between capture (crc %08x) and write-back (crc %08x)",
				snap.Stamp(), f.ID, want, sums[i]))
		}
	}
	delete(a.crcs, snap)
}

// TestCapturedImagesImmutableUnderBufferReuse runs two writers and two
// snapshot readers on a file store with a 16-page pool, so eviction keeps
// recycling frame buffers. The writers commit at least 2000 transfers
// (rolling back every tenth attempt); each commit's captured images must
// be unchanged from capture to write-back while the other writer runs in
// the commit's fsync window. Afterwards Scrub must pass and a reopened
// store must hold exactly the last published state.
func TestCapturedImagesImmutableUnderBufferReuse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "capture.db")
	s, err := OpenFile(path, Options{PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if s != nil {
			s.Close()
		}
	}()
	audit := &captureAudit{crcs: make(map[*pager.Snapshot][]uint32)}
	s.auditCapture = audit.observe

	keys := openAccounts(t, s)
	const total = reuseAccounts * reuseOpening

	const perWriter = 1000
	stop := make(chan struct{})
	errs := make(chan error, 4)
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for n, committed := 0, 0; committed < perWriter; n++ {
				abort := n%10 == 9
				if err := transfer(s, keys, rng, abort); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				if !abort {
					committed++
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			var cur btree.Cursor
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := auditSnapshot(s, keys, total, &cur); err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	audit.mu.Lock()
	for _, e := range audit.errs {
		t.Error(e)
	}
	if audit.commits < 2*perWriter || len(audit.crcs) != 0 {
		t.Errorf("%d commits audited, %d never written back; want at least %d, all written back", audit.commits, len(audit.crcs), 2*perWriter)
	}
	audit.mu.Unlock()
	if st := s.Stats(); st.BuffersReused == 0 {
		t.Fatalf("no buffer reuse (%+v); the test lost its preconditions", st)
	}
	if t.Failed() {
		return
	}

	final := publishedState(t, s, keys)
	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatal(rep)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = OpenFile(path, Options{PoolPages: 16}); err != nil {
		t.Fatal(err)
	}
	reopened := publishedState(t, s, keys)
	for i, k := range keys {
		if !bytes.Equal(final[i], reopened[i]) {
			t.Errorf("account %q reopened as %q, published as %q", k, reopened[i], final[i])
		}
	}
}

// publishedState reads every account at the newest published stamp.
func publishedState(t *testing.T, s *Store, keys [][]byte) [][]byte {
	t.Helper()
	sn := s.PinSnapshot()
	defer sn.Release()
	st, err := sn.Structure("acct")
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(keys))
	for i, k := range keys {
		v, ok, err := st.Get(k)
		if err != nil || !ok {
			t.Fatalf("account %q: found %v, %v", k, ok, err)
		}
		out[i] = v
	}
	return out
}
