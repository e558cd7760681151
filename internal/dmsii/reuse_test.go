package dmsii

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"sim/internal/btree"
	"sim/internal/pager"
	"sim/internal/wal"
)

// Transfer accounts for TestSnapshotReadsUnderBufferReuse: each value
// echoes its key, so a leaf read out of a buffer that was reused for
// another page shows up as a wrong echo, a wrong total, or a malformed
// node.
const (
	reuseAccounts  = 240
	reuseOpening   = 1000
	reuseTransfers = 1000
)

func reuseValue(key []byte, bal int) []byte {
	v := fmt.Appendf(nil, "%s:%010d:", key, bal)
	return append(v, bytes.Repeat([]byte{'.'}, 150)...)
}

func reuseBalance(key, val []byte) (int, error) {
	rest, ok := bytes.CutPrefix(val, append(append([]byte(nil), key...), ':'))
	if !ok || len(rest) < 11 || rest[10] != ':' {
		return 0, fmt.Errorf("value of %q is %.40q: not its own", key, val)
	}
	return strconv.Atoi(string(rest[:10]))
}

// TestSnapshotReadsUnderBufferReuse runs snapshot readers against a 16-page
// pool, so nearly every page a reader touches is a miss that evicts a frame
// another reader may be reading. Each reader pins a view, sums every
// account by a full scan and again by point probes, and requires the
// opening total both times, while a writer commits transfers and
// sometimes opens copy-on-write cycles it then rolls back — the rollback
// puts version-chain buffers back into frames. A frame buffer reused for
// another page while a reader still holds it corrupts some read.
func TestSnapshotReadsUnderBufferReuse(t *testing.T) {
	log, err := wal.OpenBacking(pager.NewMemByteFile())
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenFiles(pager.NewChecksumFile(pager.NewMemByteFile()), log, Options{PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := openAccounts(t, s)
	const total = reuseAccounts * reuseOpening

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	wg.Add(1)
	go func() { // the writer; its last transfer stops the readers
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(1))
		for n := 0; n < reuseTransfers; n++ {
			if err := transfer(s, keys, rng, n%4 == 3); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
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
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := s.Stats(); st.BuffersReused == 0 || st.Misses == 0 {
		t.Fatalf("no buffer reuse (%+v); the test lost its preconditions", st)
	}
}

// openAccounts commits the opening balance of every account and returns
// the account keys.
func openAccounts(t *testing.T, s *Store) [][]byte {
	t.Helper()
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Structure("acct")
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, reuseAccounts)
	for i := range keys {
		keys[i] = rowKey(i)
		if err := st.Put(keys[i], reuseValue(keys[i], reuseOpening)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return keys
}

// transfer moves a random amount between two accounts in one commit. With
// abort set it also opens copy-on-write cycles on a few pages without
// changing them, and rolls the whole transaction back. It opens the
// accounts structure under the write latch: a rollback drops the live
// structure handles.
func transfer(s *Store, keys [][]byte, rng *rand.Rand, abort bool) error {
	tx, err := s.Begin()
	if err != nil {
		return err
	}
	st, err := s.Structure("acct")
	if err != nil {
		tx.Rollback()
		return err
	}
	from, to := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
	amt := rng.Intn(50)
	for _, leg := range []struct {
		key   []byte
		delta int
	}{{from, -amt}, {to, amt}} {
		v, ok, err := st.Get(leg.key)
		if err == nil && !ok {
			err = fmt.Errorf("writer: account %q missing", leg.key)
		}
		if err != nil {
			tx.Rollback()
			return err
		}
		bal, err := reuseBalance(leg.key, v)
		if err == nil {
			err = st.Put(leg.key, reuseValue(leg.key, bal+leg.delta))
		}
		if err != nil {
			tx.Rollback()
			return err
		}
	}
	if !abort {
		return tx.Commit()
	}
	for i := 0; i < 4; i++ {
		f, err := s.Get(pager.PageID(1 + rng.Intn(int(s.pool.NumPages())-1)))
		if err != nil {
			tx.Rollback()
			return err
		}
		s.Prepare(f)
		s.Release(f)
	}
	return tx.Rollback()
}

// auditSnapshot pins a view and checks the total twice at its stamp: by a
// full scan, then by a point probe of every account.
func auditSnapshot(s *Store, keys [][]byte, total int, cur *btree.Cursor) error {
	sn := s.PinSnapshot()
	defer sn.Release()
	st, err := sn.Structure("acct")
	if err != nil {
		return err
	}
	sum, n := 0, 0
	if err := st.SeekRangeInto(cur, nil, nil); err != nil {
		return err
	}
	for ; cur.Valid(); cur.Next() {
		bal, err := reuseBalance(cur.Key(), cur.Value())
		if err != nil {
			return fmt.Errorf("scan at stamp %d: %w", sn.Stamp(), err)
		}
		sum += bal
		n++
	}
	if err := cur.Err(); err != nil {
		return err
	}
	if n != len(keys) || sum != total {
		return fmt.Errorf("scan at stamp %d: %d accounts holding %d, want %d holding %d", sn.Stamp(), n, sum, len(keys), total)
	}
	sum = 0
	for _, k := range keys {
		v, ok, err := st.Get(k)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("probe at stamp %d: account %q missing", sn.Stamp(), k)
		}
		bal, err := reuseBalance(k, v)
		if err != nil {
			return fmt.Errorf("probe at stamp %d: %w", sn.Stamp(), err)
		}
		sum += bal
	}
	if sum != total {
		return fmt.Errorf("probes at stamp %d: accounts hold %d, want %d", sn.Stamp(), sum, total)
	}
	return nil
}
