package dmsii

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"sim/internal/fault"
	"sim/internal/pager"
	"sim/internal/wal"
)

// Snaps at one stamp share one View and its structure handles. These
// tests pin what makes that sharing safe: every change to a follower's
// pages publishes a new stamp, and readers at a stamp keep reading that
// stamp's state while a writer publishes newer ones.

func rowKey(i int) []byte { return []byte(fmt.Sprintf("row-%05d", i)) }

// readAll reads every key of name through sn with point Gets (which, unlike
// a cursor's sibling walk, only reach keys routed from the handle's root),
// failing on the first one missing.
func readAll(t *testing.T, sn *Snap, name string, keys [][]byte) {
	t.Helper()
	st, err := sn.Structure(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, ok, err := st.Get(k); err != nil || !ok {
			t.Fatalf("%s: key %q not found at stamp %d (err %v)", name, k, sn.Stamp(), err)
		}
	}
}

// TestFollowerRefreshesStampTable: a follower installs primary pages,
// either as applied groups or as a snapshot install; both commit them
// under a new published stamp. A view cached before must not serve
// readers after — the install created structure b and split a's root, and
// a reader pinned afterwards sees both — and a reader still holding a
// view from before keeps reading the state it pinned.
func TestFollowerRefreshesStampTable(t *testing.T) {
	for _, ship := range []struct {
		name string
		do   func(t *testing.T, primary, follower *Store, groups []wal.CommitGroup)
	}{
		{"ApplyReplicated", func(t *testing.T, _, follower *Store, groups []wal.CommitGroup) {
			for _, g := range groups {
				if err := follower.ApplyReplicated(g.Images, nil); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"ReplaceImage", func(t *testing.T, primary, follower *Store, _ []wal.CommitGroup) {
			img, _, err := primary.SnapshotImage(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := follower.ReplaceImage(img, nil); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(ship.name, func(t *testing.T) {
			primary, _, _ := newFaultStore(t, fault.NewInjector())
			follower, _, _ := newFaultStore(t, fault.NewInjector())
			var mu sync.Mutex
			var groups []wal.CommitGroup
			primary.SetCommitHook(func(g wal.CommitGroup) uint64 {
				imgs := make([]pager.PageImage, len(g.Images))
				for i, im := range g.Images {
					imgs[i] = pager.PageImage{ID: im.ID, Data: bytes.Clone(im.Data)}
				}
				mu.Lock()
				groups = append(groups, wal.CommitGroup{Images: imgs})
				mu.Unlock()
				return 0
			})
			a, err := primary.Structure("a")
			if err != nil {
				t.Fatal(err)
			}
			var aKeys [][]byte
			for i := 0; i < 10; i++ {
				aKeys = append(aKeys, rowKey(i))
				commitPut(t, primary, a, string(rowKey(i)), "small")
			}
			img, _, err := primary.SnapshotImage(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := follower.ReplaceImage(img, nil); err != nil {
				t.Fatal(err)
			}

			// A reader caches the follower's view: a's root, b absent.
			before := follower.PinSnapshot()
			readAll(t, before, "a", aKeys)
			if st, err := before.Structure("b"); err != nil {
				t.Fatal(err)
			} else if _, ok, _ := st.Get(rowKey(0)); ok {
				t.Fatal("b has rows before the primary created it")
			}
			before.Release()

			// The primary creates b and grows a past a root split.
			mu.Lock()
			groups = nil
			mu.Unlock()
			rootBefore := a.tree.Root()
			tx, err := primary.Begin()
			if err != nil {
				t.Fatal(err)
			}
			b, err := primary.Structure("b")
			if err != nil {
				t.Fatal(err)
			}
			put(t, b, string(rowKey(0)), "b-row")
			for i := 10; i < 200; i++ {
				aKeys = append(aKeys, rowKey(i))
				put(t, a, string(rowKey(i)), string(bytes.Repeat([]byte("v"), 100)))
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if a.tree.Root() == rootBefore {
				t.Fatal("a's root did not split; the test needs more rows")
			}
			mu.Lock()
			shipped := groups
			mu.Unlock()
			held := follower.PinSnapshot()
			defer held.Release()
			ship.do(t, primary, follower, shipped)

			after := follower.PinSnapshot()
			defer after.Release()
			if after.Stamp() == held.Stamp() {
				t.Fatalf("follower stamp stayed at %d across the install", held.Stamp())
			}
			readAll(t, held, "a", aKeys[:10])
			if st, err := held.Structure("b"); err != nil {
				t.Fatal(err)
			} else if _, ok, _ := st.Get(rowKey(0)); ok {
				t.Fatal("a view pinned before the install sees its structure b")
			}
			readAll(t, after, "a", aKeys)
			readAll(t, after, "b", [][]byte{rowKey(0)})
		})
	}
}

// TestSnapshotsShareStampTableUnderWriter: readers pinned at a stamp read
// a consistent pair — every row has its index entry and nothing else —
// while a writer publishes newer stamps, creates a structure midway and
// splits roots; Snaps at one stamp share one view. Run under -race.
func TestSnapshotsShareStampTableUnderWriter(t *testing.T) {
	s := memStore(t)
	const n, lateAt = 300, 150
	val := func(i int) []byte {
		return append([]byte(fmt.Sprintf("val-%05d-", i)), bytes.Repeat([]byte("v"), 48)...)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < n; i++ {
			tx, err := s.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			write := func(name string, k, v []byte) error {
				st, err := s.Structure(name)
				if err != nil {
					return err
				}
				return st.Put(k, v)
			}
			err = write("rows", rowKey(i), val(i))
			if err == nil {
				err = write("ix", val(i), rowKey(i))
			}
			if err == nil && i == lateAt {
				err = write("late", rowKey(i), nil)
			}
			if err != nil {
				tx.Rollback()
				t.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// check reads one snapshot's rows, index and late structure, returning
	// the row count.
	check := func(sn *Snap) (int, error) {
		rows, err := sn.Structure("rows")
		if err != nil {
			return 0, err
		}
		ix, err := sn.Structure("ix")
		if err != nil {
			return 0, err
		}
		late, err := sn.Structure("late")
		if err != nil {
			return 0, err
		}
		c, err := rows.First()
		if err != nil {
			return 0, err
		}
		nrows := 0
		for ; c.Valid(); c.Next() {
			k, ok, err := ix.Get(c.Value())
			if err != nil || !ok || !bytes.Equal(k, c.Key()) {
				return 0, fmt.Errorf("stamp %d: row %q has index entry %q (found %v, err %v)", sn.Stamp(), c.Key(), k, ok, err)
			}
			nrows++
		}
		if err := c.Err(); err != nil {
			return 0, err
		}
		ic, err := ix.First()
		if err != nil {
			return 0, err
		}
		nix := 0
		for ; ic.Valid(); ic.Next() {
			nix++
		}
		if nix != nrows {
			return 0, fmt.Errorf("stamp %d: %d rows but %d index entries", sn.Stamp(), nrows, nix)
		}
		_, hasLate, err := late.Get(rowKey(lateAt))
		if err != nil {
			return 0, err
		}
		if hasLate != (nrows > lateAt) {
			return 0, fmt.Errorf("stamp %d: %d rows, late structure row present=%v", sn.Stamp(), nrows, hasLate)
		}
		return nrows, nil
	}

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				sn := s.PinSnapshot()
				first, err := check(sn)
				if err == nil {
					runtime.Gosched() // let the writer publish past this stamp
					var again int
					if again, err = check(sn); err == nil && again != first {
						err = fmt.Errorf("stamp %d: %d rows, then %d", sn.Stamp(), first, again)
					}
				}
				sn.Release()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	sn1, sn2 := s.PinSnapshot(), s.PinSnapshot()
	defer sn1.Release()
	defer sn2.Release()
	if sn1.View != sn2.View {
		t.Fatal("two snapshots at one stamp built separate views")
	}
	if got, err := check(sn1); err != nil || got != n {
		t.Fatalf("final snapshot: %d rows, err %v; want %d", got, err, n)
	}
}

// TestSnapReleaseIsPerHolder: Snaps at one stamp are holders of one
// shared view. Releasing one Snap twice drops only its own reference:
// the other keeps reading its stamp and keeps it pinned after a later
// commit retires the view; its release unpins it.
func TestSnapReleaseIsPerHolder(t *testing.T) {
	s := memStore(t)
	st, err := s.Structure("a")
	if err != nil {
		t.Fatal(err)
	}
	commitPut(t, s, st, "old", "v")
	sn1, sn2 := s.PinSnapshot(), s.PinSnapshot()
	if sn1.View != sn2.View {
		t.Fatal("two snapshots at one stamp hold different views")
	}
	sn1.Release()
	sn1.Release()
	commitPut(t, s, st, "new", "v")
	if got := s.OldestPinned(); got != sn2.Stamp() {
		t.Fatalf("oldest pinned stamp %d, want the remaining holder's %d", got, sn2.Stamp())
	}
	readAll(t, sn2, "a", [][]byte{[]byte("old")})
	if a, err := sn2.Structure("a"); err != nil {
		t.Fatal(err)
	} else if _, ok, _ := a.Get([]byte("new")); ok {
		t.Fatal("a holder pinned before a commit sees its row")
	}
	sn2.Release()
	sn2.Release()
	if oldest, pub := s.OldestPinned(), s.Published(); oldest != pub {
		t.Fatalf("every holder released: oldest pinned stamp %d, published %d", oldest, pub)
	}
}

// TestViewFreshUnderConcurrentBuilds: readers rebuild the current view as
// fast as commits retire it, so builds overlap publishes. A view acquired
// after a commit returned is at that commit's stamp, and once the readers
// stop no stale view is left current to pin its stamp. Run under -race.
func TestViewFreshUnderConcurrentBuilds(t *testing.T) {
	s := memStore(t)
	st, err := s.Structure("a")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.AcquireView().Release()
			}
		}()
	}
	func() {
		defer func() {
			close(stop)
			wg.Wait()
		}()
		for i := 0; i < 2000; i++ {
			commitPut(t, s, st, "k", fmt.Sprint(i))
			v := s.AcquireView()
			stamp := v.Stamp()
			v.Release()
			if pub := s.Published(); stamp != pub {
				t.Fatalf("commit %d: view acquired after it returned is at stamp %d, published %d", i, stamp, pub)
			}
		}
	}()
	if oldest, pub := s.OldestPinned(), s.Published(); oldest != pub {
		t.Fatalf("readers gone: oldest pinned stamp %d, published %d", oldest, pub)
	}
}

// TestReplaceImageOverLocalHistory pins the fenced-rejoin case: a node
// that committed history of its own — version chains, capture stamps and
// more pages than the image — installs a primary's image. A view pinned
// before the install keeps reading the local history; views after it read
// the image's bytes, never a surviving chain entry. The pages past the
// image stay while the old view may read them, and the first checkpoint
// after it is gone cuts the file back to the image — but not below a
// page a later replicated group wrote there.
func TestReplaceImageOverLocalHistory(t *testing.T) {
	primary, _, _ := newFaultStore(t, fault.NewInjector())
	node, _, _ := newFaultStore(t, fault.NewInjector())
	pa, err := primary.Structure("a")
	if err != nil {
		t.Fatal(err)
	}
	commitPut(t, primary, pa, "k", "remote")
	na, err := node.Structure("a")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := node.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		put(t, na, string(rowKey(i)), string(bytes.Repeat([]byte("l"), 100)))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	commitPut(t, node, na, "k", "local-1")
	commitPut(t, node, na, "k", "local-2") // leaves local-1 on a version chain
	if node.LiveVersions() == 0 {
		t.Fatal("no retained version; the test lost its preconditions")
	}
	img, _, err := primary.SnapshotImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	imgPages := uint32(len(img) / pager.PageSize)
	if n := node.pool.NumPages(); n <= imgPages {
		t.Fatalf("node has %d pages, image %d; the test needs a longer node", n, imgPages)
	}

	get := func(sn *Snap, key string) string {
		t.Helper()
		st, err := sn.Structure("a")
		if err != nil {
			t.Fatal(err)
		}
		v, ok, err := st.Get([]byte(key))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return ""
		}
		return string(v)
	}
	filePages := func() uint32 {
		t.Helper()
		n, err := node.file.NumPages()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	held := node.PinSnapshot()
	if err := node.ReplaceImage(img, nil); err != nil {
		t.Fatal(err)
	}
	after := node.PinSnapshot()
	if got := get(after, "k"); got != "remote" {
		t.Fatalf("view after the install reads %q, want the image's remote", got)
	}
	if got := get(after, string(rowKey(0))); got != "" {
		t.Fatalf("view after the install reads local row %q", got)
	}
	after.Release()
	if got := get(held, "k"); got != "local-2" {
		t.Fatalf("view pinned before the install reads %q, want local-2", got)
	}
	if err := node.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := get(held, string(rowKey(299))); got == "" {
		t.Fatal("a checkpoint cut pages a view pinned before the install still reads")
	}
	if filePages() <= imgPages {
		t.Fatal("the file was cut while a view from before the install remains")
	}
	held.Release()
	if err := node.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := filePages(); got != imgPages {
		t.Fatalf("file holds %d pages after the old view went, want the image's %d", got, imgPages)
	}

	// Install again over the same local history, then apply a group in
	// which the primary grew past the image: the cut stops above it.
	if na, err = node.Structure("a"); err != nil {
		t.Fatal(err)
	}
	tx, err = node.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		put(t, na, string(rowKey(i)), string(bytes.Repeat([]byte("l"), 100)))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := node.ReplaceImage(img, nil); err != nil {
		t.Fatal(err)
	}
	var group []pager.PageImage
	primary.SetCommitHook(func(g wal.CommitGroup) uint64 {
		for _, im := range g.Images {
			group = append(group, pager.PageImage{ID: im.ID, Data: bytes.Clone(im.Data)})
		}
		return 0
	})
	tx, err = primary.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		put(t, pa, string(rowKey(i)), string(bytes.Repeat([]byte("r"), 100)))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	grown := primary.pool.NumPages()
	if grown <= imgPages || grown >= node.pool.NumPages() {
		t.Fatalf("primary grew to %d pages (image %d, node %d); the test needs it in between", grown, imgPages, node.pool.NumPages())
	}
	if err := node.ApplyReplicated(group, nil); err != nil {
		t.Fatal(err)
	}
	if err := node.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := filePages(); got != grown {
		t.Fatalf("file holds %d pages after the group, want the primary's %d", got, grown)
	}
	sn := node.PinSnapshot()
	defer sn.Release()
	if got := get(sn, "k"); got != "remote" {
		t.Fatalf("after the group the node reads k=%q, want remote", got)
	}
	for i := 0; i < 100; i++ {
		if got := get(sn, string(rowKey(i))); got != string(bytes.Repeat([]byte("r"), 100)) {
			t.Fatalf("after the group the node reads row %d = %q", i, got)
		}
	}
	if rep, err := node.Scrub(); err != nil || !rep.OK() {
		t.Fatalf("scrub after the cut: %v %+v", err, rep)
	}
}
