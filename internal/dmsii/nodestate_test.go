package dmsii

import (
	"bytes"
	"slices"
	"testing"

	"sim/internal/fault"
	"sim/internal/pager"
	"sim/internal/wal"
)

func setNodeState(t *testing.T, s *Store, st NodeState) {
	t.Helper()
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetNodeState(st); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// raiseStatsVersion raises s's statistics version n times in one commit.
func raiseStatsVersion(t *testing.T, s *Store, n int) {
	t.Helper()
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for range n {
		if err := s.RaiseStatsVersion(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestShippedMetaPageKeepsNodeState ships the primary's page 0, whose
// record differs from the node's, in a replicated group and in a snapshot
// image: the node keeps its own record, through a restart too, and takes
// the rest of the page — the directory the shipped rows hang from, and
// the statistics version of the shipped statistics.
func TestShippedMetaPageKeepsNodeState(t *testing.T) {
	primary, _, _ := newFaultStore(t, fault.NewInjector())
	node, dbImg, walImg := newFaultStore(t, fault.NewInjector())
	mine := NodeState{Epoch: 3, MaxSeen: 4, Follow: Position{Epoch: 2, Run: 7, Pos: 11}}
	setNodeState(t, node, mine)
	setNodeState(t, primary, NodeState{Epoch: 9, MaxSeen: 9, Follow: Position{Epoch: 8, Run: 5, Pos: 99}})
	raiseStatsVersion(t, node, 1)
	raiseStatsVersion(t, primary, 3)
	pa, err := primary.Structure("a")
	if err != nil {
		t.Fatal(err)
	}
	commitPut(t, primary, pa, "k", "image")
	check := func(s *Store, when, want string, version uint64) {
		t.Helper()
		if st, err := s.NodeState(); err != nil || st != mine {
			t.Fatalf("%s: record = %+v (err %v), want %+v", when, st, err, mine)
		}
		sn := s.PinSnapshot()
		defer sn.Release()
		if v, err := sn.StatsVersion(); err != nil || v != version {
			t.Fatalf("%s: statistics version %d (err %v), want the primary's %d", when, v, err, version)
		}
		st, err := sn.Structure("a")
		if err != nil {
			t.Fatal(err)
		}
		if v, _, err := st.Get([]byte("k")); err != nil || string(v) != want {
			t.Fatalf("%s: k = %q (err %v), want %q", when, v, err, want)
		}
	}

	img, _, err := primary.SnapshotImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.ReplaceImage(img, nil); err != nil {
		t.Fatal(err)
	}
	check(node, "after the snapshot install", "image", 3)

	var group []pager.PageImage
	primary.SetCommitHook(func(g wal.CommitGroup) uint64 {
		for _, im := range g.Images {
			group = append(group, pager.PageImage{ID: im.ID, Data: bytes.Clone(im.Data)})
		}
		return 0
	})
	tx, err := primary.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetNodeState(NodeState{Epoch: 10, MaxSeen: 12}); err != nil {
		t.Fatal(err)
	}
	if err := pa.Put([]byte("k"), []byte("group")); err != nil {
		t.Fatal(err)
	}
	if err := primary.RaiseStatsVersion(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(group, func(p pager.PageImage) bool { return p.ID == 0 }) {
		t.Fatal("the group does not carry page 0; the test lost its precondition")
	}
	if err := node.ApplyReplicated(group, nil); err != nil {
		t.Fatal(err)
	}
	check(node, "after the group", "group", 4)

	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := wal.OpenBacking(walImg)
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenFiles(pager.NewChecksumFile(dbImg), log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	check(reopened, "after a restart", "group", 4)
}
