package repl

import (
	"fmt"

	"sim"
)

// The fencing term is the Epoch of the database's record (see
// dmsii.NodeState). It advances only on promotion, never on a plain
// restart, so a crashed-and-restarted primary comes back with the same
// epoch and is strictly below any follower promoted in its absence.
// MaxSeen is the highest epoch the node has witnessed (its own, or a
// higher one learned through fencing); MaxSeen > Epoch means the node was
// fenced and must not accept writes until a promotion claims a term above
// it. Each change is one commit of the meta page, made while no publisher
// is attached to the commit hook and no follower applies.

// ClaimEpoch returns the epoch db's node publishes under: a fresh node
// claims epoch 1, a restart keeps its term. fencedBy is non-zero when the
// node has witnessed a higher epoch than its own: the caller must start
// fenced (read-only) rather than accept writes a newer primary will never
// see.
func ClaimEpoch(db *sim.Database) (epoch, fencedBy uint64, err error) {
	st, err := db.NodeState()
	if err == nil && st.Epoch == 0 {
		st.Epoch, st.MaxSeen = 1, max(st.MaxSeen, 1)
		err = db.SetNodeState(st)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("repl: claim epoch: %w", err)
	}
	if st.MaxSeen > st.Epoch {
		fencedBy = st.MaxSeen
	}
	return st.Epoch, fencedBy, nil
}

// AdvanceEpoch durably records a promotion: the node now owns epoch, and
// has seen at least it. It must commit before the new primary publishes
// anything, so a crash mid-promotion cannot resurrect the node at its old
// term.
func AdvanceEpoch(db *sim.Database, epoch uint64) error {
	st, err := db.NodeState()
	if err == nil {
		st.Epoch, st.MaxSeen = epoch, max(st.MaxSeen, epoch)
		err = db.SetNodeState(st)
	}
	if err != nil {
		return fmt.Errorf("repl: advance epoch: %w", err)
	}
	return nil
}

// WitnessEpoch durably records that a higher epoch exists. A fenced
// primary calls it so that even after a restart it comes back fenced
// instead of re-claiming its stale term.
func WitnessEpoch(db *sim.Database, seen uint64) error {
	st, err := db.NodeState()
	if err == nil && seen > st.MaxSeen {
		st.MaxSeen = seen
		err = db.SetNodeState(st)
	}
	if err != nil {
		return fmt.Errorf("repl: witness epoch: %w", err)
	}
	return nil
}
