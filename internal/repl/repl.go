// Package repl is the log-shipping replication subsystem: a primary-side
// Publisher that turns the WAL's committed page groups into a stream of
// positioned frames (plus base snapshots for followers that start cold or
// fall behind the retained tail), and a follower-side Applier/Follower
// pair that replays those frames into a read-only replica database.
//
// Protocol (over the wire package's framing, after the normal Hello):
//
//	follower → primary   ReplHello{epoch, run, pos}   subscribe from a position
//	primary → follower   ReplSnapshot chunks          when the position is gone
//	primary → follower   ReplFrames                   committed groups + heartbeats
//	follower → primary   ReplAck{pos}                 applied position (staleness)
//
// Two identifiers scope a position. The epoch is the persisted fencing
// term (ClaimEpoch/AdvanceEpoch): it advances only when a follower is
// promoted (Follower.Promote), never on a plain restart, so epoch order
// is ownership order — a primary that learns of a higher epoch (via a
// follower's ReplHello or a Retarget frame) fences itself read-only. The
// run is a random nonce drawn each time a Publisher opens: positions are
// assigned monotonically from 1 per run, so a follower may resume a
// stream only when both epoch and run match, and a restarted primary's
// fresh counter can never be confused with history a follower applied
// before the restart. The WAL's own sequence numbers restart whenever the
// log is reopened, which is exactly why the Publisher keeps its own
// counter: a position survives checkpoints, and "position no longer
// available" (evicted from the in-memory ring, or from another epoch or
// run) is answered with a fresh snapshot rather than an error.
//
// Consistency: replication is asynchronous and the replica is read-only,
// so a follower serves a bounded-stale but always transaction-consistent
// view — groups are applied atomically through the follower's own WAL,
// and the applied position only advances after the group is durable.
package repl

import "errors"

// ErrSnapshotNeeded reports that a follower's position cannot be served
// from the retained tail — it predates the ring, or belongs to another
// epoch — and the follower must be re-seeded with a base snapshot.
var ErrSnapshotNeeded = errors.New("repl: position no longer available; snapshot needed")

// ErrStopped reports that a subscription's Next was interrupted by its
// stop channel (connection gone, server draining).
var ErrStopped = errors.New("repl: subscription stopped")
