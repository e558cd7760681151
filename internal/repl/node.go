package repl

import (
	"fmt"
	"log/slog"
	"net"
	"sync"

	"sim"
	"sim/internal/wire"
)

// NodeConfig configures StartNode.
type NodeConfig struct {
	// Path is the database file. The node keeps its fencing epoch in
	// Path+".epoch" and a follower's apply position in Path+".repl". An
	// empty Path (an in-memory database) gives a node with no replication
	// role: it neither publishes nor follows.
	Path string
	// ReplicaOf, when set, starts the node as a read-only follower of the
	// primary at this address. It requires Path.
	ReplicaOf string
	// Advertise is the address other nodes reach this node at. After a
	// promotion the fencer hands it to the old primary as its rejoin
	// target; a host-less address (":1988") cannot be rejoined, so the
	// notice then only demotes.
	Advertise string
	// Follower tunes every follower the node starts: at ReplicaOf, or on
	// rejoining a new primary after a fence. Its Primary is set by the
	// node, and a nil Logger defaults to the node's.
	Follower FollowerConfig
	// Logger receives role transitions. Nil discards them.
	Logger *slog.Logger
}

// Node owns one database's replication role: whether it publishes,
// follows or neither, whether it accepts writes, and every transition
// between those — promotion by TPromote, fencing by a higher epoch
// (a TRetarget notice or a follower's ReplHello), rejoining the new
// primary as a follower, and the fencer a promoted node runs against its
// old primary. The server asks it before each write and each
// subscription, and forwards the role frames to it.
//
// A node promotes whenever it currently follows a primary, whatever role
// it started in; once a higher epoch has fenced it, it becomes writable
// again only through such a promotion, which claims a term above the
// fencing one (DESIGN.md §14).
type Node struct {
	db        *sim.Database
	epochPath string // "" for a static node: no sidecars, no rejoin
	statePath string
	advertise string
	fcfg      FollowerConfig
	log       *slog.Logger
	stop      chan struct{} // closed by Close; ends fencer retries
	stopOnce  sync.Once
	fencers   sync.WaitGroup

	mu       sync.Mutex
	pub      *Publisher // the stream this node publishes (sealed once fenced)
	fol      *Follower  // the stream this node applies; nil when it follows none
	readOnly bool       // a replica: writes answer CodeReadOnly
	fencedBy uint64     // the higher epoch that demoted this node; 0 = not fenced
	status   func() wire.ReplStatus
}

// StartNode claims db's replication role from cfg: a follower of
// cfg.ReplicaOf, a primary publishing under the epoch persisted beside
// cfg.Path (fenced from the start when the sidecar witnessed a higher
// one), or, without a Path, no role. The node runs until Close.
func StartNode(db *sim.Database, cfg NodeConfig) (*Node, error) {
	n := &Node{
		db:        db,
		advertise: cfg.Advertise,
		fcfg:      cfg.Follower,
		log:       cfg.Logger,
		stop:      make(chan struct{}),
	}
	if n.log == nil {
		n.log = slog.New(slog.DiscardHandler)
	}
	if n.fcfg.Logger == nil {
		n.fcfg.Logger = n.log
	}
	if cfg.Path == "" {
		if cfg.ReplicaOf != "" {
			return nil, fmt.Errorf("repl: a replica needs a database file")
		}
		return n, nil
	}
	n.epochPath, n.statePath = cfg.Path+".epoch", cfg.Path+".repl"
	if n.rejoinAddr() == "" {
		n.log.Warn("advertise address has no reachable host; after a promotion the old primary will be fenced but cannot rejoin this node — set -advertise for automatic failover recovery",
			"advertise", n.advertise)
	}
	if cfg.ReplicaOf != "" {
		if err := n.followLocked(cfg.ReplicaOf); err != nil {
			return nil, err
		}
		n.readOnly = true
		n.log.Info("replicating", "primary", cfg.ReplicaOf)
		return n, nil
	}
	epoch, fencedBy, err := ClaimEpoch(n.epochPath)
	if err != nil {
		return nil, err
	}
	if n.pub, err = NewPublisher(db, Config{Epoch: epoch}); err != nil {
		return nil, err
	}
	n.pub.RegisterMetrics(db.Metrics())
	if fencedBy > 0 {
		n.fencedBy = fencedBy
		n.pub.Seal()
		n.log.Warn("starting fenced: a higher epoch was witnessed before the last shutdown",
			"epoch", epoch, "fenced_by", fencedBy)
	} else {
		n.log.Info("publishing replication stream", "epoch", epoch)
	}
	return n, nil
}

// StaticNode is the role of a server whose caller manages replication
// itself: it publishes pub (when set), refuses writes when readOnly, and
// answers status from status when it neither publishes nor follows. It
// keeps no sidecars and never promotes or rejoins; a higher epoch still
// fences it.
func StaticNode(pub *Publisher, readOnly bool, status func() wire.ReplStatus) *Node {
	return &Node{pub: pub, readOnly: readOnly, status: status,
		log: slog.New(slog.DiscardHandler), stop: make(chan struct{})}
}

// Close stops the node's follower and its fencers, and waits for them; a
// fence attempt in flight ends within its dial timeout. The publisher
// stays hooked into the database, which outlives the node.
func (n *Node) Close() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.mu.Lock()
	f := n.fol
	n.mu.Unlock()
	if f != nil {
		f.Close()
	}
	n.fencers.Wait()
}

// WriteGate reports whether the node accepts a write: nil, or a
// CodeFenced or CodeReadOnly *wire.Error.
func (n *Node) WriteGate() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.fencedBy != 0 {
		return n.fencedErrLocked()
	}
	if n.readOnly {
		return &wire.Error{Code: wire.CodeReadOnly, Msg: "replica is read-only; send writes to the primary"}
	}
	return nil
}

func (n *Node) fencedErrLocked() error {
	return &wire.Error{Code: wire.CodeFenced,
		Msg: fmt.Sprintf("fenced by epoch %d; a newer primary owns this database", n.fencedBy)}
}

// Status answers ReplStatus from the stream the node follows, else the
// one it publishes, with the role "fenced" once a higher epoch demoted it.
func (n *Node) Status() wire.ReplStatus {
	n.mu.Lock()
	fol, pub, fn, fencedBy := n.fol, n.pub, n.status, n.fencedBy
	n.mu.Unlock()
	st := wire.ReplStatus{Role: "none"}
	switch {
	case fol != nil:
		st = fol.Status()
	case pub != nil:
		st = pub.Status()
	case fn != nil:
		st = fn()
	}
	if fencedBy != 0 {
		st.Role = "fenced"
		st.Epoch = max(st.Epoch, fencedBy)
	}
	return st
}

// Ready answers /readyz: a node that follows a primary is ready once its
// snapshot is installed and it is at most maxLag groups behind; any other
// node is ready as soon as it serves.
func (n *Node) Ready(maxLag uint64) bool {
	n.mu.Lock()
	f := n.fol
	n.mu.Unlock()
	return f == nil || f.Ready(maxLag)
}

// Promote turns the node into the primary and returns the epoch it owns.
// A node that follows a primary drains and seals its follower, claims a
// strictly higher epoch and publishes under it; it then fences its old
// primary in the background. A node that already publishes answers with
// its epoch, so a retried promotion converges, unless a higher epoch has
// fenced it since: that answers CodeFenced, for its sealed publisher
// would accept commits that replicate nowhere.
func (n *Node) Promote() (uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.fol == nil {
		switch {
		case n.pub == nil:
			return 0, &wire.Error{Code: wire.CodeProtocol, Msg: "this server is not a replica; nothing to promote"}
		case n.fencedBy != 0:
			return 0, n.fencedErrLocked()
		}
		return n.pub.Epoch(), nil
	}
	old := n.fol.Primary()
	pub, err := n.fol.Promote(n.epochPath)
	n.fol = nil // closed by Promote; a failed promotion leaves a \retarget to start a fresh one
	if err != nil {
		return 0, fmt.Errorf("promote: %w", err)
	}
	n.pub, n.readOnly, n.fencedBy = pub, false, 0
	pub.RegisterMetrics(n.db.Metrics())
	rejoin := n.rejoinAddr()
	if rejoin == "" {
		n.log.Warn("-advertise has no host; fencing the old primary without a rejoin target",
			"advertise", n.advertise, "old_primary", old)
	}
	n.fencers.Add(1)
	go func() {
		defer n.fencers.Done()
		runFencer(n.stop, old, pub.Epoch(), rejoin, n.log)
	}()
	return pub.Epoch(), nil
}

// rejoinAddr is the address the fencer delivers to the old primary as its
// rejoin target. A host-less advertise address would be resolved by the
// old primary as localhost — it would "rejoin" itself and loop on
// CodeFenced — so in that case the notice carries no address: the old
// primary demotes but waits for an operator \retarget.
func (n *Node) rejoinAddr() string {
	if host, _, err := net.SplitHostPort(n.advertise); err != nil || host == "" {
		return ""
	}
	return n.advertise
}

// Retarget serves a TRetarget notice: "epoch exists; its primary serves at
// addr". A node that has published treats it as a fence: an epoch above
// its own (and not below one that already fenced it) demotes it and, when
// addr is set, makes it follow addr; anything else is refused with
// CodeFenced, for the sender holds a stale term. A plain replica re-points
// its stream at addr, starting a fresh follower if a failed promotion
// closed the last one.
func (n *Node) Retarget(epoch uint64, addr string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pub == nil {
		switch {
		case !n.readOnly || n.statePath == "":
			return &wire.Error{Code: wire.CodeProtocol, Msg: "this server is not replicating; nothing to retarget"}
		case addr == "":
			return &wire.Error{Code: wire.CodeProtocol, Msg: "retarget wants a primary address"}
		}
		return n.followLocked(addr)
	}
	if epoch <= n.pub.Epoch() || epoch < n.fencedBy {
		return &wire.Error{Code: wire.CodeFenced, Msg: fmt.Sprintf("refusing retarget: epoch %d is stale here (own %d, fenced by %d)",
			epoch, n.pub.Epoch(), n.fencedBy)}
	}
	return n.fenceLocked(epoch, addr)
}

// Publisher returns the publisher a follower at helloEpoch subscribes to.
// A hello from a higher epoch than the node's own proves a newer primary
// exists, so the node fences itself on the spot (passive fencing); it
// does not learn the new primary's address here.
func (n *Node) Publisher(helloEpoch uint64) (*Publisher, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case n.pub == nil:
		return nil, &wire.Error{Code: wire.CodeProtocol, Msg: "this server does not publish a replication stream"}
	case n.fencedBy != 0:
		return nil, &wire.Error{Code: wire.CodeFenced,
			Msg: fmt.Sprintf("fenced by epoch %d; this node no longer publishes", n.fencedBy)}
	case helloEpoch > n.pub.Epoch():
		n.fenceLocked(helloEpoch, "")
		return nil, &wire.Error{Code: wire.CodeFenced,
			Msg: fmt.Sprintf("follower holds epoch %d > %d; fencing myself", helloEpoch, n.pub.Epoch())}
	}
	return n.pub, nil
}

// fenceLocked demotes the node under epoch: writes answer CodeFenced, the
// publisher is sealed before any group from the new primary can be
// applied (so it is never re-published), and the epoch is persisted first
// — a restart must come back fenced, not writable at the stale term.
// With addr, the node then follows the new primary; the re-snapshot its
// follower requests discards any tail it acknowledged but never shipped.
func (n *Node) fenceLocked(epoch uint64, addr string) error {
	if epoch > n.fencedBy {
		if n.epochPath != "" {
			if err := WitnessEpoch(n.epochPath, epoch); err != nil {
				n.log.Error("persisting witnessed epoch failed", "epoch", epoch, "err", err)
			}
		}
		n.fencedBy = epoch
		n.pub.Seal()
		n.log.Warn("fenced by higher epoch; demoting to read-only", "epoch", epoch, "new_primary", addr)
	}
	if addr == "" || n.statePath == "" {
		return nil
	}
	return n.followLocked(addr)
}

// followLocked points the node's follower at primary, starting one when
// the node follows none.
func (n *Node) followLocked(primary string) error {
	if n.fol != nil {
		if n.fol.Primary() != primary {
			return n.fol.Retarget(primary)
		}
		return nil
	}
	cfg := n.fcfg
	cfg.Primary = primary
	f, err := StartFollower(n.db, n.statePath, cfg)
	if err != nil {
		return err
	}
	f.RegisterMetrics(n.db.Metrics())
	n.fol = f
	n.log.Info("following primary", "primary", primary)
	return nil
}
