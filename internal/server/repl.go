package server

import (
	"errors"
	"net"
	"sync"
	"time"

	"sim/internal/obs"
	"sim/internal/repl"
	"sim/internal/wire"
)

// replHeartbeat is how often an idle replication stream sends an empty
// frame so the follower can detect a dead primary (and vice versa via the
// ack it answers with).
const replHeartbeat = time.Second

// replSnapshotChunk is the payload size of one snapshot frame. Snapshots
// stream in bounded chunks so one cold follower never pins a whole
// database image in a single frame.
const replSnapshotChunk = 256 << 10

// serveReplication turns the connection into a log-shipping stream: it
// answers the follower's ReplHello with either the committed tail (when
// the follower's position is still in the publisher's ring) or a fresh
// base snapshot, then keeps pushing committed groups and heartbeats until
// the connection dies or the server shuts down. A reader goroutine
// consumes the follower's acks for lag accounting; acks never gate
// commits.
func (s *Server) serveReplication(conn net.Conn, payload []byte) {
	hello, err := wire.DecodeReplHello(payload)
	if err != nil {
		s.errors.Add(1)
		s.writeFrame(conn, wire.TError, wire.EncodeError(wire.CodeProtocol, err.Error()))
		return
	}
	// A hello from a newer epoch fences this node (passive fencing).
	pub, err := s.node.Publisher(hello.Epoch)
	if err != nil {
		s.errors.Add(1)
		s.writeFrame(conn, wire.TError, roleErr(err))
		return
	}
	remote := conn.RemoteAddr().String()
	peer := pub.Register(remote)
	defer pub.Unregister(peer)
	s.log.Info("replication stream open", "remote", remote,
		"epoch", hello.Epoch, "pos", hello.Pos)

	// stop closes when the follower hangs up (its ack stream breaks) or
	// the server drains; the writer loop unblocks on it.
	stop := make(chan struct{})
	var stopOnce sync.Once
	closeStop := func() { stopOnce.Do(func() { close(stop) }) }
	go func() {
		select {
		case <-s.quit:
			conn.Close() // unblock the ack reader
		case <-stop:
		}
		closeStop()
	}()
	go func() {
		defer closeStop()
		conn.SetReadDeadline(time.Time{})
		for {
			t, p, err := wire.ReadFrame(conn, s.cfg.MaxFrame)
			if err != nil {
				return
			}
			if t != wire.TReplAck {
				return
			}
			pos, err := wire.DecodeReplAck(p)
			if err != nil {
				return
			}
			peer.Ack(pos)
		}
	}()

	sub, err := pub.Subscribe(hello.Epoch, hello.Run, hello.Pos)
	if errors.Is(err, repl.ErrSnapshotNeeded) {
		sub, err = s.sendSnapshot(conn, pub, peer)
	}
	if err != nil {
		s.log.Warn("replication stream failed", "remote", remote, "err", err)
		closeStop()
		return
	}
	defer func() { pub.Unsubscribe(sub) }()
	peer.SetState("streaming")

	// An immediate heartbeat tells the follower the primary's current
	// position, so it can report lag (and readiness) before the first
	// committed group arrives.
	if err := s.sendHeartbeat(conn, pub); err != nil {
		return
	}
	for {
		groups, err := sub.Next(stop, replHeartbeat)
		switch {
		case errors.Is(err, repl.ErrSnapshotNeeded):
			// The follower fell behind the retained tail mid-stream;
			// re-seed it on the same connection.
			pub.Unsubscribe(sub)
			sub, err = s.sendSnapshot(conn, pub, peer)
			if err != nil {
				s.log.Warn("replication re-snapshot failed", "remote", remote, "err", err)
				return
			}
			peer.SetState("streaming")
			continue
		case err != nil: // ErrStopped: connection gone or server draining
			return
		case groups == nil: // idle past the heartbeat interval
			if err := s.sendHeartbeat(conn, pub); err != nil {
				return
			}
			continue
		}
		latest := pub.Latest()
		for _, g := range groups {
			f := wire.ReplFrames{Epoch: pub.Epoch(), Run: pub.Run(), Pos: g.Pos, Latest: latest,
				TS: g.TS, IDs: g.IDs, Pages: g.Pages}
			shipStart := time.Now()
			if err := s.writeFrame(conn, wire.TReplFrames, wire.EncodeReplFrames(f)); err != nil {
				s.log.Warn("replication write failed", "remote", remote, "err", err)
				return
			}
			var id uint64
			if len(g.IDs) > 0 {
				id = g.IDs[0]
			}
			s.flight.Record(obs.FlightEvent{Comp: "server", Kind: "ship", ID: id,
				Pos: g.Pos, Dur: time.Since(shipStart), N: int64(len(g.Pages)), Note: remote})
		}
	}
}

// sendHeartbeat writes an empty frame at position 0 carrying the
// primary's newest position.
func (s *Server) sendHeartbeat(conn net.Conn, pub *repl.Publisher) error {
	f := wire.ReplFrames{Epoch: pub.Epoch(), Run: pub.Run(), Latest: pub.Latest()}
	return s.writeFrame(conn, wire.TReplFrames, wire.EncodeReplFrames(f))
}

// sendSnapshot streams a base image of the database in bounded chunks and
// returns the subscription that continues exactly after it.
func (s *Server) sendSnapshot(conn net.Conn, pub *repl.Publisher, peer *repl.Peer) (*repl.Subscription, error) {
	peer.SetState("snapshot")
	img, pos, _, sub, err := pub.Snapshot()
	if err != nil {
		s.writeFrame(conn, wire.TError, wire.EncodeError(wire.CodeInternal, err.Error()))
		return nil, err
	}
	s.log.Info("replication snapshot", "remote", conn.RemoteAddr().String(),
		"pos", pos, "bytes", len(img))
	for off := 0; ; {
		n := len(img) - off
		if n > replSnapshotChunk {
			n = replSnapshotChunk
		}
		f := wire.ReplSnapshot{
			Epoch:  pub.Epoch(),
			Run:    pub.Run(),
			Pos:    pos,
			Total:  uint64(len(img)),
			Offset: uint64(off),
			Chunk:  img[off : off+n],
		}
		if err := s.writeFrame(conn, wire.TReplSnapshot, wire.EncodeReplSnapshot(f)); err != nil {
			pub.Unsubscribe(sub)
			return nil, err
		}
		if off += n; off >= len(img) {
			return sub, nil
		}
	}
}
