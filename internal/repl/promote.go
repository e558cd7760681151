package repl

import (
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"time"

	"sim/internal/wire"
)

// Promote turns this follower into a primary: stop the stream and drain
// any in-flight apply, seal the apply state at its last durable position,
// commit a strictly higher epoch to the database's record (see
// ClaimEpoch), and open a Publisher under it. The follower is closed
// afterwards, whether or not the promotion succeeded.
//
// Everything the old primary acknowledged AND shipped is present at the
// sealed position. Commits the old primary acknowledged but had not yet
// shipped (replication is asynchronous) are not — they exist only on the
// old primary, which the new epoch fences, and are discarded when it
// rejoins via re-snapshot. See DESIGN.md §14 for the exact guarantee.
func (f *Follower) Promote() (*Publisher, error) {
	oldPrimary := f.Primary()
	f.Close() // cut the stream, wait out the apply loop: the state is sealed
	st := f.a.State()
	if st.Epoch == 0 {
		return nil, fmt.Errorf("repl: refusing to promote a follower that never reached its primary")
	}
	// Strictly above both the epoch we followed and anything this node has
	// ever witnessed, and durable before the first group is published.
	ns, err := f.db.NodeState()
	if err != nil {
		return nil, fmt.Errorf("repl: promote: %w", err)
	}
	newEpoch := max(st.Epoch, ns.MaxSeen) + 1
	if err := AdvanceEpoch(f.db, newEpoch); err != nil {
		return nil, err
	}
	pub, err := NewPublisher(f.db, Config{Epoch: newEpoch})
	if err != nil {
		return nil, err
	}
	f.cfg.Logger.Info("promoted to primary",
		"epoch", newEpoch, "sealed_pos", st.Pos, "old_primary", oldPrimary)
	return pub, nil
}

// Fence dials addr and delivers a fencing notice: "epoch exists, the
// primary for it serves at newAddr". A primary receiving a higher epoch
// demotes itself to read-only (and rejoins newAddr as a follower when
// given one); a replica re-targets its stream. The call returns nil once
// the target acknowledged the notice, a *wire.Error if it refused
// (definitive — do not retry), and a transport error when it could not be
// reached (retry; the target may still be restarting).
func Fence(addr string, epoch uint64, newAddr string, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return err
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(timeout))
	if err := handshake(nc); err != nil {
		return err
	}
	if err := wire.WriteFrame(nc, wire.TRetarget, wire.EncodeRetarget(wire.Retarget{Epoch: epoch, Addr: newAddr})); err != nil {
		return err
	}
	t, payload, err := wire.ReadFrame(nc, 0)
	if err != nil {
		return err
	}
	switch t {
	case wire.TOK:
		return nil
	case wire.TError:
		if e, derr := wire.DecodeError(payload); derr == nil {
			return e
		}
		return fmt.Errorf("repl: fence refused with an undecodable error")
	default:
		return fmt.Errorf("repl: fence got %v, want OK", t)
	}
}

// runFencer keeps delivering the fencing notice to the old primary until
// it is acknowledged, it is definitively refused, or stop closes. A new
// primary starts one right after promotion: the old primary is usually
// dead at that moment, but if (or when) it comes back, the fencer is what
// actively demotes it instead of waiting for it to stumble into the new
// epoch on its own.
func runFencer(stop <-chan struct{}, addr string, epoch uint64, newAddr string, logger *slog.Logger) {
	backoff := 100 * time.Millisecond
	for {
		err := Fence(addr, epoch, newAddr, 5*time.Second)
		if err == nil {
			logger.Info("old primary fenced", "addr", addr, "epoch", epoch)
			return
		}
		var we *wire.Error
		if errors.As(err, &we) && (we.Code == wire.CodeFenced || we.Code == wire.CodeProtocol) {
			// The target refused: it is either already fenced, holds a
			// higher epoch than ours, or does not replicate. Retrying
			// cannot change its mind. Any other answer — a witness that
			// failed to commit — is retried.
			logger.Warn("fence refused", "addr", addr, "epoch", epoch, "err", err)
			return
		}
		select {
		case <-stop:
			return
		case <-time.After(backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))):
		}
		backoff = min(2*backoff, 2*time.Second)
	}
}

// handshake is the client's side of the Hello exchange on nc. A refusal
// is a plain error, not a *wire.Error: a later dial may be accepted.
func handshake(nc net.Conn) error {
	if err := wire.WriteFrame(nc, wire.THello, wire.EncodeHello()); err != nil {
		return err
	}
	t, payload, err := wire.ReadFrame(nc, 0)
	if err != nil {
		return err
	}
	if t == wire.TError {
		if e, derr := wire.DecodeError(payload); derr == nil {
			return fmt.Errorf("repl: handshake refused: %v", e)
		}
	}
	if t != wire.THello {
		return fmt.Errorf("repl: handshake got %v, want Hello", t)
	}
	_, err = wire.DecodeHello(payload)
	return err
}
