package repl

import (
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sim"
	"sim/internal/obs"
	"sim/internal/wire"
)

// FollowerConfig tunes a Follower. Primary is required; the rest default
// sensibly for LAN replication.
type FollowerConfig struct {
	// Primary is the host:port of the primary simserve.
	Primary string
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// Heartbeat is the primary's expected heartbeat interval; the read
	// deadline is derived from it (default 1s, deadline 4x with a 10s
	// floor).
	Heartbeat time.Duration
	// ReconnectMin/ReconnectMax bound the exponential reconnect backoff
	// (defaults 100ms / 5s).
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// Logger receives stream-level diagnostics. Nil discards them.
	Logger *slog.Logger
}

func (c FollowerConfig) withDefaults() FollowerConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	if c.ReconnectMin <= 0 {
		c.ReconnectMin = 100 * time.Millisecond
	}
	if c.ReconnectMax <= 0 {
		c.ReconnectMax = 5 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// readDeadline is how long the follower waits for any frame before
// declaring the stream dead; heartbeats arrive every Heartbeat while the
// primary is idle.
func (c FollowerConfig) readDeadline() time.Duration {
	return max(4*c.Heartbeat, 10*time.Second)
}

// Follower maintains a replication stream from a primary into a local
// read-only database: dial, subscribe from the Applier's durable
// position, apply snapshots and groups as they arrive, acknowledge
// progress, and reconnect with backoff forever (until Close).
type Follower struct {
	db  *sim.Database
	a   *Applier
	cfg FollowerConfig

	mu      sync.Mutex
	primary string // current upstream address; changes via Retarget
	nc      net.Conn
	state   string // connecting | snapshot | streaming
	latest  uint64 // primary's newest position, from frames/heartbeats
	lastAct time.Time

	quit      chan struct{}
	quitOnce  sync.Once
	wg        sync.WaitGroup
	ready     chan struct{}
	readyOnce sync.Once

	groupsApplied atomic.Uint64
	snapshotsIn   atomic.Uint64
	reconnects    atomic.Uint64

	staleness obs.Histogram                  // publish-to-apply delay per group
	flight    atomic.Pointer[obs.FlightRing] // snapshot/apply events
}

// StartFollower begins replicating db from cfg.Primary, resuming from the
// position db's record holds. The returned Follower runs until Close.
//
// Deprecated: the statePath argument is ignored, for the position lives
// in db. It stays while the benchmark module passes it.
func StartFollower(db *sim.Database, statePath string, cfg FollowerConfig) (*Follower, error) {
	if cfg.Primary == "" {
		return nil, fmt.Errorf("repl: follower needs a primary address")
	}
	f := &Follower{
		db:      db,
		a:       NewApplier(db, ""),
		cfg:     cfg.withDefaults(),
		primary: cfg.Primary,
		state:   "connecting",
		lastAct: time.Now(),
		quit:    make(chan struct{}),
		ready:   make(chan struct{}),
	}
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// Close stops the stream and waits for the replication goroutine.
func (f *Follower) Close() error {
	f.quitOnce.Do(func() { close(f.quit) })
	f.mu.Lock()
	if f.nc != nil {
		f.nc.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
	return nil
}

// Primary returns the address the follower currently replicates from.
func (f *Follower) Primary() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.primary
}

// Retarget re-points the follower at a new primary address at runtime —
// the rejoin path after a failover. The current stream is cut; the
// reconnect loop dials the new address, and the normal subscribe rules
// decide between tail resume and re-snapshot. A closed follower (Close
// or Promote) has no reconnect loop left to dial anything: Retarget
// errors so the caller knows to start a fresh follower instead of
// logging a retarget that never happens.
func (f *Follower) Retarget(addr string) error {
	if addr == "" {
		return fmt.Errorf("repl: retarget needs a primary address")
	}
	select {
	case <-f.quit:
		return fmt.Errorf("repl: follower is closed; start a new one instead of retargeting")
	default:
	}
	f.mu.Lock()
	old := f.primary
	f.primary = addr
	nc := f.nc
	f.mu.Unlock()
	if nc != nil {
		nc.Close()
	}
	f.cfg.Logger.Info("replication retargeted", "old", old, "new", addr)
	return nil
}

// WaitReady blocks until the follower has caught up with the primary's
// position at least once (applied ≥ latest as reported by the stream).
func (f *Follower) WaitReady(ctx interface{ Done() <-chan struct{} }) error {
	select {
	case <-f.ready:
		return nil
	case <-f.quit:
		return fmt.Errorf("repl: follower closed")
	case <-ctx.Done():
		return fmt.Errorf("repl: follower not caught up")
	}
}

// Ready reports whether the follower can serve bounded-staleness reads:
// it has caught up with the primary at least once (snapshot installed,
// stream drained) AND its current lag is within maxLag groups. It backs
// the /readyz endpoint on replica simserves.
func (f *Follower) Ready(maxLag uint64) bool {
	select {
	case <-f.ready:
		return f.lag() <= maxLag
	default:
		return false
	}
}

// lag is how many groups the follower is behind the primary's newest
// position.
func (f *Follower) lag() uint64 {
	pos := f.a.Pos()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.latest - min(f.latest, pos)
}

// Status reports the follower's replication state: one ReplicaInfo
// describing its own progress against the primary.
func (f *Follower) Status() wire.ReplStatus {
	st := f.a.State()
	f.mu.Lock()
	primary, state, latest, last := f.primary, f.state, f.latest, f.lastAct
	f.mu.Unlock()
	return wire.ReplStatus{
		Role:   "replica",
		Epoch:  st.Epoch,
		Latest: latest,
		Replicas: []wire.ReplicaInfo{{
			Addr:   primary,
			State:  state,
			Pos:    st.Pos,
			Latest: latest,
			AgeMs:  uint64(time.Since(last).Milliseconds()),
		}},
	}
}

// RegisterMetrics publishes the follower-side replication counters.
func (f *Follower) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("sim_repl_epoch", "Replication epoch this node follows (advances on promotion).",
		func() float64 { return float64(f.a.State().Epoch) })
	r.GaugeFunc("sim_repl_applied_pos", "Last replication position durably applied.",
		func() float64 { return float64(f.a.Pos()) })
	r.GaugeFunc("sim_repl_primary_pos", "Primary's newest position as last reported on the stream.",
		func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(f.latest)
		})
	r.GaugeFunc("sim_repl_lag_groups", "Commit groups the follower is behind the primary.",
		func() float64 { return float64(f.lag()) })
	r.GaugeFunc("sim_repl_connected", "1 while the replication stream is established, else 0.",
		func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			if f.state == "streaming" || f.state == "snapshot" {
				return 1
			}
			return 0
		})
	r.CounterFunc("sim_repl_groups_applied_total", "Replicated commit groups applied.",
		func() float64 { return float64(f.groupsApplied.Load()) })
	r.CounterFunc("sim_repl_snapshots_installed_total", "Base snapshots installed.",
		func() float64 { return float64(f.snapshotsIn.Load()) })
	r.CounterFunc("sim_repl_reconnects_total", "Stream reconnect attempts after a failure.",
		func() float64 { return float64(f.reconnects.Load()) })
	r.HistogramVar(&f.staleness, "sim_repl_staleness_seconds",
		"Publish-to-apply delay of replicated groups (follower clock minus the primary's publish stamp).")
	r.OnReset(func() {
		f.groupsApplied.Store(0)
		f.snapshotsIn.Store(0)
		f.reconnects.Store(0)
	})
	f.flight.Store(r.Flight().Component("repl"))
}

// run is the reconnect loop.
func (f *Follower) run() {
	defer f.wg.Done()
	backoff := f.cfg.ReconnectMin
	for {
		select {
		case <-f.quit:
			return
		default:
		}
		start := time.Now()
		err := f.stream()
		select {
		case <-f.quit:
			return
		default:
		}
		f.setState("connecting")
		f.cfg.Logger.Warn("replication stream ended", "primary", f.Primary(), "err", err)
		f.reconnects.Add(1)
		if time.Since(start) > f.cfg.ReconnectMax {
			backoff = f.cfg.ReconnectMin // the stream was healthy for a while
		}
		// Full jitter over [backoff/2, backoff]: after a failover every
		// follower of the dead primary redials at once, and without jitter
		// their exponential schedules stay synchronized — each retry slams
		// the promoted primary as one thundering herd.
		sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		select {
		case <-f.quit:
			return
		case <-time.After(sleep):
		}
		backoff = min(2*backoff, f.cfg.ReconnectMax)
	}
}

// stream runs one connection: handshake, subscribe, apply until error.
func (f *Follower) stream() error {
	primary := f.Primary()
	nc, err := net.DialTimeout("tcp", primary, f.cfg.DialTimeout)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.nc = nc
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.nc = nil
		f.mu.Unlock()
		nc.Close()
	}()

	// Standard Hello exchange, then the replication subscribe.
	nc.SetDeadline(time.Now().Add(f.cfg.DialTimeout))
	if err := handshake(nc); err != nil {
		return err
	}
	nc.SetDeadline(time.Time{})
	st := f.a.State()
	if err := wire.WriteFrame(nc, wire.TReplHello, wire.EncodeReplHello(wire.ReplHello{Epoch: st.Epoch, Run: st.Run, Pos: st.Pos})); err != nil {
		return err
	}
	f.cfg.Logger.Info("replication stream open", "primary", primary,
		"epoch", st.Epoch, "pos", st.Pos)

	var rbuf []byte
	var snap []byte // accumulating base image, nil outside a snapshot
	for {
		select {
		case <-f.quit:
			return nil
		default:
		}
		nc.SetReadDeadline(time.Now().Add(f.cfg.readDeadline()))
		t, payload, err := wire.ReadFrameBuf(nc, 0, rbuf)
		if err != nil {
			return err
		}
		if cap(payload) > cap(rbuf) {
			rbuf = payload[:cap(payload)]
		}
		switch t {
		case wire.TReplSnapshot:
			s, err := wire.DecodeReplSnapshot(payload)
			if err != nil {
				return err
			}
			if s.Offset == 0 {
				f.setState("snapshot")
				snap = make([]byte, 0, s.Total)
			}
			if snap == nil || uint64(len(snap)) != s.Offset {
				return fmt.Errorf("repl: snapshot chunk at %d, have %d bytes", s.Offset, len(snap))
			}
			snap = append(snap, s.Chunk...)
			if uint64(len(snap)) < s.Total {
				continue
			}
			if err := f.a.ApplySnapshot(s.Epoch, s.Run, s.Pos, snap); err != nil {
				return err
			}
			snap = nil
			f.snapshotsIn.Add(1)
			f.setState("streaming")
			f.flight.Load().Record(obs.FlightEvent{Comp: "repl", Kind: "snapshot", Pos: s.Pos, N: int64(s.Total)})
			f.observe(s.Pos)
			if err := f.ack(nc, s.Pos); err != nil {
				return err
			}
			f.cfg.Logger.Info("snapshot installed", "primary", primary, "pos", s.Pos, "bytes", s.Total)
		case wire.TReplFrames:
			fr, err := wire.DecodeReplFrames(payload)
			if err != nil {
				return err
			}
			if fr.Pos == 0 { // heartbeat
				f.setState("streaming")
				f.observe(fr.Latest)
				if err := f.ack(nc, f.a.Pos()); err != nil {
					return err
				}
				continue
			}
			applyStart := time.Now()
			if err := f.a.ApplyGroup(fr); err != nil {
				return err
			}
			f.groupsApplied.Add(1)
			if fr.TS != 0 {
				if d := time.Since(time.Unix(0, int64(fr.TS))); d > 0 {
					f.staleness.Observe(d)
				}
			}
			// One apply event per request ID the group carried, so a trace
			// ID minted on the client is findable in this follower's flight
			// recorder; ID-less groups record a single anonymous event.
			ids := fr.IDs
			if len(ids) == 0 {
				ids = []uint64{0}
			}
			for _, id := range ids {
				f.flight.Load().Record(obs.FlightEvent{Comp: "repl", Kind: "apply", ID: id,
					Pos: fr.Pos, Dur: time.Since(applyStart), N: int64(len(fr.Pages))})
			}
			f.observe(fr.Latest)
			if err := f.ack(nc, fr.Pos); err != nil {
				return err
			}
		case wire.TError:
			if e, derr := wire.DecodeError(payload); derr == nil {
				return e
			}
			return fmt.Errorf("repl: primary sent an undecodable error frame")
		default:
			return fmt.Errorf("repl: unexpected frame %v on replication stream", t)
		}
	}
}

// observe records the primary's newest position and signals readiness
// once the applied position has reached it.
func (f *Follower) observe(latest uint64) {
	f.mu.Lock()
	f.latest = max(f.latest, latest)
	caught := f.a.Pos() >= f.latest
	f.lastAct = time.Now()
	f.mu.Unlock()
	if caught {
		f.readyOnce.Do(func() { close(f.ready) })
	}
}

func (f *Follower) setState(state string) {
	f.mu.Lock()
	f.state = state
	f.mu.Unlock()
}

// ack reports the applied position; acknowledgments are advisory (lag
// accounting on the primary), never required for commit.
func (f *Follower) ack(nc net.Conn, pos uint64) error {
	nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
	defer nc.SetWriteDeadline(time.Time{})
	return wire.WriteFrame(nc, wire.TReplAck, wire.EncodeReplAck(pos))
}
