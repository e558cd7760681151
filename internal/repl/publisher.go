package repl

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sim"
	"sim/internal/obs"
	"sim/internal/wal"
	"sim/internal/wire"
)

// DefaultRingBytes bounds the in-memory tail of committed groups a
// Publisher retains for followers to catch up from. A follower further
// behind than the ring is re-seeded with a snapshot.
const DefaultRingBytes = 16 << 20

// defaultBatchBytes caps how many group bytes one Subscription.Next
// returns, bounding the size of the frames a slow follower is sent.
const defaultBatchBytes = 1 << 20

// Group is one committed page group as retained by the Publisher: the
// position it advances followers to and private copies of the
// deduplicated page images. TS is the primary's publish clock (unixnano)
// and IDs the request IDs that rode the group; both travel to followers
// for staleness measurement and end-to-end tracing.
type Group struct {
	Pos uint64
	// Gen is always 0: a follower publishes the schema a group committed
	// from its pages.
	//
	// Deprecated: kept only because the benchmark module still copies it
	// into a frame; the next wire version drops the frame field, and a
	// later benchmark change removes that last use, so the field is
	// deleted then.
	Gen   uint64
	TS    uint64
	IDs   []uint64
	Pages []wire.ReplPage
	Bytes int
}

// Config tunes a Publisher. The zero value uses DefaultRingBytes and
// epoch 1.
type Config struct {
	// RingBytes bounds the retained tail of committed groups (default
	// DefaultRingBytes). At least one group is always retained.
	RingBytes int
	// Epoch is the persisted fencing term the publisher publishes under
	// (see ClaimEpoch/AdvanceEpoch). 0 defaults to 1, the first term of a
	// fresh cluster.
	Epoch uint64
}

// Publisher is the primary side of replication: it observes every commit
// group via the database's commit hook, assigns it a position, retains a
// byte-bounded in-memory tail, and feeds any number of Subscriptions.
// It also produces base snapshots for followers that cannot be served
// from the tail, and tracks connected followers for status reporting.
type Publisher struct {
	db    *sim.Database
	epoch uint64 // persisted fencing term; advances only on promotion
	run   uint64 // random per-open nonce; positions are scoped to one run

	mu        sync.Mutex
	latest    uint64   // newest published position; positions start at 1
	ring      []*Group // ascending positions; ring[0].Pos..ring[n-1].Pos contiguous
	ringBytes int
	maxBytes  int
	subs      map[*Subscription]struct{}
	peers     map[*Peer]struct{}

	groups    atomic.Uint64 // groups published
	snapshots atomic.Uint64 // base snapshots produced
	evicted   atomic.Uint64 // groups evicted from the ring
}

// NewPublisher hooks a Publisher into db's commit path: it ships the
// groups the database's WAL commits.
func NewPublisher(db *sim.Database, cfg Config) (*Publisher, error) {
	var rb [8]byte
	if _, err := rand.Read(rb[:]); err != nil {
		return nil, fmt.Errorf("repl: run nonce: %w", err)
	}
	p := &Publisher{
		db:       db,
		epoch:    max(cfg.Epoch, 1),
		run:      binary.BigEndian.Uint64(rb[:]) | 1, // never 0 ("no run")
		maxBytes: cfg.RingBytes,
		subs:     make(map[*Subscription]struct{}),
		peers:    make(map[*Peer]struct{}),
	}
	if p.maxBytes <= 0 {
		p.maxBytes = DefaultRingBytes
	}
	db.SetCommitHook(p.publish)
	return p, nil
}

// Epoch returns the persisted fencing term the publisher publishes under.
func (p *Publisher) Epoch() uint64 { return p.epoch }

// Run returns the publisher's run nonce, drawn at random per open.
// Positions are only comparable within one (epoch, run) pair; a follower
// whose run does not match is re-seeded with a snapshot, which is what
// keeps a restarted primary's fresh position counter from colliding with
// history a follower applied before the restart.
func (p *Publisher) Run() uint64 { return p.run }

// Seal detaches the publisher from the database's commit hook. A primary
// being demoted after a fencing event seals its publisher before
// replicated groups from the new primary are applied, so the stale stream
// can never observe (and re-publish) them.
func (p *Publisher) Seal() {
	p.db.SetCommitHook(nil)
}

// Latest returns the newest published position.
func (p *Publisher) Latest() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.latest
}

// publish is the commit hook: it runs on the committing goroutine under
// the WAL's flush lock, so groups arrive in commit order. The image
// bytes alias commit-internal buffers and are copied here. It returns
// the position the group published at, which the WAL copies into the
// committers' CommitTraces.
func (p *Publisher) publish(g wal.CommitGroup) uint64 {
	pages := make([]wire.ReplPage, len(g.Images))
	bytes := 0
	for i, im := range g.Images {
		data := make([]byte, len(im.Data))
		copy(data, im.Data)
		pages[i] = wire.ReplPage{ID: uint32(im.ID), Data: data}
		bytes += len(data)
	}
	ids := append([]uint64(nil), g.IDs...)
	p.mu.Lock()
	p.latest++
	pos := p.latest
	p.append(&Group{Pos: pos, TS: uint64(time.Now().UnixNano()), IDs: ids, Pages: pages, Bytes: bytes})
	p.mu.Unlock()
	return pos
}

// append adds a group to the ring, evicts past the byte bound (always
// keeping the newest group), and wakes subscribers. Caller holds p.mu.
func (p *Publisher) append(g *Group) {
	p.groups.Add(1)
	p.ring = append(p.ring, g)
	p.ringBytes += g.Bytes
	for p.ringBytes > p.maxBytes && len(p.ring) > 1 {
		p.ringBytes -= p.ring[0].Bytes
		p.ring[0] = nil
		p.ring = p.ring[1:]
		p.evicted.Add(1)
	}
	for sub := range p.subs {
		select {
		case sub.notify <- struct{}{}:
		default:
		}
	}
}

// Subscription is one follower's cursor into the published stream.
type Subscription struct {
	p      *Publisher
	cursor uint64 // last position delivered
	notify chan struct{}
}

// Subscribe opens a subscription resuming after pos within (epoch, run).
// It fails with ErrSnapshotNeeded when the follower's history cannot be
// continued: a different epoch or publisher run, a position from the
// future, or a position already evicted from the retained tail.
func (p *Publisher) Subscribe(epoch, run, pos uint64) (*Subscription, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if epoch != p.epoch || run != p.run || pos > p.latest {
		return nil, ErrSnapshotNeeded
	}
	if pos < p.latest && (len(p.ring) == 0 || p.ring[0].Pos > pos+1) {
		return nil, ErrSnapshotNeeded
	}
	return p.subscribeLocked(pos), nil
}

func (p *Publisher) subscribeLocked(pos uint64) *Subscription {
	sub := &Subscription{p: p, cursor: pos, notify: make(chan struct{}, 1)}
	p.subs[sub] = struct{}{}
	return sub
}

// Unsubscribe detaches the subscription.
func (p *Publisher) Unsubscribe(sub *Subscription) {
	if sub == nil {
		return
	}
	p.mu.Lock()
	delete(p.subs, sub)
	p.mu.Unlock()
}

// Next returns the next batch of groups after the subscription's cursor,
// blocking until something is published, stop closes (ErrStopped), or
// wait elapses (nil, nil — the caller sends a heartbeat). It returns
// ErrSnapshotNeeded when the cursor has been evicted from the ring: the
// follower fell further behind than the retained tail and must be
// re-seeded. Batches are capped at defaultBatchBytes but always carry at
// least one group.
func (s *Subscription) Next(stop <-chan struct{}, wait time.Duration) ([]*Group, error) {
	for {
		s.p.mu.Lock()
		if s.cursor < s.p.latest {
			ring := s.p.ring
			if len(ring) == 0 || ring[0].Pos > s.cursor+1 {
				s.p.mu.Unlock()
				return nil, ErrSnapshotNeeded
			}
			start := int(s.cursor + 1 - ring[0].Pos)
			var batch []*Group
			bytes := 0
			for _, g := range ring[start:] {
				if len(batch) > 0 && bytes+g.Bytes > defaultBatchBytes {
					break
				}
				batch = append(batch, g)
				bytes += g.Bytes
			}
			s.cursor = batch[len(batch)-1].Pos
			s.p.mu.Unlock()
			return batch, nil
		}
		ch := s.notify
		s.p.mu.Unlock()
		select {
		case <-ch:
		case <-stop:
			return nil, ErrStopped
		case <-time.After(wait):
			return nil, nil
		}
	}
}

// Snapshot produces a base image of the database plus a subscription
// continuing exactly after it: the image's position is read while the
// store's write latch is still held, so no committed group can fall in
// the gap.
//
// Deprecated: the gen result is always 0 — a follower publishes the
// image's schema from its pages. It stays only because the benchmark
// module still calls the five-result form; the next wire version and a
// later benchmark change drop it.
func (p *Publisher) Snapshot() (img []byte, pos, gen uint64, sub *Subscription, err error) {
	p.snapshots.Add(1)
	img, pos, err = p.db.ReplSnapshot(p.Latest)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	p.mu.Lock()
	sub = p.subscribeLocked(pos)
	p.mu.Unlock()
	return img, pos, 0, sub, nil
}

// Peer is one connected follower, tracked for status reporting only —
// acknowledgments never gate commits (replication is asynchronous).
type Peer struct {
	p    *Publisher
	addr string

	mu     sync.Mutex
	state  string
	pos    uint64
	latest uint64
	last   time.Time
}

// Register adds a follower connection to the status table.
func (p *Publisher) Register(addr string) *Peer {
	peer := &Peer{p: p, addr: addr, state: "connected", last: time.Now()}
	p.mu.Lock()
	p.peers[peer] = struct{}{}
	p.mu.Unlock()
	return peer
}

// Unregister removes the follower from the status table.
func (p *Publisher) Unregister(peer *Peer) {
	p.mu.Lock()
	delete(p.peers, peer)
	p.mu.Unlock()
}

// SetState records the follower's stream phase ("snapshot", "streaming").
func (peer *Peer) SetState(state string) {
	peer.mu.Lock()
	peer.state = state
	peer.mu.Unlock()
}

// Ack records the follower's applied position.
func (peer *Peer) Ack(pos uint64) {
	latest := peer.p.Latest()
	peer.mu.Lock()
	peer.pos = pos
	peer.latest = latest
	peer.last = time.Now()
	peer.mu.Unlock()
}

// Status reports the primary's replication state: epoch, newest
// position, and each connected follower's acked progress.
func (p *Publisher) Status() wire.ReplStatus {
	p.mu.Lock()
	st := wire.ReplStatus{Role: "primary", Epoch: p.epoch, Latest: p.latest}
	peers := make([]*Peer, 0, len(p.peers))
	for peer := range p.peers {
		peers = append(peers, peer)
	}
	p.mu.Unlock()
	sort.Slice(peers, func(i, j int) bool { return peers[i].addr < peers[j].addr })
	for _, peer := range peers {
		peer.mu.Lock()
		st.Replicas = append(st.Replicas, wire.ReplicaInfo{
			Addr:   peer.addr,
			State:  peer.state,
			Pos:    peer.pos,
			Latest: peer.latest,
			AgeMs:  uint64(time.Since(peer.last).Milliseconds()),
		})
		peer.mu.Unlock()
	}
	return st
}

// RegisterMetrics publishes the primary-side replication counters.
func (p *Publisher) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("sim_repl_epoch", "Replication epoch this node publishes under (advances on promotion).",
		func() float64 { return float64(p.epoch) })
	r.GaugeFunc("sim_repl_latest_pos", "Newest published replication position.",
		func() float64 { return float64(p.Latest()) })
	r.GaugeFunc("sim_repl_followers", "Connected follower streams.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(len(p.peers))
		})
	r.GaugeFunc("sim_repl_min_ack_pos", "Oldest applied position acked by any connected follower (0 with none).",
		func() float64 {
			var pos uint64
			for i, rep := range p.Status().Replicas {
				if i == 0 || rep.Pos < pos {
					pos = rep.Pos
				}
			}
			return float64(pos)
		})
	r.GaugeFunc("sim_repl_ring_bytes", "Bytes of committed groups retained for follower catch-up.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(p.ringBytes)
		})
	r.CounterFunc("sim_repl_groups_total", "Commit groups published.",
		func() float64 { return float64(p.groups.Load()) })
	r.CounterFunc("sim_repl_snapshots_total", "Base snapshots produced for followers.",
		func() float64 { return float64(p.snapshots.Load()) })
	r.CounterFunc("sim_repl_ring_evictions_total", "Groups evicted from the retained tail.",
		func() float64 { return float64(p.evicted.Load()) })
	r.OnReset(func() {
		p.groups.Store(0)
		p.snapshots.Store(0)
		p.evicted.Store(0)
	})
}
