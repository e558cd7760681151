// Package server runs a SIM database as a network service: the shared
// SIM kernel of the paper's Figure 1, reachable by IQF-style front ends
// (cmd/simdb -connect), the benchmark harness, and any client speaking
// internal/wire. One server wraps one *sim.Database; each TCP connection
// is a session issuing one request at a time.
//
// The server bounds concurrent connections, applies read/write and
// per-request deadlines, isolates per-connection panics, keeps an atomic
// counter set surfaced through the STATS frame, and drains in-flight
// requests on graceful shutdown.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sim"
	"sim/internal/obs"
	"sim/internal/repl"
	"sim/internal/wire"
)

// Config tunes a Server. The zero value is usable: 64 connections, no
// idle or request deadlines, the wire package's default frame limit.
type Config struct {
	// MaxConns bounds concurrently open connections (default 64).
	// Connections beyond it receive a CodeBusy error frame and are closed.
	MaxConns int
	// MaxInflight bounds requests executing at once across all sessions.
	// A request arriving while the bound is saturated is answered
	// immediately with a CodeOverloaded error frame — fast-fail, bounding
	// queueing latency — and the session stays open. Zero means no bound.
	MaxInflight int
	// ReadTimeout is the per-frame read deadline. A session idle past it
	// is closed; clients reconnect transparently (see package client).
	ReadTimeout time.Duration
	// WriteTimeout is the deadline for writing one response frame.
	WriteTimeout time.Duration
	// RequestTimeout bounds the execution of one Query/Exec request via
	// context cancellation inside the executor. Zero means unbounded.
	RequestTimeout time.Duration
	// MaxFrame bounds accepted request frames (default wire.DefaultMaxFrame).
	MaxFrame int
	// Logger receives structured connection-level diagnostics: session
	// open/close, handshake and request errors, contained panics, slow
	// requests. Nil discards them.
	Logger *slog.Logger
	// SlowRequest is the duration above which a served request is logged
	// at Warn level. Zero disables slow-request logging.
	SlowRequest time.Duration
	// Registry, when set, receives the server's metrics: lifetime counters
	// (connections, requests, bytes, errors) and the per-request latency
	// histogram sim_server_request_seconds.
	Registry *obs.Registry
	// Node owns the server's replication role (see repl.Node): the server
	// asks it before each write and each replication subscription, and
	// hands it the ReplStatus, Promote and Retarget frames. The caller
	// owns its lifetime. Nil builds a static node from ReadOnly, Publisher
	// and ReplStatus.
	Node *repl.Node
	// ReadOnly refuses every mutating request with CodeReadOnly.
	//
	// Deprecated: set Node. Kept while the benchmark module sets it; it
	// only takes effect when Node is nil (see repl.StaticNode).
	ReadOnly bool
	// Publisher, when set, serves replication streams.
	//
	// Deprecated: set Node. Kept while the benchmark module sets it; it
	// only takes effect when Node is nil (see repl.StaticNode).
	Publisher *repl.Publisher
	// ReplStatus answers the ReplStatus request of a node that neither
	// publishes nor follows.
	//
	// Deprecated: set Node. Kept while the benchmark module sets it; it
	// only takes effect when Node is nil (see repl.StaticNode).
	ReplStatus func() wire.ReplStatus
}

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// handshakeTimeout bounds the initial Hello exchange.
const handshakeTimeout = 10 * time.Second

// Server serves one database over TCP.
type Server struct {
	db     *sim.Database
	cfg    Config
	log    *slog.Logger
	hist   *obs.Histogram  // sim_server_request_seconds (nil without a registry)
	flight *obs.FlightRing // overload/panic/ship events (nil ring is a no-op)
	node   *repl.Node

	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]struct{}
	quit     chan struct{}
	quitOnce sync.Once

	inflight sync.WaitGroup // requests being executed
	handlers sync.WaitGroup // connection goroutines
	slots    chan struct{}  // in-flight bound (nil when MaxInflight == 0)

	connections atomic.Uint64
	active      atomic.Int64
	requests    atomic.Uint64
	bytesIn     atomic.Uint64
	bytesOut    atomic.Uint64
	errors      atomic.Uint64
	fastFails   atomic.Uint64
}

// New returns an unstarted server over db.
func New(db *sim.Database, cfg Config) *Server {
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 64
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = wire.DefaultMaxFrame
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		db:    db,
		cfg:   cfg,
		log:   log,
		node:  cfg.Node,
		conns: make(map[net.Conn]struct{}),
		quit:  make(chan struct{}),
	}
	if s.node == nil {
		s.node = repl.StaticNode(cfg.Publisher, cfg.ReadOnly, cfg.ReplStatus)
	}
	if cfg.MaxInflight > 0 {
		s.slots = make(chan struct{}, cfg.MaxInflight)
	}
	s.flight = cfg.Registry.Flight().Component("server")
	if r := cfg.Registry; r != nil {
		s.hist = r.Histogram("sim_server_request_seconds", "Per-request service latency (dispatch through execution).")
		r.CounterFunc("sim_server_connections_total", "Connections accepted.",
			func() float64 { return float64(s.connections.Load()) })
		r.GaugeFunc("sim_server_active_connections", "Connections currently open.",
			func() float64 { return float64(max(s.active.Load(), 0)) })
		r.CounterFunc("sim_server_requests_total", "Request frames served.",
			func() float64 { return float64(s.requests.Load()) })
		r.CounterFunc("sim_server_bytes_in_total", "Frame bytes read from clients.",
			func() float64 { return float64(s.bytesIn.Load()) })
		r.CounterFunc("sim_server_bytes_out_total", "Frame bytes written to clients.",
			func() float64 { return float64(s.bytesOut.Load()) })
		r.CounterFunc("sim_server_errors_total", "Error frames sent plus aborted connections.",
			func() float64 { return float64(s.errors.Load()) })
		r.CounterFunc("sim_server_fastfail_total", "Requests refused with CodeOverloaded because MaxInflight was saturated.",
			func() float64 { return float64(s.fastFails.Load()) })
	}
	return s
}

// ListenAndServe listens on addr ("host:port") and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Addr returns the listener's address once Serve has been called (handy
// with ":0" listeners in tests and benchmarks).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Serve accepts connections on lis until Shutdown closes it. It always
// returns a non-nil error; after a clean shutdown, ErrServerClosed.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	select {
	case <-s.quit:
		s.mu.Unlock()
		lis.Close()
		return ErrServerClosed
	default:
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return ErrServerClosed
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		if int(s.active.Load()) >= s.cfg.MaxConns {
			s.errors.Add(1)
			s.writeFrame(conn, wire.TError, wire.EncodeError(wire.CodeBusy,
				fmt.Sprintf("server at its %d-connection limit", s.cfg.MaxConns)))
			conn.Close()
			continue
		}
		s.connections.Add(1)
		s.active.Add(1)
		s.track(conn)
		s.handlers.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) track(conn net.Conn) {
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// session is the per-connection state: at most one open transaction,
// owned by the connection and rolled back when the session ends for any
// reason (client close, idle timeout, server drain, panic).
type session struct {
	tx *sim.Tx
}

// handle runs one session. A panic anywhere in the session — including
// inside the executor — is contained here: the connection dies, the
// server does not.
func (s *Server) handle(conn net.Conn) {
	defer s.handlers.Done()
	start := time.Now()
	sess := &session{}
	defer func() {
		if p := recover(); p != nil {
			s.errors.Add(1)
			s.flight.Record(obs.FlightEvent{Comp: "server", Kind: "panic", Note: fmt.Sprint(p)})
			s.log.Error("panic in session", "remote", conn.RemoteAddr().String(), "panic", p)
			// Auto-dump: the events leading up to a panic are exactly what
			// the flight recorder retains; surface them with the incident.
			s.log.Error("flight recorder dump after panic",
				"dump", s.db.FlightRecorder().Dump())
		}
		if sess.tx != nil {
			// The session died with a transaction open; its effects must
			// not survive the connection.
			if err := sess.tx.Rollback(); err != nil {
				s.log.Warn("rollback of orphaned transaction failed",
					"remote", conn.RemoteAddr().String(), "err", err)
			} else {
				s.log.Debug("rolled back orphaned transaction",
					"remote", conn.RemoteAddr().String())
			}
			sess.tx = nil
		}
		s.untrack(conn)
		conn.Close()
		s.active.Add(-1)
		s.log.Debug("session closed", "remote", conn.RemoteAddr().String(),
			"duration", time.Since(start))
	}()

	if err := s.handshake(conn); err != nil {
		s.errors.Add(1)
		s.log.Warn("handshake failed", "remote", conn.RemoteAddr().String(), "err", err)
		return
	}
	s.log.Debug("session open", "remote", conn.RemoteAddr().String())

	var rbuf []byte
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		if s.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		t, payload, err := s.readFrame(conn, &rbuf)
		if err != nil {
			// EOF and idle timeouts are the normal end of a session;
			// anything decodable as a protocol violation gets a last
			// error frame so the client can tell what happened.
			if errors.Is(err, wire.ErrFrameTooLarge) || strings.HasPrefix(err.Error(), "wire:") {
				s.errors.Add(1)
				s.writeFrame(conn, wire.TError, wire.EncodeError(wire.CodeProtocol, err.Error()))
			}
			return
		}
		if t == wire.TReplHello {
			// The connection becomes a replication stream and never
			// returns to request/response.
			s.serveReplication(conn, payload)
			return
		}
		if !s.serveRequest(conn, sess, t, payload) {
			return
		}
	}
}

// handshake performs the Hello exchange.
func (s *Server) handshake(conn net.Conn) error {
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	defer conn.SetDeadline(time.Time{})
	t, payload, err := s.readFrame(conn, nil)
	if err != nil {
		return err
	}
	if t != wire.THello {
		s.writeFrame(conn, wire.TError, wire.EncodeError(wire.CodeProtocol, "expected Hello"))
		return fmt.Errorf("first frame %v, want Hello", t)
	}
	v, err := wire.DecodeHello(payload)
	if err != nil {
		s.writeFrame(conn, wire.TError, wire.EncodeError(wire.CodeProtocol, err.Error()))
		return err
	}
	if v != wire.Version {
		msg := fmt.Sprintf("protocol version %d not supported (server speaks %d)", v, wire.Version)
		s.writeFrame(conn, wire.TError, wire.EncodeError(wire.CodeProtocol, msg))
		return errors.New(msg)
	}
	return s.writeFrame(conn, wire.THello, wire.EncodeHello())
}

// serveRequest executes one request and writes its response, reporting
// whether the session should continue.
func (s *Server) serveRequest(conn net.Conn, sess *session, t wire.Type, payload []byte) bool {
	s.requests.Add(1)
	// Request frames carry a client-minted request ID prefix; peel it off
	// so the ID can ride the request's context through the engine.
	var reqID uint64
	switch t {
	case wire.TQuery, wire.TExec, wire.TQueryTrace, wire.TBegin, wire.TCommit, wire.TRollback, wire.TTraceCommit:
		var err error
		if reqID, payload, err = wire.DecodeRequest(payload); err != nil {
			s.errors.Add(1)
			werr := s.writeFrame(conn, wire.TError, wire.EncodeError(wire.CodeProtocol, err.Error()))
			return werr == nil
		}
	}
	if s.slots != nil {
		select {
		case s.slots <- struct{}{}:
		default:
			// Saturated: fail fast instead of queueing unboundedly. The
			// client sees a retryable CodeOverloaded and backs off.
			s.fastFails.Add(1)
			s.errors.Add(1)
			s.flight.Record(obs.FlightEvent{Comp: "server", Kind: "overload", ID: reqID,
				N: int64(s.cfg.MaxInflight), Note: t.String()})
			err := s.writeFrame(conn, wire.TError, wire.EncodeError(wire.CodeOverloaded,
				fmt.Sprintf("server at its %d-request in-flight limit", s.cfg.MaxInflight)))
			return err == nil
		}
	}
	s.inflight.Add(1)
	start := time.Now()
	rt, resp := func() (wire.Type, []byte) {
		defer s.inflight.Done()
		if s.slots != nil {
			// The slot bounds execution, not the response write: releasing
			// it first means a client that has its answer never finds the
			// server still "full" of the request it just saw finish.
			defer func() { <-s.slots }()
		}
		return s.dispatch(sess, t, payload, reqID)
	}()
	d := time.Since(start)
	if s.hist != nil {
		s.hist.Observe(d)
	}
	if rt == wire.TError {
		s.errors.Add(1)
		s.log.Info("request failed", "remote", conn.RemoteAddr().String(),
			"type", t.String(), "duration", d)
	}
	if s.cfg.SlowRequest > 0 && d >= s.cfg.SlowRequest {
		s.log.Warn("slow request", "remote", conn.RemoteAddr().String(),
			"type", t.String(), "duration", d, "request", fmt.Sprintf("%016x", reqID))
	}
	if err := s.writeFrame(conn, rt, resp); err != nil {
		s.log.Warn("response write failed", "remote", conn.RemoteAddr().String(), "err", err)
		return false
	}
	return true
}

// dispatch executes one request frame against the database. Query and
// Exec route through the session's transaction when one is open, so a
// connection's statements between TBegin and TCommit commit or roll back
// as a unit.
func (s *Server) dispatch(sess *session, t wire.Type, payload []byte, reqID uint64) (wire.Type, []byte) {
	ctx := obs.WithRequestID(context.Background(), reqID)
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	switch t {
	case wire.TExec, wire.TBegin, wire.TCommit, wire.TRollback, wire.TTraceCommit, wire.TCheckpoint:
		// Read-only transactions are pure snapshot readers: a replica (or
		// a fenced ex-primary) serves their Begin/Commit/Rollback like any
		// read, so DialMulti can route them away from the primary.
		if t == wire.TBegin && len(payload) == 1 && payload[0]&wire.BeginReadOnly != 0 {
			break
		}
		if (t == wire.TCommit || t == wire.TRollback) && sess.tx != nil && sess.tx.ReadOnly() {
			break
		}
		if err := s.node.WriteGate(); err != nil {
			return wire.TError, roleErr(err)
		}
	}
	switch t {
	case wire.TPing:
		return wire.TPong, nil
	case wire.TBegin:
		if sess.tx != nil {
			return wire.TError, wire.EncodeError(wire.CodeTxState, "a transaction is already open on this connection")
		}
		// serveRequest peeled the request ID; what remains is the optional
		// version-4 flag byte.
		var opts []sim.TxOption
		switch {
		case len(payload) == 0:
		case len(payload) == 1 && payload[0]&^wire.BeginReadOnly == 0:
			if payload[0]&wire.BeginReadOnly != 0 {
				opts = append(opts, sim.ReadOnly())
			}
		default:
			return wire.TError, wire.EncodeError(wire.CodeProtocol, "bad begin flags")
		}
		tx, err := s.db.Begin(ctx, opts...)
		if err != nil {
			return wire.TError, encodeErr(ctx, err)
		}
		sess.tx = tx
		return wire.TOK, nil
	case wire.TCommit:
		if sess.tx == nil {
			return wire.TError, wire.EncodeError(wire.CodeTxState, "no transaction is open on this connection")
		}
		err := sess.tx.Commit()
		sess.tx = nil
		if err != nil {
			return wire.TError, encodeErr(ctx, err)
		}
		return wire.TOK, nil
	case wire.TRollback:
		if sess.tx == nil {
			return wire.TError, wire.EncodeError(wire.CodeTxState, "no transaction is open on this connection")
		}
		err := sess.tx.Rollback()
		sess.tx = nil
		if err != nil {
			return wire.TError, encodeErr(ctx, err)
		}
		return wire.TOK, nil
	case wire.TQuery:
		var r *sim.Result
		var err error
		if sess.tx != nil {
			r, err = sess.tx.Query(ctx, string(payload))
		} else {
			r, err = s.db.QueryCtx(ctx, string(payload))
		}
		if err != nil {
			return wire.TError, encodeErr(ctx, err)
		}
		return wire.TResult, wire.EncodeResult(r)
	case wire.TQueryTrace:
		r, tr, err := s.db.QueryTraceCtx(ctx, string(payload))
		if err != nil {
			return wire.TError, encodeErr(ctx, err)
		}
		return wire.TResultTrace, wire.EncodeResultTrace(r, wire.FromQueryTrace(tr))
	case wire.TExec:
		var n int
		var err error
		if sess.tx != nil {
			n, err = sess.tx.Exec(ctx, string(payload))
		} else {
			n, err = s.db.ExecCtx(ctx, string(payload))
		}
		if err != nil {
			return wire.TError, encodeErr(ctx, err)
		}
		return wire.TExecOK, wire.EncodeCount(n)
	case wire.TExplain:
		text, err := s.db.ExplainCtx(ctx, string(payload))
		if err != nil {
			return wire.TError, encodeErr(ctx, err)
		}
		return wire.TExplainOK, []byte(text)
	case wire.TCheckpoint:
		if sess.tx != nil {
			// The checkpoint would wait on the write latch this session's
			// own transaction may hold — refuse instead of deadlocking.
			return wire.TError, wire.EncodeError(wire.CodeTxState, "Checkpoint inside a transaction")
		}
		if err := s.db.Checkpoint(); err != nil {
			return wire.TError, encodeErr(ctx, err)
		}
		return wire.TOK, nil
	case wire.TTraceCommit:
		if sess.tx == nil {
			return wire.TError, wire.EncodeError(wire.CodeTxState, "no transaction is open on this connection")
		}
		ct, err := sess.tx.CommitTraced(ctx)
		sess.tx = nil
		if err != nil {
			return wire.TError, encodeErr(ctx, err)
		}
		return wire.TCommitTraced, wire.EncodeCommitInfo(wire.FromCommitTrace(ct))
	case wire.TIntrospect:
		if len(payload) != 1 {
			return wire.TError, wire.EncodeError(wire.CodeProtocol, "Introspect wants a 1-byte kind")
		}
		switch payload[0] {
		case wire.IntrospectFlight:
			return wire.TIntrospectOK, []byte(s.db.FlightRecorder().Dump())
		case wire.IntrospectHot:
			return wire.TIntrospectOK, []byte(s.db.HotReport())
		default:
			return wire.TError, wire.EncodeError(wire.CodeProtocol,
				fmt.Sprintf("unknown introspection kind %d", payload[0]))
		}
	case wire.TStats:
		return wire.TStatsOK, wire.EncodeServerStats(s.Stats())
	case wire.TReplStatus:
		return wire.TReplStatusOK, wire.EncodeReplStatus(s.node.Status())
	case wire.TPromote:
		epoch, err := s.node.Promote()
		if err != nil {
			return wire.TError, roleErr(err)
		}
		return wire.TPromoteOK, wire.EncodePromoteOK(epoch)
	case wire.TRetarget:
		rt, err := wire.DecodeRetarget(payload)
		if err != nil {
			return wire.TError, wire.EncodeError(wire.CodeProtocol, err.Error())
		}
		if err := s.node.Retarget(rt.Epoch, rt.Addr); err != nil {
			return wire.TError, roleErr(err)
		}
		return wire.TOK, nil
	default:
		return wire.TError, wire.EncodeError(wire.CodeProtocol, fmt.Sprintf("unexpected frame %v", t))
	}
}

// encodeErr classifies a database error into a wire error frame.
func encodeErr(ctx context.Context, err error) []byte {
	code := wire.CodeExec
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) || ctx.Err() != nil:
		code = wire.CodeTimeout
	case errors.Is(err, sim.ErrConflict):
		code = wire.CodeConflict
	case errors.Is(err, sim.ErrReadOnlyTx):
		code = wire.CodeReadOnly
	case strings.HasPrefix(err.Error(), "parse error") || strings.HasPrefix(err.Error(), "lex error"):
		code = wire.CodeParse
	case strings.Contains(err.Error(), "unknown class") ||
		strings.Contains(err.Error(), "unknown perspective class") ||
		strings.Contains(err.Error(), "has no attribute"):
		code = wire.CodeSemantic
	}
	return wire.EncodeError(code, err.Error())
}

// roleErr encodes a refusal from the replication role: a *wire.Error
// keeps its code, any other failure is CodeExec.
func roleErr(err error) []byte {
	var we *wire.Error
	if errors.As(err, &we) {
		return wire.EncodeError(we.Code, we.Msg)
	}
	return wire.EncodeError(wire.CodeExec, err.Error())
}

// readFrame reads one request frame. buf, when non-nil, is the
// connection's recycled payload buffer: requests are handled to
// completion before the next read (and every dispatch arm copies what it
// keeps), so one buffer per connection serves every frame without
// allocating.
func (s *Server) readFrame(conn net.Conn, buf *[]byte) (wire.Type, []byte, error) {
	var b []byte
	if buf != nil {
		b = *buf
	}
	t, payload, err := wire.ReadFrameBuf(conn, s.cfg.MaxFrame, b)
	if err == nil {
		s.bytesIn.Add(uint64(5 + len(payload)))
		if buf != nil && cap(payload) > cap(b) {
			*buf = payload[:cap(payload)]
		}
	}
	return t, payload, err
}

func (s *Server) writeFrame(conn net.Conn, t wire.Type, payload []byte) error {
	if s.cfg.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		defer conn.SetWriteDeadline(time.Time{})
	}
	err := wire.WriteFrame(conn, t, payload)
	if err == nil {
		s.bytesOut.Add(uint64(5 + len(payload)))
	}
	return err
}

// Stats returns the server's lifetime counters.
func (s *Server) Stats() wire.ServerStats {
	return wire.ServerStats{
		Connections: s.connections.Load(),
		Active:      uint64(max(s.active.Load(), 0)),
		Requests:    s.requests.Load(),
		BytesIn:     s.bytesIn.Load(),
		BytesOut:    s.bytesOut.Load(),
		Errors:      s.errors.Load(),
	}
}

// Shutdown gracefully stops the server: it stops accepting, lets every
// in-flight request finish and flush its response (or until ctx expires),
// then closes all connections. Sessions between requests are simply
// closed — the client's reconnect logic treats that as an idle close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.quitOnce.Do(func() { close(s.quit) })
	s.mu.Lock()
	if s.lis != nil {
		s.lis.Close()
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}

	// Give each handler a beat to write the response of the request that
	// just drained, then cut the remaining (idle or stuck) connections.
	s.mu.Lock()
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	finished := make(chan struct{})
	go func() {
		s.handlers.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(time.Second):
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-finished
	}
	return err
}

// Close is Shutdown with no grace period.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}
