// Package wire defines the binary client/server protocol spoken between
// the SIM server (internal/server) and its clients (package client). The
// paper's Figure 1 places SIM behind a set of interface products — IQF,
// ADDS, workstation front ends — that reach the kernel as a shared
// service; this protocol is the reproduction's version of that boundary.
//
// Every message is one frame:
//
//	uint32 big-endian length | one type byte | payload (length-1 bytes)
//
// The length covers the type byte and payload. A session opens with a
// Hello exchange (magic "SIMW" + one version byte in each direction);
// after that the client sends request frames and reads exactly one
// response frame per request. Result sets reuse the storage substrate's
// self-delimiting value encoding (internal/value), so a remote result
// decodes into the same exec.Result the in-process API returns.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Magic opens every Hello payload.
const Magic = "SIMW"

// Version is the protocol version this build speaks. A server accepts a
// Hello of exactly this version and echoes it; any other version is
// refused with CodeProtocol.
//
// Version 2 added trace-context propagation: request payloads that name a
// statement or transaction-control action (Query, Exec, QueryTrace,
// Begin, Commit, TraceCommit, Rollback) open with a uvarint request ID
// (0 = untraced; see EncodeRequest), and ReplFrames carry the IDs of the
// commits merged into each group plus the publish wall-clock.
//
// Version 3 added failover: the replication frames (ReplHello,
// ReplSnapshot, ReplFrames) carry a per-publisher-lifetime Run nonce next
// to the persisted Epoch, and the Promote/Retarget admin frames plus
// CodeFenced implement follower promotion with epoch fencing.
//
// Version 4 added transaction options: a Begin payload may carry one flag
// byte after its request ID (see EncodeBegin), bit 0 marking the
// transaction read-only — a snapshot-pinned reader that never conflicts
// and that a replica can serve.
const Version = 4

// DefaultMaxFrame bounds the frames a peer will accept (length field
// inclusive of the type byte). Large result sets stream inside a single
// frame, so the default is generous.
const DefaultMaxFrame = 64 << 20

// Type tags a frame. Requests are 0x1x, responses 0x2x.
type Type byte

// Frame types.
const (
	THello        Type = 0x01 // both directions: magic + version
	TRetarget     Type = 0x02 // admin: epoch + address — re-point a follower, or fence a primary
	TQuery        Type = 0x10 // payload: uvarint request ID + DML text of one Retrieve
	TExec         Type = 0x11 // payload: uvarint request ID + DML text of one update statement
	TExplain      Type = 0x12 // payload: DML text of one Retrieve
	TCheckpoint   Type = 0x13 // no payload
	TStats        Type = 0x14 // no payload
	TPing         Type = 0x15 // no payload
	TQueryTrace   Type = 0x16 // payload: uvarint request ID + DML text; answered with TResultTrace
	TBegin        Type = 0x17 // payload: uvarint request ID: open this connection's transaction
	TCommit       Type = 0x18 // payload: uvarint request ID: commit this connection's transaction
	TRollback     Type = 0x19 // payload: uvarint request ID: roll back this connection's transaction
	TReplHello    Type = 0x1A // follower → primary: subscribe (epoch + applied position)
	TReplStatus   Type = 0x1B // no payload: replication status request
	TReplAck      Type = 0x1C // follower → primary: applied position
	TIntrospect   Type = 0x1D // payload: one kind byte (see Introspect*); answered with TIntrospectOK
	TTraceCommit  Type = 0x1E // payload: uvarint request ID: commit + return the span breakdown
	TPromote      Type = 0x1F // admin: promote this replica to primary; answered with TPromoteOK
	TResult       Type = 0x20 // payload: result set (EncodeResult)
	TExecOK       Type = 0x21 // payload: uvarint affected-entity count
	TExplainOK    Type = 0x22 // payload: strategy text
	TOK           Type = 0x23 // no payload (Checkpoint ack)
	TStatsOK      Type = 0x24 // payload: ServerStats
	TPong         Type = 0x25 // no payload
	TResultTrace  Type = 0x26 // payload: result set + TraceInfo
	TReplSnapshot Type = 0x27 // primary → follower: one chunk of a base image
	TReplFrames   Type = 0x28 // primary → follower: one committed page group (or heartbeat)
	TReplStatusOK Type = 0x29 // payload: ReplStatus
	TIntrospectOK Type = 0x2A // payload: rendered introspection text
	TCommitTraced Type = 0x2B // payload: CommitInfo (TraceCommit ack)
	TPromoteOK    Type = 0x2C // payload: uvarint epoch the node now publishes under
	TError        Type = 0x2F // payload: uvarint code + message text
)

// Introspection kinds (the one-byte TIntrospect payload).
const (
	IntrospectFlight byte = 0 // flight-recorder dump
	IntrospectHot    byte = 1 // latch contention profile
)

var typeNames = map[Type]string{
	THello: "Hello", TQuery: "Query", TExec: "Exec", TExplain: "Explain",
	TCheckpoint: "Checkpoint", TStats: "Stats", TPing: "Ping",
	TQueryTrace: "QueryTrace",
	TBegin:      "Begin", TCommit: "Commit", TRollback: "Rollback",
	TReplHello: "ReplHello", TReplStatus: "ReplStatus", TReplAck: "ReplAck",
	TIntrospect: "Introspect", TTraceCommit: "TraceCommit",
	TPromote: "Promote", TPromoteOK: "PromoteOK", TRetarget: "Retarget",
	TResult: "Result", TExecOK: "ExecOK", TExplainOK: "ExplainOK",
	TOK: "OK", TStatsOK: "StatsOK", TPong: "Pong",
	TResultTrace: "ResultTrace", TReplSnapshot: "ReplSnapshot",
	TReplFrames: "ReplFrames", TReplStatusOK: "ReplStatusOK",
	TIntrospectOK: "IntrospectOK", TCommitTraced: "CommitTraced", TError: "Error",
}

func (t Type) String() string {
	if n, ok := typeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("Type(0x%02x)", byte(t))
}

// Code classifies an Error frame.
type Code uint32

// Error codes.
const (
	CodeUnknown    Code = iota
	CodeParse           // the statement text failed to parse
	CodeSemantic        // bind/plan error (unknown class, attribute, type mix)
	CodeExec            // runtime failure (integrity violation, I/O, ...)
	CodeProtocol        // malformed frame, bad handshake, unknown type
	CodeTimeout         // the per-request deadline expired
	CodeBusy            // connection limit reached
	CodeShutdown        // server is draining
	CodeInternal        // server-side panic or invariant failure
	CodeOverloaded      // request queue full: fast-fail instead of queueing
	CodeConflict        // write-write conflict with another open transaction
	CodeTxState         // transaction-control request in the wrong state
	CodeReadOnly        // write sent to a read-only replica
	CodeFenced          // write or subscribe sent to a primary fenced by a higher epoch
)

var codeNames = [...]string{"unknown", "parse", "semantic", "exec", "protocol", "timeout", "busy", "shutdown", "internal", "overloaded", "conflict", "txstate", "readonly", "fenced"}

func (c Code) String() string {
	if int(c) < len(codeNames) {
		return codeNames[c]
	}
	return fmt.Sprintf("code(%d)", uint32(c))
}

// Error is a structured protocol error: the remote failure a client
// observes, carrying the server's classification.
type Error struct {
	Code Code
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("sim: remote %s error: %s", e.Code, e.Msg) }

// writeBufs recycles the header+payload staging buffers WriteFrame uses
// so steady-state framing stops allocating per message. Buffers that grew
// past writeBufMax are dropped instead of pooled, keeping one huge result
// frame from pinning its buffer for the life of the process.
var writeBufs = sync.Pool{New: func() any { return new(frameBuf) }}

type frameBuf struct{ b []byte }

const writeBufMax = 1 << 20

// WriteFrame writes one frame. Payload may be nil. The frame is staged in
// a pooled buffer and handed to w in a single Write call, so the payload
// is not retained past the call.
func WriteFrame(w io.Writer, t Type, payload []byte) error {
	fb := writeBufs.Get().(*frameBuf)
	need := 5 + len(payload)
	if cap(fb.b) < need {
		fb.b = make([]byte, need)
	}
	buf := fb.b[:need]
	binary.BigEndian.PutUint32(buf, uint32(1+len(payload)))
	buf[4] = byte(t)
	copy(buf[5:], payload)
	_, err := w.Write(buf)
	if cap(fb.b) <= writeBufMax {
		writeBufs.Put(fb)
	}
	return err
}

// ErrFrameTooLarge reports a frame whose declared length exceeds the
// reader's limit; the connection is poisoned past it.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ReadFrame reads one frame, rejecting declared lengths of zero or beyond
// max (0 means DefaultMaxFrame). The payload is freshly allocated and
// owned by the caller.
func ReadFrame(r io.Reader, max int) (Type, []byte, error) {
	return ReadFrameBuf(r, max, nil)
}

// ReadFrameBuf is ReadFrame with a caller-recycled payload buffer: the
// returned payload slice reuses buf's capacity when it fits, growing it
// otherwise. Pass the returned payload back (resliced to capacity) on the
// next call to amortize the allocation to zero. The payload is only valid
// until buf's next use; callers that retain payload bytes must copy them
// (decoding to strings, as every payload decoder here does, copies).
func ReadFrameBuf(r io.Reader, max int, buf []byte) (Type, []byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 {
		return 0, nil, fmt.Errorf("wire: zero-length frame")
	}
	if n > uint32(max) {
		return 0, nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	var payload []byte
	if int(n-1) <= cap(buf) {
		payload = buf[:n-1]
	} else {
		payload = make([]byte, n-1)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return Type(hdr[4]), payload, nil
}

// EncodeHello builds a Hello payload.
func EncodeHello() []byte {
	return append([]byte(Magic), Version)
}

// DecodeHello validates a Hello payload and returns the peer's version.
func DecodeHello(b []byte) (byte, error) {
	if len(b) != len(Magic)+1 || string(b[:len(Magic)]) != Magic {
		return 0, fmt.Errorf("wire: bad hello (not a SIM peer)")
	}
	return b[len(Magic)], nil
}

// EncodeRequest builds a traced request payload: the uvarint request ID
// followed by the statement text (empty for the transaction-control
// frames). ID 0 marks an untraced request.
func EncodeRequest(id uint64, body []byte) []byte {
	b := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+len(body)), id)
	return append(b, body...)
}

// DecodeRequest splits a traced request payload into its request ID and
// body. An empty payload decodes as an untraced empty request, so the
// transaction-control frames may omit the payload entirely. The body
// aliases b.
func DecodeRequest(b []byte) (uint64, []byte, error) {
	if len(b) == 0 {
		return 0, nil, nil
	}
	id, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("wire: bad request ID prefix")
	}
	return id, b[n:], nil
}

// Begin flag bits (the optional byte after a Begin request ID).
const (
	// BeginReadOnly marks the transaction a pure snapshot reader: it pins
	// the latest committed version stamp at Begin, never takes latches,
	// never conflicts, and rejects Exec. Replicas may serve it.
	BeginReadOnly byte = 1 << 0
)

// EncodeBegin builds a Begin payload: the uvarint request ID followed —
// only when some flag is set — by one flag byte.
func EncodeBegin(id uint64, flags byte) []byte {
	b := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+1), id)
	if flags != 0 {
		b = append(b, flags)
	}
	return b
}

// DecodeBegin splits a Begin payload into its request ID and flag byte.
// An omitted flag byte means no flags; unknown flag bits are rejected so a
// future client cannot silently get weaker semantics than it asked for.
func DecodeBegin(b []byte) (uint64, byte, error) {
	id, rest, err := DecodeRequest(b)
	if err != nil {
		return 0, 0, err
	}
	switch {
	case len(rest) == 0:
		return id, 0, nil
	case len(rest) > 1:
		return 0, 0, fmt.Errorf("wire: trailing bytes in begin frame")
	case rest[0]&^BeginReadOnly != 0:
		return 0, 0, fmt.Errorf("wire: unknown begin flags 0x%02x", rest[0])
	}
	return id, rest[0], nil
}

// CommitInfo is the span breakdown of one remote commit, the TraceCommit
// ack: where the write spent its time from latch acquisition through the
// group-commit flush, and the replication position it published at.
type CommitInfo struct {
	ID            uint64 // request ID the commit ran under
	Pages         uint64 // dirty pages the transaction contributed
	GroupN        uint64 // commits merged into the same flush group
	Pos           uint64 // replication position (0 = unreplicated)
	LatchWaitNS   uint64
	EnqueueWaitNS uint64
	FsyncNS       uint64
	TotalNS       uint64
	Rendered      string // server-rendered CommitTrace
}

// EncodeCommitInfo builds a CommitTraced payload.
func EncodeCommitInfo(ci CommitInfo) []byte {
	b := binary.AppendUvarint(nil, ci.ID)
	b = binary.AppendUvarint(b, ci.Pages)
	b = binary.AppendUvarint(b, ci.GroupN)
	b = binary.AppendUvarint(b, ci.Pos)
	b = binary.AppendUvarint(b, ci.LatchWaitNS)
	b = binary.AppendUvarint(b, ci.EnqueueWaitNS)
	b = binary.AppendUvarint(b, ci.FsyncNS)
	b = binary.AppendUvarint(b, ci.TotalNS)
	return append(b, ci.Rendered...)
}

// DecodeCommitInfo decodes a CommitTraced payload.
func DecodeCommitInfo(b []byte) (CommitInfo, error) {
	var ci CommitInfo
	for _, f := range []*uint64{&ci.ID, &ci.Pages, &ci.GroupN, &ci.Pos,
		&ci.LatchWaitNS, &ci.EnqueueWaitNS, &ci.FsyncNS, &ci.TotalNS} {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return CommitInfo{}, fmt.Errorf("wire: bad commit trace frame")
		}
		*f = v
		b = b[n:]
	}
	ci.Rendered = string(b)
	return ci, nil
}

// EncodeError builds an Error payload.
func EncodeError(code Code, msg string) []byte {
	b := binary.AppendUvarint(nil, uint64(code))
	return append(b, msg...)
}

// DecodeError decodes an Error payload.
func DecodeError(b []byte) (*Error, error) {
	code, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("wire: bad error frame")
	}
	return &Error{Code: Code(code), Msg: string(b[n:])}, nil
}

// EncodeCount builds an ExecOK payload.
func EncodeCount(n int) []byte {
	return binary.AppendUvarint(nil, uint64(n))
}

// DecodeCount decodes an ExecOK payload.
func DecodeCount(b []byte) (int, error) {
	n, ln := binary.Uvarint(b)
	if ln <= 0 || ln != len(b) {
		return 0, fmt.Errorf("wire: bad count frame")
	}
	return int(n), nil
}

// ServerStats is the atomic counter set a server reports in a StatsOK
// frame: lifetime totals since the server started.
type ServerStats struct {
	Connections uint64 // connections accepted
	Active      uint64 // connections currently open
	Requests    uint64 // request frames served
	BytesIn     uint64 // frame bytes read
	BytesOut    uint64 // frame bytes written
	Errors      uint64 // error frames sent + aborted connections
}

func (s ServerStats) String() string {
	return fmt.Sprintf("conns=%d active=%d requests=%d bytes-in=%d bytes-out=%d errors=%d",
		s.Connections, s.Active, s.Requests, s.BytesIn, s.BytesOut, s.Errors)
}

// EncodeServerStats builds a StatsOK payload.
func EncodeServerStats(s ServerStats) []byte {
	b := binary.AppendUvarint(nil, s.Connections)
	b = binary.AppendUvarint(b, s.Active)
	b = binary.AppendUvarint(b, s.Requests)
	b = binary.AppendUvarint(b, s.BytesIn)
	b = binary.AppendUvarint(b, s.BytesOut)
	return binary.AppendUvarint(b, s.Errors)
}

// DecodeServerStats decodes a StatsOK payload.
func DecodeServerStats(b []byte) (ServerStats, error) {
	var s ServerStats
	for _, f := range []*uint64{&s.Connections, &s.Active, &s.Requests, &s.BytesIn, &s.BytesOut, &s.Errors} {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return ServerStats{}, fmt.Errorf("wire: bad stats frame")
		}
		*f = v
		b = b[n:]
	}
	if len(b) != 0 {
		return ServerStats{}, fmt.Errorf("wire: trailing bytes in stats frame")
	}
	return s, nil
}
