package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Replication frames. A follower opens a normal Hello session, then sends
// one ReplHello carrying the primary epoch and publisher run it last
// followed and the last position it durably applied. The server answers
// with a stream: either ReplFrames continuing from that position, or —
// when the epoch/run is stale or the position has been evicted from the
// primary's in-memory tail — a base snapshot (ReplSnapshot chunks)
// followed by ReplFrames from the snapshot position. The follower sends
// ReplAck frames back on the same connection as it applies; the primary
// uses them only for staleness reporting, never for commit acknowledgment
// (replication is async).
//
// Epoch is the persisted fencing term: it advances only on promotion, and
// a primary that learns of a higher epoch (via ReplHello or Retarget)
// fences itself. Run is a random nonce drawn each time a publisher opens;
// positions are only comparable within one (epoch, run) pair, so a
// follower may resume a stream only when both match — anything else
// forces a re-snapshot.
//
// Positions are assigned by the publisher, monotonically per run,
// starting at 1; position 0 in a ReplFrames frame marks a heartbeat
// (no pages, just the primary's latest position for lag estimation).

// ReplHello is the follower's subscribe request.
type ReplHello struct {
	Epoch uint64 // primary epoch last followed; 0 = none
	Run   uint64 // publisher run the position belongs to; 0 = none
	Pos   uint64 // last position durably applied; 0 = none
}

// EncodeReplHello builds a ReplHello payload.
func EncodeReplHello(h ReplHello) []byte {
	b := binary.AppendUvarint(nil, h.Epoch)
	b = binary.AppendUvarint(b, h.Run)
	return binary.AppendUvarint(b, h.Pos)
}

// DecodeReplHello decodes a ReplHello payload.
func DecodeReplHello(b []byte) (ReplHello, error) {
	var h ReplHello
	for _, f := range []*uint64{&h.Epoch, &h.Run, &h.Pos} {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return ReplHello{}, fmt.Errorf("wire: bad repl hello frame")
		}
		*f = v
		b = b[n:]
	}
	if len(b) != 0 {
		return ReplHello{}, fmt.Errorf("wire: trailing bytes in repl hello frame")
	}
	return h, nil
}

// EncodeReplAck builds a ReplAck payload: the follower's applied position.
func EncodeReplAck(pos uint64) []byte {
	return binary.AppendUvarint(nil, pos)
}

// DecodeReplAck decodes a ReplAck payload.
func DecodeReplAck(b []byte) (uint64, error) {
	pos, n := binary.Uvarint(b)
	if n <= 0 || n != len(b) {
		return 0, fmt.Errorf("wire: bad repl ack frame")
	}
	return pos, nil
}

// ReplSnapshot is one chunk of a base database image. Total is the image
// length in bytes and Offset the chunk's position in it; the follower
// buffers chunks until Offset+len(Chunk) == Total, then installs the
// image atomically. Pos is the publisher position the image is current
// as of.
type ReplSnapshot struct {
	Epoch uint64
	Run   uint64
	Pos   uint64
	// Gen is sent as 0 and no follower reads it: a follower publishes the
	// image's schema from its pages.
	//
	// Deprecated: the slot stays in wire v4's layout; the next wire
	// version drops it, and the field with it.
	Gen    uint64
	Total  uint64
	Offset uint64
	Chunk  []byte
}

// EncodeReplSnapshot builds a ReplSnapshot payload.
func EncodeReplSnapshot(s ReplSnapshot) []byte {
	b := binary.AppendUvarint(nil, s.Epoch)
	b = binary.AppendUvarint(b, s.Run)
	b = binary.AppendUvarint(b, s.Pos)
	b = binary.AppendUvarint(b, s.Gen)
	b = binary.AppendUvarint(b, s.Total)
	b = binary.AppendUvarint(b, s.Offset)
	return append(b, s.Chunk...)
}

// DecodeReplSnapshot decodes a ReplSnapshot payload. The Chunk slice
// aliases b; callers that retain it past the frame buffer's reuse must
// copy.
func DecodeReplSnapshot(b []byte) (ReplSnapshot, error) {
	var s ReplSnapshot
	for _, f := range []*uint64{&s.Epoch, &s.Run, &s.Pos, &s.Gen, &s.Total, &s.Offset} {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return ReplSnapshot{}, fmt.Errorf("wire: bad repl snapshot frame")
		}
		*f = v
		b = b[n:]
	}
	if s.Offset > s.Total || uint64(len(b)) > s.Total-s.Offset {
		return ReplSnapshot{}, fmt.Errorf("wire: repl snapshot chunk overruns total")
	}
	s.Chunk = b
	return s, nil
}

// ReplFrames is one committed page group: the publisher position it
// advances the follower to, the primary's latest position (for lag
// estimation), the request IDs of the commits merged into the group (trace-context
// propagation: the follower records them on apply), the primary's
// wall-clock at publish (unix nanoseconds, for staleness estimation; 0 =
// unknown), and the page images. Pos == 0 marks a heartbeat: no pages,
// Latest still current.
type ReplFrames struct {
	Epoch  uint64
	Run    uint64
	Pos    uint64
	Latest uint64
	// Gen is sent as 0 and no follower reads it: a follower publishes the
	// schema a group committed from its pages.
	//
	// Deprecated: the slot stays in wire v4's layout; the next wire
	// version drops it, and a later benchmark change removes the last use
	// of the field, which is deleted then.
	Gen   uint64
	TS    uint64
	IDs   []uint64
	Pages []ReplPage
}

// maxReplFrameIDs bounds the decoded request-ID list against hostile
// lengths (a flush group merges at most a few hundred commits).
const maxReplFrameIDs = 1 << 16

// ReplPage is one page image inside a ReplFrames frame.
type ReplPage struct {
	ID   uint32
	Data []byte
}

// EncodeReplFrames builds a ReplFrames payload.
func EncodeReplFrames(f ReplFrames) []byte {
	b := binary.AppendUvarint(nil, f.Epoch)
	b = binary.AppendUvarint(b, f.Run)
	b = binary.AppendUvarint(b, f.Pos)
	b = binary.AppendUvarint(b, f.Latest)
	b = binary.AppendUvarint(b, f.Gen)
	b = binary.AppendUvarint(b, f.TS)
	b = binary.AppendUvarint(b, uint64(len(f.IDs)))
	for _, id := range f.IDs {
		b = binary.AppendUvarint(b, id)
	}
	b = binary.AppendUvarint(b, uint64(len(f.Pages)))
	for _, p := range f.Pages {
		b = binary.AppendUvarint(b, uint64(p.ID))
		b = binary.AppendUvarint(b, uint64(len(p.Data)))
		b = append(b, p.Data...)
	}
	return b
}

// DecodeReplFrames decodes a ReplFrames payload. Page Data slices alias
// b; callers that retain them past the frame buffer's reuse must copy.
func DecodeReplFrames(b []byte) (ReplFrames, error) {
	var f ReplFrames
	var nids uint64
	for _, dst := range []*uint64{&f.Epoch, &f.Run, &f.Pos, &f.Latest, &f.Gen, &f.TS, &nids} {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return ReplFrames{}, fmt.Errorf("wire: bad repl frames frame")
		}
		*dst = v
		b = b[n:]
	}
	if nids > maxReplFrameIDs || nids > uint64(len(b)) { // every ID needs ≥1 byte
		return ReplFrames{}, fmt.Errorf("wire: repl frames ID count overruns frame")
	}
	if nids > 0 {
		f.IDs = make([]uint64, 0, nids)
	}
	for i := uint64(0); i < nids; i++ {
		id, n := binary.Uvarint(b)
		if n <= 0 {
			return ReplFrames{}, fmt.Errorf("wire: bad repl frames request ID")
		}
		b = b[n:]
		f.IDs = append(f.IDs, id)
	}
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return ReplFrames{}, fmt.Errorf("wire: bad repl frames frame")
	}
	b = b[n:]
	if count > uint64(len(b)) { // every page needs ≥1 byte of encoding
		return ReplFrames{}, fmt.Errorf("wire: repl frames page count overruns frame")
	}
	if count > 0 {
		f.Pages = make([]ReplPage, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		id, n := binary.Uvarint(b)
		if n <= 0 || id > math.MaxUint32 {
			return ReplFrames{}, fmt.Errorf("wire: bad repl frames page id")
		}
		b = b[n:]
		size, n := binary.Uvarint(b)
		if n <= 0 || size > uint64(len(b)-n) {
			return ReplFrames{}, fmt.Errorf("wire: repl frames page overruns frame")
		}
		b = b[n:]
		f.Pages = append(f.Pages, ReplPage{ID: uint32(id), Data: b[:size]})
		b = b[size:]
	}
	if len(b) != 0 {
		return ReplFrames{}, fmt.Errorf("wire: trailing bytes in repl frames frame")
	}
	return f, nil
}

// ReplStatus is the replication status a node reports in a ReplStatusOK
// frame. On a primary, Replicas describes each connected follower; on a
// follower, exactly one entry describes its own apply progress against
// its primary.
type ReplStatus struct {
	Role     string // "primary", "replica", or "none"
	Epoch    uint64
	Latest   uint64 // primary: newest published position; follower: primary's latest seen
	Replicas []ReplicaInfo
}

// ReplicaInfo is one follower's progress as seen by the reporting node.
type ReplicaInfo struct {
	Addr   string
	State  string // "snapshot", "streaming", "connected", "connecting", ...
	Pos    uint64 // last position the follower acked (or applied, on a follower)
	Latest uint64 // primary's position when Pos was recorded
	AgeMs  uint64 // milliseconds since the last ack/apply
}

// Lag returns the follower's position lag in commit groups.
func (r ReplicaInfo) Lag() uint64 {
	if r.Latest < r.Pos {
		return 0
	}
	return r.Latest - r.Pos
}

func (s ReplStatus) String() string {
	out := fmt.Sprintf("role=%s epoch=%d latest=%d replicas=%d", s.Role, s.Epoch, s.Latest, len(s.Replicas))
	for _, r := range s.Replicas {
		out += fmt.Sprintf("\n  %s state=%s pos=%d lag=%d age=%dms", r.Addr, r.State, r.Pos, r.Lag(), r.AgeMs)
	}
	return out
}

// maxReplStatus bounds the decoded shape of a ReplStatus frame against
// hostile lengths.
const (
	maxReplStatusStr      = 256
	maxReplStatusReplicas = 1 << 12
)

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	size, n := binary.Uvarint(b)
	if n <= 0 || size > maxReplStatusStr || size > uint64(len(b)-n) {
		return "", nil, fmt.Errorf("wire: bad string in repl status frame")
	}
	return string(b[n : n+int(size)]), b[n+int(size):], nil
}

// EncodeReplStatus builds a ReplStatusOK payload.
func EncodeReplStatus(s ReplStatus) []byte {
	b := appendString(nil, s.Role)
	b = binary.AppendUvarint(b, s.Epoch)
	b = binary.AppendUvarint(b, s.Latest)
	b = binary.AppendUvarint(b, uint64(len(s.Replicas)))
	for _, r := range s.Replicas {
		b = appendString(b, r.Addr)
		b = appendString(b, r.State)
		b = binary.AppendUvarint(b, r.Pos)
		b = binary.AppendUvarint(b, r.Latest)
		b = binary.AppendUvarint(b, r.AgeMs)
	}
	return b
}

// EncodePromoteOK builds a PromoteOK payload: the epoch the promoted node
// now publishes under.
func EncodePromoteOK(epoch uint64) []byte {
	return binary.AppendUvarint(nil, epoch)
}

// DecodePromoteOK decodes a PromoteOK payload.
func DecodePromoteOK(b []byte) (uint64, error) {
	epoch, n := binary.Uvarint(b)
	if n <= 0 || n != len(b) {
		return 0, fmt.Errorf("wire: bad promote ok frame")
	}
	return epoch, nil
}

// Retarget is the failover admin frame. Sent to a replica it re-points
// the follower at Addr (Epoch is advisory). Sent to a primary it is the
// active fencing vector: a node that receives a Retarget carrying an
// epoch higher than its own demotes to read-only and, when Addr is
// non-empty, rejoins the cluster as a follower of Addr.
type Retarget struct {
	Epoch uint64 // the sender's epoch; 0 = no fencing claim
	Addr  string // address of the (new) primary; "" = fence only
}

// EncodeRetarget builds a Retarget payload.
func EncodeRetarget(r Retarget) []byte {
	b := binary.AppendUvarint(nil, r.Epoch)
	return append(b, r.Addr...)
}

// DecodeRetarget decodes a Retarget payload.
func DecodeRetarget(b []byte) (Retarget, error) {
	epoch, n := binary.Uvarint(b)
	if n <= 0 || len(b)-n > maxReplStatusStr {
		return Retarget{}, fmt.Errorf("wire: bad retarget frame")
	}
	return Retarget{Epoch: epoch, Addr: string(b[n:])}, nil
}

// DecodeReplStatus decodes a ReplStatusOK payload.
func DecodeReplStatus(b []byte) (ReplStatus, error) {
	var s ReplStatus
	var err error
	if s.Role, b, err = readString(b); err != nil {
		return ReplStatus{}, err
	}
	var count uint64
	for _, dst := range []*uint64{&s.Epoch, &s.Latest, &count} {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return ReplStatus{}, fmt.Errorf("wire: bad repl status frame")
		}
		*dst = v
		b = b[n:]
	}
	if count > maxReplStatusReplicas || count > uint64(len(b)) {
		return ReplStatus{}, fmt.Errorf("wire: repl status replica count overruns frame")
	}
	if count > 0 {
		s.Replicas = make([]ReplicaInfo, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		var r ReplicaInfo
		if r.Addr, b, err = readString(b); err != nil {
			return ReplStatus{}, err
		}
		if r.State, b, err = readString(b); err != nil {
			return ReplStatus{}, err
		}
		for _, dst := range []*uint64{&r.Pos, &r.Latest, &r.AgeMs} {
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return ReplStatus{}, fmt.Errorf("wire: bad repl status frame")
			}
			*dst = v
			b = b[n:]
		}
		s.Replicas = append(s.Replicas, r)
	}
	if len(b) != 0 {
		return ReplStatus{}, fmt.Errorf("wire: trailing bytes in repl status frame")
	}
	return s, nil
}
