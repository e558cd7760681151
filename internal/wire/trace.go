package wire

import (
	"encoding/binary"
	"fmt"
	"time"

	"sim/internal/exec"
	"sim/internal/obs"
)

// TraceInfo is the server-side span breakdown a QueryTrace request
// returns alongside its result set: phase durations, work counts, cache
// deltas and the server-rendered EXPLAIN ANALYZE text (the per-node tree
// is shipped pre-rendered rather than re-encoded structurally — clients
// display it, they don't compute on it).
type TraceInfo struct {
	ID          uint64 // request ID the query ran under (0 = untraced)
	ParseNS     uint64
	PlanNS      uint64
	ExecNS      uint64
	TotalNS     uint64
	Rows        uint64
	Instances   uint64
	PagerHits   uint64
	PagerMisses uint64
	CacheHits   uint64
	CacheMisses uint64
	PlanCached  bool
	Rendered    string
}

// FromQueryTrace flattens an executed trace for the wire.
func FromQueryTrace(t *obs.QueryTrace) TraceInfo {
	return TraceInfo{
		ID:          t.ID,
		ParseNS:     uint64(t.Parse.Nanoseconds()),
		PlanNS:      uint64(t.Plan.Nanoseconds()),
		ExecNS:      uint64(t.Exec.Nanoseconds()),
		TotalNS:     uint64(t.Total.Nanoseconds()),
		Rows:        uint64(t.Rows),
		Instances:   uint64(t.Instances),
		PagerHits:   t.PagerHits,
		PagerMisses: t.PagerMisses,
		CacheHits:   t.CacheHits,
		CacheMisses: t.CacheMisses,
		PlanCached:  t.PlanCached,
		Rendered:    t.Render(),
	}
}

// FromCommitTrace flattens a commit-span breakdown for the wire.
func FromCommitTrace(ct *obs.CommitTrace) CommitInfo {
	return CommitInfo{
		ID:            ct.ID,
		Pages:         uint64(ct.Pages),
		GroupN:        uint64(ct.GroupN),
		Pos:           ct.Pos,
		LatchWaitNS:   uint64(ct.LatchWait.Nanoseconds()),
		EnqueueWaitNS: uint64(ct.EnqueueWait.Nanoseconds()),
		FsyncNS:       uint64(ct.Fsync.Nanoseconds()),
		TotalNS:       uint64(ct.Total.Nanoseconds()),
		Rendered:      ct.Render(),
	}
}

// Total returns the end-to-end server-side duration.
func (t TraceInfo) Total() time.Duration { return time.Duration(t.TotalNS) }

func (t TraceInfo) String() string {
	cached := ""
	if t.PlanCached {
		cached = " (cached)"
	}
	return fmt.Sprintf("parse %v  plan %v%s  exec %v  total %v  rows=%d",
		time.Duration(t.ParseNS), time.Duration(t.PlanNS), cached,
		time.Duration(t.ExecNS), time.Duration(t.TotalNS), t.Rows)
}

// EncodeResultTrace builds a ResultTrace payload: the length-prefixed
// result set followed by the trace fields and the rendered text. The
// eighth field is a dead slot that once carried a per-query worker count:
// it is written as 1 and ignored on decode, and the layout keeps it until
// the next protocol version.
func EncodeResultTrace(r *exec.Result, ti TraceInfo) []byte {
	res := EncodeResult(r)
	b := binary.AppendUvarint(nil, uint64(len(res)))
	b = append(b, res...)
	for _, v := range []uint64{
		ti.ID, ti.ParseNS, ti.PlanNS, ti.ExecNS, ti.TotalNS,
		ti.Rows, ti.Instances, 1,
		ti.PagerHits, ti.PagerMisses, ti.CacheHits, ti.CacheMisses,
	} {
		b = binary.AppendUvarint(b, v)
	}
	if ti.PlanCached {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return append(b, ti.Rendered...)
}

// DecodeResultTrace decodes a ResultTrace payload.
func DecodeResultTrace(b []byte) (*exec.Result, TraceInfo, error) {
	var ti TraceInfo
	rlen, n := binary.Uvarint(b)
	if n <= 0 || rlen > uint64(len(b)-n) {
		return nil, ti, fmt.Errorf("wire: bad result-trace frame")
	}
	b = b[n:]
	res, err := DecodeResult(b[:rlen])
	if err != nil {
		return nil, ti, err
	}
	b = b[rlen:]
	var deadSlot uint64
	for _, f := range []*uint64{
		&ti.ID, &ti.ParseNS, &ti.PlanNS, &ti.ExecNS, &ti.TotalNS,
		&ti.Rows, &ti.Instances, &deadSlot,
		&ti.PagerHits, &ti.PagerMisses, &ti.CacheHits, &ti.CacheMisses,
	} {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, ti, fmt.Errorf("wire: truncated result-trace frame")
		}
		*f = v
		b = b[n:]
	}
	if len(b) == 0 {
		return nil, ti, fmt.Errorf("wire: truncated result-trace frame")
	}
	ti.PlanCached = b[0] == 1
	ti.Rendered = string(b[1:])
	return res, ti, nil
}
