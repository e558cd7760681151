package obs

import (
	"sync"
	"time"
)

// SlowEntry is one record of the slow-query log.
type SlowEntry struct {
	Statement string
	Duration  time.Duration
	Rows      int
	When      time.Time
	ID        uint64 // request/trace ID the statement ran under, 0 when unset
}

// slowLogCap bounds the retained slow-query history.
const slowLogCap = 128

// SlowLog is a fixed-capacity ring of the most recent statements that ran
// past a configurable threshold. A zero threshold disables recording, so
// the untraced hot path pays one comparison.
type SlowLog struct {
	threshold time.Duration

	mu      sync.Mutex
	entries []SlowEntry
	next    int  // ring cursor
	wrapped bool // ring has overwritten at least one entry
	total   uint64
}

// NewSlowLog returns a slow-query log with the given threshold
// (0 disables it).
func NewSlowLog(threshold time.Duration) *SlowLog {
	return &SlowLog{threshold: threshold}
}

// Observe records stmt when d reaches the threshold, reporting whether it
// did. id is the request/trace ID the statement ran under (0 when none),
// so slow entries correlate with flight-recorder events. Nil logs and
// zero thresholds observe nothing.
func (l *SlowLog) Observe(stmt string, d time.Duration, rows int, id uint64) bool {
	if l == nil || l.threshold <= 0 || d < l.threshold {
		return false
	}
	e := SlowEntry{Statement: stmt, Duration: d, Rows: rows, When: time.Now(), ID: id}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.entries) < slowLogCap {
		l.entries = append(l.entries, e)
		return true
	}
	l.entries[l.next] = e
	l.next = (l.next + 1) % slowLogCap
	l.wrapped = true
	return true
}

// Total returns the number of slow statements observed since creation
// (including ones the ring has since overwritten).
func (l *SlowLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Entries returns the retained slow statements, oldest first.
func (l *SlowLog) Entries() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, 0, len(l.entries))
	if l.wrapped {
		out = append(out, l.entries[l.next:]...)
		out = append(out, l.entries[:l.next]...)
	} else {
		out = append(out, l.entries...)
	}
	return out
}
