package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Latch contention profiling. The hot synchronization points of the
// engine — the store write latch, the buffer-pool shard locks, the WAL
// group-commit leader hand-off — each own a Latch and report every
// acquisition: uncontended acquisitions pay one atomic add, contended
// ones additionally record the wait in a histogram. The profiles surface
// as sim_latch_<name>_* metrics and the \hot view, and are the baseline
// the MVCC refactor (ROADMAP) will be judged against: they name which
// latches serialize the flat ~320 qps T10 ceiling.

// Latch accumulates acquisition and wait statistics for one named lock.
// The zero value is not usable; embed a named Latch per lock.
type Latch struct {
	name      string
	acq       atomic.Uint64
	contended atomic.Uint64
	wait      Histogram // waits observed on the contended path only
}

// NewLatch returns a profile for the latch named name (snake_case; it
// becomes part of the metric names).
func NewLatch(name string) *Latch { return &Latch{name: name} }

// Acquired records one uncontended acquisition.
func (l *Latch) Acquired() { l.acq.Add(1) }

// Waited records one contended acquisition that blocked for d.
func (l *Latch) Waited(d time.Duration) {
	l.acq.Add(1)
	l.contended.Add(1)
	l.wait.Observe(d)
}

// Register exposes the profile as sim_latch_<name>_acquisitions_total,
// sim_latch_<name>_contended_total and sim_latch_<name>_wait_seconds,
// and hooks the owned atomics into the registry's reset scope.
func (l *Latch) Register(r *Registry, help string) {
	prefix := "sim_latch_" + l.name
	r.CounterFunc(prefix+"_acquisitions_total", help+" (acquisitions)",
		func() float64 { return float64(l.acq.Load()) })
	r.CounterFunc(prefix+"_contended_total", help+" (contended acquisitions)",
		func() float64 { return float64(l.contended.Load()) })
	r.HistogramVar(&l.wait, prefix+"_wait_seconds", help+" (contended wait time)")
	r.OnReset(func() {
		l.acq.Store(0)
		l.contended.Store(0)
		// The wait histogram is registry-owned via HistogramVar and already
		// zeroed by ResetCounters.
	})
}

// RenderHot formats the contention profile from a registry snapshot: one
// line per sim_latch_* family, hottest (largest total wait) first — the
// body of the \hot view.
func RenderHot(snap map[string]float64) string {
	type family struct {
		name           string
		acq, contended float64
		waitSum        float64
		waitCount      float64
	}
	var fams []family
	var conflicts []string
	for name := range snap {
		if f, ok := strings.CutSuffix(name, "_acquisitions_total"); ok && strings.HasPrefix(f, "sim_latch_") {
			short := strings.TrimPrefix(f, "sim_latch_")
			fams = append(fams, family{
				name:      short,
				acq:       snap[name],
				contended: snap[f+"_contended_total"],
				waitSum:   snap[f+"_wait_seconds_sum"],
				waitCount: snap[f+"_wait_seconds_count"],
			})
		}
		if strings.HasPrefix(name, "sim_latch_class_") && strings.HasSuffix(name, "_conflicts_total") && snap[name] > 0 {
			class := strings.TrimSuffix(strings.TrimPrefix(name, "sim_latch_class_"), "_conflicts_total")
			conflicts = append(conflicts, fmt.Sprintf("%s=%d", class, int64(snap[name])))
		}
	}
	if len(fams) == 0 {
		return "no latch profiles registered\n"
	}
	sort.Slice(fams, func(i, j int) bool {
		if fams[i].waitSum != fams[j].waitSum {
			return fams[i].waitSum > fams[j].waitSum
		}
		return fams[i].name < fams[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %12s %8s %12s %12s\n",
		"latch", "acq", "contended", "cont%", "wait-total", "wait-avg")
	for _, f := range fams {
		pct := 0.0
		if f.acq > 0 {
			pct = 100 * f.contended / f.acq
		}
		avg := time.Duration(0)
		if f.waitCount > 0 {
			avg = time.Duration(f.waitSum / f.waitCount * float64(time.Second))
		}
		fmt.Fprintf(&b, "%-16s %12d %12d %7.2f%% %12s %12s\n",
			f.name, int64(f.acq), int64(f.contended), pct,
			fmtDur(time.Duration(f.waitSum*float64(time.Second))), fmtDur(avg))
	}
	if len(conflicts) > 0 {
		sort.Strings(conflicts)
		fmt.Fprintf(&b, "conflicts by class: %s\n", strings.Join(conflicts, " "))
	}
	if _, ok := snap["sim_mvcc_published_stamp"]; ok {
		fmt.Fprintf(&b, "mvcc: published=%d oldest-pinned=%d pinned-views=%d live-versions=%d entity-conflicts=%d version-errors=%d\n",
			int64(snap["sim_mvcc_published_stamp"]),
			int64(snap["sim_mvcc_oldest_pinned_stamp"]),
			int64(snap["sim_mvcc_pinned_views"]),
			int64(snap["sim_mvcc_live_versions"]),
			int64(snap["sim_txn_conflicts_total"]),
			int64(snap["sim_mvcc_version_errors_total"]))
	}
	return b.String()
}

// Request/trace IDs. A request ID is minted by the client, rides every
// request frame, and names the full lifecycle of a write: the server
// session, the transaction, the group-commit flush, the replication
// group, and the follower's apply all record it. 0 means "no ID".

// idCounter seeds request IDs: a random 32-bit prefix (per process) with
// a 32-bit counter, so IDs from concurrent clients rarely collide while
// staying cheap to mint.
var idCounter = func() *atomic.Uint64 {
	var c atomic.Uint64
	var seed [4]byte
	rand.Read(seed[:])
	c.Store(uint64(binary.BigEndian.Uint32(seed[:])) << 32)
	return &c
}()

// NewRequestID mints a nonzero request ID.
func NewRequestID() uint64 {
	for {
		if id := idCounter.Add(1); id != 0 {
			return id
		}
	}
}

// ctxKey carries a request ID through a context.
type ctxKey struct{}

// WithRequestID returns ctx carrying id.
func WithRequestID(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, id)
}

// RequestID returns the request ID carried by ctx, or 0.
func RequestID(ctx context.Context) uint64 {
	id, _ := ctx.Value(ctxKey{}).(uint64)
	return id
}
