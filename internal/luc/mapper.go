// Package luc implements SIM's LUC Mapper (§5.1): the module that maps the
// high-level objects of the semantic model — classes, generalization
// hierarchies, multi-valued DVAs and EVAs — onto record-based storage
// units, and that owns structural integrity ("the Mapper assures the
// structural integrity of data reflected in LUC interconnections").
//
// The default physical mapping follows §5.2:
//
//   - a generalization hierarchy maps to one storage unit with
//     variable-format records keyed by surrogate (the record's format
//     varies with the entity's role set);
//   - 1:1 EVAs map to foreign keys held in both partner records;
//   - 1:many EVAs and many:many EVAs without DISTINCT map into the shared
//     Common EVA Structure of <surrogate1, relationship-id, surrogate2>
//     rows; many:many DISTINCT EVAs get a private structure of the same
//     shape;
//   - multi-valued DVAs with MAX embed as arrays in the owner record;
//     unbounded ones map to a separate dependent storage unit.
//
// Every default can be overridden per attribute or per hierarchy through
// Config, which the benchmark harness uses for the paper's §5.2 mapping
// ablations.
package luc

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"

	"sim/internal/btree"
	"sim/internal/catalog"
	"sim/internal/dmsii"
	"sim/internal/value"
)

// HierarchyStrategy selects how a generalization hierarchy maps to storage.
type HierarchyStrategy int

// Hierarchy strategies.
const (
	// HierarchySingleRecord stores one variable-format record per entity
	// holding the sections of every role (§5.2's default for trees).
	HierarchySingleRecord HierarchyStrategy = iota
	// HierarchySplit stores one storage unit per class with records joined
	// by 1:1 subclass links (same surrogate key), §5.2's mapping for
	// multi-inheritance subclasses, applied to the whole hierarchy.
	HierarchySplit
)

// EVAStrategy selects how an EVA pair maps to storage.
type EVAStrategy int

// EVA strategies.
const (
	// EVADefault applies §5.2's rules: 1:1 → foreign keys; many:many with
	// DISTINCT → private structure; everything else → the Common EVA
	// Structure.
	EVADefault EVAStrategy = iota
	// EVACommon forces the Common EVA Structure.
	EVACommon
	// EVAForeignKey stores the relationship as a foreign key in the
	// single-valued side's record plus the "additional index structure"
	// §5.2 notes a foreign-key mapping of a 1:many EVA needs.
	EVAForeignKey
	// EVAPrivate forces a private <surr1, surr2> structure.
	EVAPrivate
)

// MVDVAStrategy selects how a multi-valued DVA maps to storage.
type MVDVAStrategy int

// Multi-valued DVA strategies.
const (
	// MVDefault embeds values with a MAX bound in the owner record and
	// maps unbounded ones to a separate storage unit (§5.2).
	MVDefault MVDVAStrategy = iota
	// MVEmbedded forces in-record arrays.
	MVEmbedded
	// MVSeparate forces a separate dependent storage unit.
	MVSeparate
)

// Config overrides default physical mappings. Keys are lower-case: base
// class names for Hierarchy, "class.attr" for the attribute maps.
type Config struct {
	Hierarchy map[string]HierarchyStrategy
	EVA       map[string]EVAStrategy
	MVDVA     map[string]MVDVAStrategy
	// Indexes lists "class.attr" DVAs to maintain secondary indexes on
	// (UNIQUE attributes always have one).
	Indexes []string
}

func attrKey(a *catalog.Attribute) string {
	return strings.ToLower(a.Owner.Name + "." + a.Name)
}

// resolved physical mapping for one EVA pair.
type evaMapping int

const (
	evaFK evaMapping = iota
	evaCES
	evaOwn
)

// Mapper is the LUC Mapper instance for one store + catalog. A Mapper is
// either the live instance created by New — reading the store's current
// state, which is stable only under the store write latch — or a view
// derived from it by View/WithOnWrite: a shallow clone sharing the mapping
// decisions (schema-stable), pinned to one commit-stamp snapshot with that
// stamp's decoded-record memo (View) or carrying a write hook
// (WithOnWrite). Views are how concurrent queries each read a consistent
// state while writers commit. A mapper keeps no counter of its own: the
// surrogate counters and the optimizer's statistics are read from, and
// written to, the "~surr" and "~stats" structures of the pages it reads.
type Mapper struct {
	store *dmsii.Store
	cat   *catalog.Catalog

	// snap, when non-nil, pins every read this mapper performs to one
	// commit stamp: structure access resolves through the snapshot's
	// version chains.
	snap Snapshot

	// onWrite, when non-nil, runs before any mutation touching an entity
	// (base class + surrogate), once per mutator entry. The database layer
	// uses it to record what the write-latch holder has written, which is
	// what other transactions' conflict checks read. It cannot fail.
	onWrite func(base *catalog.Class, s value.Surrogate)

	hier  map[*catalog.Class]HierarchyStrategy // by base class
	evas  map[*catalog.Attribute]evaMapping    // by canonical attribute
	mvSep map[*catalog.Attribute]bool          // separate-unit MV DVAs
	idx   map[*catalog.Attribute]bool          // secondary-indexed DVAs

	// slots caches, per class id, the immediate attributes stored in that
	// class's record section, in declaration order. Indexed by id so a
	// record decode resolves each section without a map probe.
	slots [][]slot

	// clNames and attrNames hold the structure names and counter keys of
	// every class and attribute, formatted once by New so that no probe
	// builds one.
	clNames   map[*catalog.Class]classNames
	attrNames map[*catalog.Attribute]attrNames

	// memo holds the records readers of this snapshot view's stamp
	// decoded; nil on the live mapper and its write views, whose reads
	// always decode. last is the memo of the stamp the last view was
	// built at, shared by reference so that consecutive views of one
	// stamp get the same memo.
	memo *memo
	last *atomic.Pointer[memo]
	// reads counts record reads for CacheStats, shared by every view.
	reads *readCounts

	// probes recycles seek cursors (and their key scratch) for the hot
	// read probes — EVA partner lookups in particular fire once per
	// binding, so a fresh cursor per call would dominate allocations.
	// Behind a pointer so views share one pool.
	probes *sync.Pool // *probe
}

// readCounts counts record reads: hits are served from a view's memo,
// misses decode from storage. Atomics, so stats take no lock.
type readCounts struct {
	hits   atomic.Uint64
	misses atomic.Uint64
}

// probe is one recyclable point-lookup kit: a cursor whose leaf-snapshot
// buffers survive across seeks, plus a key-building scratch buffer.
type probe struct {
	cur btree.Cursor
	key []byte
	val []byte // a decode-only value read (Structure.GetAppend)
}

func (m *Mapper) getProbe() *probe {
	if p, ok := m.probes.Get().(*probe); ok {
		return p
	}
	return new(probe)
}

func (m *Mapper) putProbe(p *probe) { m.probes.Put(p) }

// Snapshot is what a mapper view reads through: a dmsii.View shared by
// every reader at one stamp, or one holder's dmsii.Snap on it.
type Snapshot interface {
	Stamp() uint64
	StatsVersion() (uint64, error)
	Structure(name string) (*dmsii.Structure, error)
}

// View returns a mapper whose reads are pinned to snap: structures — the
// statistics included — resolve through the snapshot's version chains,
// and decoded records are memoized in the memo of snap's stamp, shared
// with every view of that stamp built since the last view of another
// stamp. Every reader of snap may share the view. Mutations through a
// snapshot view fail in the store layer.
func (m *Mapper) View(snap Snapshot) *Mapper {
	v := *m
	v.snap = snap
	v.onWrite = nil
	// Builders racing at different stamps may replace each other's memo
	// as the last: a later view of the loser's stamp starts cold, and no
	// view ever gets a memo of another stamp.
	v.memo = m.last.Load()
	if stamp := snap.Stamp(); v.memo == nil || v.memo.stamp != stamp {
		v.memo = &memo{stamp: stamp}
		m.last.Store(v.memo)
	}
	return &v
}

// WithOnWrite returns a live clone whose mutators call fn with the target
// entity (base class, surrogate) before touching it. Like m it reads the
// live pages and has no record memo: a writer decodes every record and
// counter it reads, its own uncommitted writes included.
func (m *Mapper) WithOnWrite(fn func(base *catalog.Class, s value.Surrogate)) *Mapper {
	v := *m
	v.snap = nil
	v.onWrite = fn
	v.memo = nil
	return &v
}

// structure resolves a named structure: through the pinned snapshot for
// views, else live.
func (m *Mapper) structure(name string) (*dmsii.Structure, error) {
	if m.snap != nil {
		return m.snap.Structure(name)
	}
	return m.store.Structure(name)
}

// touch runs the onWrite hook for one entity about to be mutated.
func (m *Mapper) touch(base *catalog.Class, s value.Surrogate) {
	if m.onWrite != nil {
		m.onWrite(base, s)
	}
}

// touchEVA runs the onWrite hook for both partners of an EVA instance.
func (m *Mapper) touchEVA(a *catalog.Attribute, s, t value.Surrogate) {
	if m.onWrite != nil {
		m.onWrite(a.Owner.Base, s)
		m.onWrite(a.Range.Base, t)
	}
}

// CacheStats reports record-read traffic.
type CacheStats struct {
	Hits   uint64 // records served from a read view's memo
	Misses uint64 // records decoded from storage
}

type slotKind int

const (
	slotSingle slotKind = iota // single-valued DVA
	slotMulti                  // embedded multi-valued DVA
	slotFK                     // EVA foreign key (surrogate or NULL)
)

type slot struct {
	attr *catalog.Attribute
	kind slotKind
}

// New builds the mapper, resolving every physical mapping decision.
// Changing the strategy of a populated structure is not supported: a
// schema generation builds a new mapper with the same Config.
func New(store *dmsii.Store, cat *catalog.Catalog, cfg Config) (*Mapper, error) {
	m := &Mapper{
		store:     store,
		cat:       cat,
		hier:      make(map[*catalog.Class]HierarchyStrategy),
		evas:      make(map[*catalog.Attribute]evaMapping),
		mvSep:     make(map[*catalog.Attribute]bool),
		idx:       make(map[*catalog.Attribute]bool),
		clNames:   make(map[*catalog.Class]classNames),
		attrNames: make(map[*catalog.Attribute]attrNames),
		reads:     new(readCounts),
		last:      new(atomic.Pointer[memo]),
		probes:    new(sync.Pool),
	}
	for _, cl := range m.cat.Classes() {
		if cl.IsBase() {
			strat := HierarchySingleRecord
			if cfg.Hierarchy != nil {
				if s, ok := cfg.Hierarchy[strings.ToLower(cl.Name)]; ok {
					strat = s
				}
			}
			m.hier[cl] = strat
		}
	}
	for _, cl := range m.cat.Classes() {
		for _, a := range cl.Attrs {
			switch a.Kind {
			case catalog.EVA:
				can := canonical(a)
				if _, done := m.evas[can]; done {
					continue
				}
				strat := EVADefault
				if cfg.EVA != nil {
					if s, ok := cfg.EVA[attrKey(a)]; ok {
						strat = s
					} else if s, ok := cfg.EVA[attrKey(a.Inverse)]; ok {
						strat = s
					}
				}
				mapping, err := resolveEVA(can, strat)
				if err != nil {
					return nil, err
				}
				m.evas[can] = mapping
			case catalog.DVA:
				if a.Options.MV {
					strat := MVDefault
					if cfg.MVDVA != nil {
						if s, ok := cfg.MVDVA[attrKey(a)]; ok {
							strat = s
						}
					}
					switch strat {
					case MVEmbedded:
						m.mvSep[a] = false
					case MVSeparate:
						m.mvSep[a] = true
					default:
						m.mvSep[a] = a.Options.Max == 0
					}
				}
				if a.Options.Unique {
					m.idx[a] = true
				}
			}
		}
	}
	for _, name := range cfg.Indexes {
		parts := strings.SplitN(strings.ToLower(name), ".", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("luc: index spec %q is not class.attr", name)
		}
		cl := m.cat.Class(parts[0])
		if cl == nil {
			continue // class not defined yet; applied when the schema grows
		}
		a := catalog.ResolveAttr(cl, parts[1])
		if a == nil || a.Kind != catalog.DVA || a.Options.MV {
			return nil, fmt.Errorf("luc: index spec %q: not a single-valued DVA", name)
		}
		m.idx[a] = true
	}
	// Slot tables, structure names and counter keys.
	m.slots = make([][]slot, len(m.cat.Classes()))
	for _, cl := range m.cat.Classes() {
		m.slots[cl.ID] = m.computeSlots(cl)
		m.clNames[cl] = classNames{
			hier:  fmt.Sprintf("h:%d", cl.ID),
			class: fmt.Sprintf("c:%d", cl.ID),
			surr:  fmt.Appendf(nil, "%d", cl.ID),
			count: fmt.Appendf(nil, "c%d", cl.ID),
		}
		for _, a := range cl.Attrs {
			m.attrNames[a] = attrNames{
				own:     fmt.Sprintf("eva:%d", a.ID),
				fkIndex: fmt.Sprintf("fki:%d", a.ID),
				mv:      fmt.Sprintf("mv:%d", a.ID),
				index:   fmt.Sprintf("ix:%d", a.ID),
				count:   fmt.Appendf(nil, "r%d", a.ID),
			}
		}
	}
	return m, nil
}

// canonical picks the representative attribute of an EVA pair (the lower
// attribute id); the relationship id of §5.2's Common EVA Structure rows.
func canonical(a *catalog.Attribute) *catalog.Attribute {
	if a.Inverse != nil && a.Inverse.ID < a.ID {
		return a.Inverse
	}
	return a
}

func resolveEVA(can *catalog.Attribute, strat EVAStrategy) (evaMapping, error) {
	inv := can.Inverse
	oneOne := !can.Options.MV && !inv.Options.MV
	manyMany := can.Options.MV && inv.Options.MV
	switch strat {
	case EVADefault:
		switch {
		case oneOne:
			return evaFK, nil
		case manyMany && (can.Options.Distinct || inv.Options.Distinct):
			return evaOwn, nil
		default:
			return evaCES, nil
		}
	case EVACommon:
		return evaCES, nil
	case EVAPrivate:
		return evaOwn, nil
	case EVAForeignKey:
		if manyMany {
			return 0, fmt.Errorf("luc: EVA %s is many:many; a foreign-key mapping requires a single-valued side", can)
		}
		return evaFK, nil
	}
	return 0, fmt.Errorf("luc: unknown EVA strategy %d", strat)
}

// fkHolders returns the attributes whose owner's record embeds the foreign
// key for an FK-mapped pair: both sides when 1:1, else the single-valued
// side.
func fkHolders(can *catalog.Attribute) []*catalog.Attribute {
	inv := can.Inverse
	if can == inv { // self-inverse (spouse)
		return []*catalog.Attribute{can}
	}
	if !can.Options.MV && !inv.Options.MV {
		return []*catalog.Attribute{can, inv}
	}
	if !can.Options.MV {
		return []*catalog.Attribute{can}
	}
	return []*catalog.Attribute{inv}
}

// isFKHolder reports whether a's value is stored in its owner's record.
func (m *Mapper) isFKHolder(a *catalog.Attribute) bool {
	if m.evas[canonical(a)] != evaFK {
		return false
	}
	for _, h := range fkHolders(canonical(a)) {
		if h == a {
			return true
		}
	}
	return false
}

// computeSlots lists the immediate attributes of cl stored in its record
// section: single-valued DVAs, embedded MV DVAs and FK-held EVAs. Subrole
// attributes are derived from the role set and never stored.
func (m *Mapper) computeSlots(cl *catalog.Class) []slot {
	var out []slot
	for _, a := range cl.Attrs {
		switch a.Kind {
		case catalog.DVA:
			if a.Options.MV {
				if !m.mvSep[a] {
					out = append(out, slot{a, slotMulti})
				}
			} else {
				out = append(out, slot{a, slotSingle})
			}
		case catalog.EVA:
			if m.isFKHolder(a) {
				out = append(out, slot{a, slotFK})
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Structure naming
// ---------------------------------------------------------------------------

// classNames are the structures one class may own — its hierarchy's
// single-record unit (base classes) and its split-strategy section unit —
// and its counter keys: the hierarchy's "~surr" key (base classes) and
// the "~stats" key of the class's entity count.
type classNames struct {
	hier, class string
	surr, count []byte
}

// attrNames are the structures one attribute may own — the private EVA
// structure and foreign-key index of a canonical EVA, the dependent unit
// of a separate MV DVA, and a DVA's secondary index — and the "~stats"
// key of a canonical EVA's instance count.
type attrNames struct {
	own, fkIndex, mv, index string
	count                   []byte
}

func (m *Mapper) hierStructure(base *catalog.Class) (*dmsii.Structure, error) {
	return m.structure(m.clNames[base].hier)
}

func (m *Mapper) classStructure(cl *catalog.Class) (*dmsii.Structure, error) {
	return m.structure(m.clNames[cl].class)
}

func (m *Mapper) cesStructure() (*dmsii.Structure, error) {
	return m.structure("ces")
}

func (m *Mapper) ownEVAStructure(can *catalog.Attribute) (*dmsii.Structure, error) {
	return m.structure(m.attrNames[can].own)
}

func (m *Mapper) fkIndexStructure(can *catalog.Attribute) (*dmsii.Structure, error) {
	return m.structure(m.attrNames[can].fkIndex)
}

func (m *Mapper) mvStructure(a *catalog.Attribute) (*dmsii.Structure, error) {
	return m.structure(m.attrNames[a].mv)
}

func (m *Mapper) indexStructure(a *catalog.Attribute) (*dmsii.Structure, error) {
	return m.structure(m.attrNames[a].index)
}

// ---------------------------------------------------------------------------
// Surrogates and statistics
// ---------------------------------------------------------------------------

// counter reads the counter stored under key in st; an absent key reads
// as def.
func counter(st *dmsii.Structure, key []byte, def int64) (int64, error) {
	var buf [8]byte
	raw, found, err := st.GetAppend(buf[:0], key)
	if err != nil || !found {
		return def, err
	}
	return int64(binary.BigEndian.Uint64(raw)), nil
}

// addCounter adds delta to the counter stored under key in the named
// structure and returns its value before the add.
func (m *Mapper) addCounter(name string, key []byte, def, delta int64) (int64, error) {
	st, err := m.structure(name)
	if err != nil {
		return 0, err
	}
	cur, err := counter(st, key, def)
	if err != nil {
		return 0, err
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(cur+delta))
	if err := st.Put(key, buf[:]); err != nil {
		return 0, err
	}
	return cur, nil
}

// nextSurrogate allocates the next surrogate for a hierarchy: "~surr"
// holds the next one to hand out, starting at 1.
func (m *Mapper) nextSurrogate(base *catalog.Class) (value.Surrogate, error) {
	next, err := m.addCounter("~surr", m.clNames[base].surr, 1, 1)
	return value.Surrogate(next), err
}

// statGet reads one "~stats" counter from the pages m reads: a snapshot
// view's, or the live ones, which are stable under the write latch.
func (m *Mapper) statGet(key []byte) (int64, error) {
	st, err := m.structure("~stats")
	if err != nil {
		return 0, err
	}
	return counter(st, key, 0)
}

func (m *Mapper) statAdd(key []byte, delta int64) error {
	_, err := m.addCounter("~stats", key, 0, delta)
	return err
}

// classAdd adds delta to cl's entity count and, when the count moves to
// another size bucket, raises the statistics version in the same write.
func (m *Mapper) classAdd(cl *catalog.Class, delta int64) error {
	old, err := m.addCounter("~stats", m.clNames[cl].count, 0, delta)
	if err != nil || SizeBucket(old) == SizeBucket(old+delta) {
		return err
	}
	return m.store.RaiseStatsVersion()
}

// SizeBucket is the size bucket of a class of n entities: ⌊log2 n⌋+1, and
// 0 for an empty class. Costs move with a class's order of magnitude, so
// a plan costed for one bucket suits every size in it (see plan.Card).
func SizeBucket(n int64) int { return bits.Len64(uint64(max(n, 0))) }

// StatsVersion reads the statistics version of the pages m reads: raised
// by every write that moves a class to another size bucket, so two states
// with one committed version hold every class in the same bucket.
// committed is false on live pages that hold an uncommitted raise: a
// rollback takes it back, so another state may later commit the number.
func (m *Mapper) StatsVersion() (v uint64, committed bool, err error) {
	if m.snap == nil {
		v, committed = m.store.StatsVersion()
		return v, committed, nil
	}
	v, err = m.snap.StatsVersion()
	return v, true, err
}

// CacheStats returns the record-read counters; safe while queries run.
func (m *Mapper) CacheStats() CacheStats {
	return CacheStats{Hits: m.reads.hits.Load(), Misses: m.reads.misses.Load()}
}

// ResetCacheStats zeroes the record-read counters (benchmark phases).
func (m *Mapper) ResetCacheStats() {
	m.reads.hits.Store(0)
	m.reads.misses.Store(0)
}

// Count returns the number of entities holding a role in cl.
func (m *Mapper) Count(cl *catalog.Class) (int64, error) {
	return m.statGet(m.clNames[cl].count)
}

// RelCount returns the number of instances of the EVA pair containing a.
func (m *Mapper) RelCount(a *catalog.Attribute) (int64, error) {
	return m.statGet(m.attrNames[canonical(a)].count)
}

// HasIndex reports whether DVA a has a secondary index (UNIQUE attributes
// always do).
func (m *Mapper) HasIndex(a *catalog.Attribute) bool { return m.idx[a] }

// Catalog returns the catalog this mapper serves.
func (m *Mapper) Catalog() *catalog.Catalog { return m.cat }

// MVSeparate reports whether MV DVA a maps to a separate storage unit.
func (m *Mapper) MVSeparate(a *catalog.Attribute) bool { return m.mvSep[a] }

// TraversalCost returns the optimizer's estimate of the I/O cost of
// accessing the first and each subsequent instance of EVA a from its owner
// side (§5.1: 0 for the first instance when the relationship is clustered
// with the owner record, one block access when reached through a separate
// structure).
func (m *Mapper) TraversalCost(a *catalog.Attribute) (first, next float64) {
	if m.evas[canonical(a)] == evaFK && m.isFKHolder(a) {
		return 0, 0 // foreign key clustered in the owner's record
	}
	return 1, 0.2 // CES / private structure / fk index probe
}
