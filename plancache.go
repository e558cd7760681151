package sim

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"sim/internal/catalog"
	"sim/internal/exec"
	"sim/internal/lexer"
	"sim/internal/parser"
	"sim/internal/plan"
	"sim/internal/value"
)

// PlanCacheStats reports session plan-cache activity. Every Retrieve
// counts exactly once: as a hit when it ran a cached plan, as a miss when
// it paid parse+bind+optimize+compile (a statement that fails on the way
// is a miss too).
type PlanCacheStats struct {
	Hits    uint64 // queries served from a cached plan
	Misses  uint64 // queries that paid parse+bind+optimize+compile
	Entries int    // cache entries: plans, plus one shape record per literal-sensitive statement shape
}

// defaultPlanCacheSize is the plan-cache capacity when Config.PlanCacheSize
// is zero.
const defaultPlanCacheSize = 256

// planCache holds optimized, compiled Retrieve plans keyed by statement
// shape: the statement's tokens with every number and string literal
// lifted out (lexer.Normalize). Statements that differ only in literal
// values share one entry; its program runs with the executing statement's
// literals as a parameter vector, so a hit skips parse, bind, optimize and
// compile.
//
// A plan is a function of the schema, the statistics and those literals
// the optimizer looked at (query.Lit.Fixed: an index probe behind a
// non-unique range or pivot costing; also literals spelled into column
// names). Such a plan is exact for its own values only, so a shape with
// fixed literals is cached as a shape record naming their slots, and its
// plans under the shape key extended by those literals' spellings — one
// plan per value, exactly what the optimizer would choose for it.
//
// Eviction is CLOCK (second chance): a hit only sets the entry's
// reference bit under the read lock, so concurrent readers never
// serialize on the cache. Every plan points into one schema generation's
// catalog, so each generation has a cache of its own, starting empty; the
// hit and miss counts are the database's, across generations. A nil
// *planCache is a valid always-miss cache (Config.PlanCacheSize < 0).
type planCache struct {
	mu   sync.RWMutex
	cap  int
	m    map[string]*planEntry
	ring []*planEntry // insertion ring the clock hand sweeps
	hand int

	counts *planCounts
}

// planCounts counts plan-cache hits and misses across generations.
type planCounts struct {
	hits   atomic.Uint64
	misses atomic.Uint64
}

// stmtShapes recycles *stmtShape across statements and generations.
var stmtShapes sync.Pool

// planEntry is immutable once inserted, but for its reference bit.
type planEntry struct {
	key  string
	at   int         // position in the ring
	used atomic.Bool // referenced since the clock hand last passed

	// A plan entry.
	p     *plan.Plan
	prog  *exec.Program       // compiled form
	types []*catalog.DataType // per slot, the declared type its literal coerces to (nil: none)

	// A shape record (p == nil): the slots whose literals extend the key
	// under which this shape's plans are cached.
	fixed []int
}

// stmtShape is one statement's normalised form and the parameter vector
// bound from it; pooled, so a hit allocates none of it.
type stmtShape struct {
	key    []byte // shape key; lookup extends it in place to the value key of a literal-sensitive shape
	shapeN int    // length of the shape key within key
	lits   []lexer.Literal
	params []value.Value
}

func newPlanCache(capacity int, counts *planCounts) *planCache {
	if capacity < 0 {
		return nil
	}
	if capacity == 0 {
		capacity = defaultPlanCacheSize
	}
	return &planCache{cap: capacity, m: make(map[string]*planEntry, capacity), counts: counts}
}

// shapeOf normalises dml into a pooled stmtShape; release returns it. Nil
// when the cache is disabled or dml does not lex (the cold path reports
// the error).
func (c *planCache) shapeOf(dml string) *stmtShape {
	if c == nil {
		return nil
	}
	st, _ := stmtShapes.Get().(*stmtShape)
	if st == nil {
		st = &stmtShape{}
	}
	var err error
	st.key, st.lits, err = lexer.Normalize(dml, st.key[:0], st.lits[:0])
	if err != nil {
		c.release(st)
		return nil
	}
	st.shapeN = len(st.key)
	return st
}

func (c *planCache) release(st *stmtShape) {
	if st == nil {
		return
	}
	// Literal texts and string parameters point into the statement text.
	clear(st.lits)
	clear(st.params)
	stmtShapes.Put(st)
}

// appendValues extends a shape key to a value key: a separator no shape
// key holds, then the spelling of each fixed literal, length-prefixed.
func appendValues(key []byte, fixed []int, lits []lexer.Literal) []byte {
	key = append(key, 0)
	for _, slot := range fixed {
		text := lits[slot-1].Text
		key = binary.AppendUvarint(key, uint64(len(text)))
		key = append(key, text...)
	}
	return key
}

// lookup returns the plan entry for the statement, or nil. It counts
// neither a hit nor a miss: the caller does, once it knows whether the
// statement's literals bind (hit) or it went the cold way (miss).
func (c *planCache) lookup(st *stmtShape) *planEntry {
	if st == nil {
		return nil
	}
	c.mu.RLock()
	en := c.m[string(st.key)]
	if en != nil && en.p == nil {
		en.touch()
		st.key = appendValues(st.key, en.fixed, st.lits)
		en = c.m[string(st.key)]
	}
	c.mu.RUnlock()
	if en != nil {
		en.touch()
	}
	return en
}

// touch sets the reference bit; the load first keeps a hot entry's cache
// line shared between readers.
func (en *planEntry) touch() {
	if !en.used.Load() {
		en.used.Store(true)
	}
}

// bind fills st.params with the statement's literals as the plan's
// parameter vector: each parsed as the parser would and coerced to its
// slot's declared type, as the binder would. It reports false when one
// does not parse or coerce — the cold path then produces the error.
func (en *planEntry) bind(st *stmtShape) ([]value.Value, bool) {
	st.params = st.params[:0]
	for i, lit := range st.lits {
		v, err := parser.LiteralValue(lit.Kind, lit.Text)
		if err != nil {
			return nil, false
		}
		if t := en.types[i]; t != nil {
			if v, err = t.Coerce(v); err != nil {
				return nil, false
			}
		}
		st.params = append(st.params, v)
	}
	return st.params, true
}

// put caches a freshly made plan for the statement's shape. Which of its
// literals are fixed depends on the shape and the schema alone, never on
// their values, so every statement of a shape computes the same record.
func (c *planCache) put(st *stmtShape, p *plan.Plan, prog *exec.Program) {
	if st == nil {
		return
	}
	en := &planEntry{p: p, prog: prog, types: make([]*catalog.DataType, len(st.lits))}
	var fixed []int
	for _, l := range p.Tree.Lits {
		en.types[l.Slot-1] = l.Type
		if l.Fixed {
			fixed = append(fixed, l.Slot)
		}
	}
	shape := st.key[:st.shapeN]
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(fixed) == 0 {
		c.insert(string(shape), en)
		return
	}
	c.insert(string(shape), &planEntry{fixed: fixed})
	c.insert(string(appendValues(shape, fixed, st.lits)), en)
}

// insert adds or replaces the entry under key, evicting by second chance
// when the cache is full. c.mu is held.
func (c *planCache) insert(key string, en *planEntry) {
	en.key = key
	en.used.Store(true)
	if old, ok := c.m[key]; ok {
		en.at = old.at
	} else if len(c.ring) < c.cap {
		en.at = len(c.ring)
		c.ring = append(c.ring, nil)
	} else {
		for c.ring[c.hand].used.Swap(false) {
			c.hand = (c.hand + 1) % len(c.ring)
		}
		delete(c.m, c.ring[c.hand].key)
		en.at = c.hand
		c.hand = (c.hand + 1) % len(c.ring)
	}
	c.ring[en.at] = en
	c.m[key] = en
}

// hit and miss count one statement; safe on a nil (disabled) cache, which
// counts nothing.
func (c *planCache) hit() {
	if c != nil {
		c.counts.hits.Add(1)
	}
}

func (c *planCache) miss() {
	if c != nil {
		c.counts.misses.Add(1)
	}
}

// planStats reports the published generation's plan cache: its entries
// and the database's hit and miss counts (all zero when caching is
// disabled).
func (db *Database) planStats() PlanCacheStats {
	c := db.gen.Load().plans
	if c == nil {
		return PlanCacheStats{}
	}
	c.mu.RLock()
	n := len(c.m)
	c.mu.RUnlock()
	return PlanCacheStats{Hits: c.counts.hits.Load(), Misses: c.counts.misses.Load(), Entries: n}
}
