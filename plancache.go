package sim

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"sim/internal/ast"
	"sim/internal/catalog"
	"sim/internal/exec"
	"sim/internal/lexer"
	"sim/internal/luc"
	"sim/internal/parser"
	"sim/internal/plan"
	"sim/internal/query"
	"sim/internal/value"
)

// PlanCacheStats reports session plan-cache activity. Every Retrieve,
// Insert, Modify and Delete counts exactly once: as a hit when it ran a
// cached plan, as a miss when it paid parse+bind+optimize+compile (a
// statement that fails on the way is a miss too).
type PlanCacheStats struct {
	Hits    uint64 // statements served from a cached plan
	Misses  uint64 // statements that paid parse+bind+optimize+compile
	Entries int    // cache entries: plans, plus one shape record per literal-sensitive statement shape
}

// defaultPlanCacheSize is the plan-cache capacity when Config.PlanCacheSize
// is zero.
const defaultPlanCacheSize = 256

// planCache holds optimized, compiled plans — a Retrieve's, or an
// Insert's, Modify's or Delete's compiled form (exec.Update) — keyed by
// statement shape: the statement's tokens with every number and string
// literal lifted out (lexer.Normalize). Statements that differ only in
// literal values share one entry; its programs run with the executing
// statement's literals as a parameter vector, so a hit skips parse, bind,
// optimize and compile.
//
// A plan is a function of the schema, the statistics and those literals
// the optimizer looked at (query.Lit.Fixed: an index probe behind a
// non-unique range or pivot costing; also literals spelled into column
// names). Such a plan is exact for its own values only, so a shape with
// fixed literals is cached as a shape record naming their slots, and its
// plans under the shape key extended by those literals' spellings — one
// plan per value, exactly what the optimizer would choose for it. The
// statistics enter as the size bucket of every class the costing read
// (plan.Card): a hit whose classes have left their buckets is re-planned
// as a miss. The counters are read only when the statistics version of
// the state a hit runs on is newer than the one its entry remembers (see
// holds), so a read-only workload reads none on a hit.
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

// planEntry is immutable once inserted, but for its reference bit and
// the statistics version its cardinalities were last checked at.
type planEntry struct {
	key  string
	at   int         // position in the ring
	used atomic.Bool // referenced since the clock hand last passed

	// A plan entry: a Retrieve's plan and program, or an update's
	// compiled form.
	p     *plan.Plan
	prog  *exec.Program
	upd   *exec.Update
	types []*catalog.DataType // per slot, the declared type its literal coerces to (nil: none)
	cards []plan.Card         // the class-size buckets the costing read
	// known is one past a committed statistics version at which cards
	// held, 0 for none: a hit on a state of that version or an older one
	// reads no counter.
	known atomic.Uint64

	// A shape record (neither p nor upd): the slots whose literals extend
	// the key under which this shape's plans are cached.
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
	st.key = st.key[:st.shapeN]
	c.mu.RLock()
	en := c.m[string(st.key)]
	if en != nil && en.fixed != nil {
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

// holds reports whether every class the entry's costing read is still in
// its size bucket in the state m reads. The counts are read only when
// that state's statistics version is newer than the one the entry
// remembers: every move of a class to another bucket raises it, so a
// workload that does not resize classes — a read-only one above all —
// reads one version word per read view and no counter on a hit. A failed
// read reports false: the cold path re-plans and meets the error itself.
func (en *planEntry) holds(m *luc.Mapper) bool {
	if len(en.cards) == 0 {
		return true
	}
	v, committed, err := m.StatsVersion()
	if err != nil {
		return false
	}
	if v < en.known.Load() {
		return true
	}
	if ok, err := plan.CardsHold(en.cards, m); err != nil || !ok {
		return false
	}
	en.remember(v, committed)
	return true
}

// remember notes that the entry's cards hold at statistics version v. Only
// a committed version is remembered: a rollback takes back the live
// pages' raises, and a later commit may reach the same number with the
// classes in other buckets.
func (en *planEntry) remember(v uint64, committed bool) {
	if committed && v >= en.known.Load() {
		en.known.Store(v + 1)
	}
}

// putRetrieve caches a freshly made Retrieve plan for the statement's
// shape; m is the mapper its costing read.
func (c *planCache) putRetrieve(st *stmtShape, p *plan.Plan, prog *exec.Program, m *luc.Mapper) {
	if c != nil {
		c.put(st, &planEntry{p: p, prog: prog}, p.Tree.Lits, p.Cards, m)
	}
}

// putUpdate caches an update's compiled form for the statement's shape;
// m is the mapper its costing read.
func (c *planCache) putUpdate(st *stmtShape, u *exec.Update, m *luc.Mapper) {
	if c != nil {
		c.put(st, &planEntry{upd: u}, u.Lits(), u.Cards(), m)
	}
}

// put caches a freshly made entry for the statement's shape, typing its
// slots from lits. Which literals are fixed depends on the shape and the
// schema alone, never on their values, so every statement of a shape
// computes the same record.
func (c *planCache) put(st *stmtShape, en *planEntry, lits []*query.Lit, cards []plan.Card, m *luc.Mapper) {
	if st == nil {
		return
	}
	en.types = make([]*catalog.DataType, len(st.lits))
	en.cards = cards
	if v, committed, err := m.StatsVersion(); err == nil {
		en.remember(v, committed)
	}
	var fixed []int
	for _, l := range lits {
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

// updateStmt is one Insert, Modify or Delete on its way through a
// generation's plan cache: its shape, the cached entry its literals bind
// to, or — when there is none — the parsed statement; and, once prepared,
// the compiled form it runs.
type updateStmt struct {
	dml     string
	g       *generation // the generation it is prepared under
	st      *stmtShape
	en      *planEntry    // the shape's cached update, its literals bound
	params  []value.Value // the statement's parameter vector (nil: u is its own)
	stmt    ast.Stmt      // the parsed statement; nil while served from en
	err     error         // the parse error
	u       *exec.Update
	counted bool // its hit or miss is counted
}

// updateOf normalises an update statement, looks its shape up in the
// published generation's plan cache, and parses the text when no cached
// entry takes its literals.
func (db *Database) updateOf(dml string) updateStmt {
	g := db.gen.Load()
	up := updateStmt{dml: dml, st: g.plans.shapeOf(dml)}
	up.lookup(g)
	if up.en == nil {
		up.stmt, up.err = parser.ParseStmt(dml)
	}
	return up
}

// lookup finds the statement's cached update in g's cache and binds its
// literals; the statement is then prepared under g.
func (up *updateStmt) lookup(g *generation) {
	up.g, up.u, up.en, up.params = g, nil, nil, nil
	if en := g.plans.lookup(up.st); en != nil && en.upd != nil {
		if params, ok := en.bind(up.st); ok {
			up.en, up.params = en, params
		}
	}
}

// compiled returns the compiled form the statement runs under up.g,
// counting the statement's hit or miss on the first call: the cached
// entry's while its classes stay in their size buckets as exe's mapper
// reads them, else one compiled now and costed on exe's mapper — a
// snapshot view's, or the live pages under the write latch — which is
// cached when it can serve every statement of the shape.
func (up *updateStmt) compiled(exe *exec.Executor) (*exec.Update, error) {
	if up.u != nil {
		return up.u, nil
	}
	m := exe.Mapper()
	if up.en != nil && up.en.holds(m) {
		up.count(true)
		up.u = up.en.upd
		return up.u, nil
	}
	up.count(false)
	if up.stmt == nil {
		if up.stmt, up.err = parser.ParseStmt(up.dml); up.err != nil {
			return nil, up.err
		}
	}
	// Compiled on the generation's live executor, which the cached
	// closures may keep; costed on the reading mapper.
	up.u, up.params = up.g.exe.CompileUpdate(up.stmt, m), nil
	if up.u.Err() == nil {
		up.g.plans.putUpdate(up.st, up.u, m)
	}
	return up.u, nil
}

// count counts the statement once, as a hit or a miss.
func (up *updateStmt) count(hit bool) {
	if up.counted {
		return
	}
	up.counted = true
	if hit {
		up.g.plans.hit()
	} else {
		up.g.plans.miss()
	}
}

// finish counts a statement that failed before it was prepared as a miss
// and returns its shape to the pool.
func (up *updateStmt) finish() {
	up.count(false)
	up.g.plans.release(up.st)
}
