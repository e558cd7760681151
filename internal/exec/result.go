package exec

import (
	"fmt"
	"sort"
	"strings"

	"sim/internal/ast"
	"sim/internal/query"
	"sim/internal/value"
)

// Result holds a query's output: always the tabular rows, and additionally
// the fully structured form (§4.5) when the query ran in STRUCTURE mode.
type Result struct {
	Names []string
	Stats Stats

	rows   [][]value.Value
	order  [][]value.Value
	seen   map[string]bool // TABLE DISTINCT dedup
	keyBuf []byte          // reused dedup key scratch

	Structured *Group // non-nil in STRUCTURE mode

	// structure-building state: the group and instance key last used at
	// each main-variable depth, so consecutive identical prefixes share
	// groups (iteration order guarantees grouping).
	lastGroups []*Group
	lastKeys   []string
	attach     [][]int
}

// Group is one record of fully structured output: the instance of one
// TYPE 1 or TYPE 3 range variable, its target values, and the nested
// records of its child variables. Level carries transitive-closure depth.
type Group struct {
	Label    string
	Level    int
	Values   []value.Value // target values attached to this variable
	Indexes  []int         // target positions of Values
	Children []*Group

	key string
}

// Rows returns the tabular rows. The rows are owned by the Result and
// stay valid for its lifetime: the compiled executor carves them out of a
// result-owned arena (never a recycled scratch buffer), and each row is a
// full slice expression, so appending to a returned row reallocates
// instead of growing into its arena neighbor.
//
// Ownership rule: read freely and append safely, but do not mutate row
// elements in place (that edits the Result every other holder sees), and
// do not retain rows past the Result itself — a single retained row pins
// the whole arena chunk it was carved from. To keep rows longer than the
// Result, or to hand them to code that may write elements, take a
// Clone().
func (r *Result) Rows() [][]value.Value { return r.rows }

// Clone returns a deep copy whose rows (and structured tree, if any) own
// their backing storage: safe to retain indefinitely and to mutate
// without aliasing the original or pinning its arena.
func (r *Result) Clone() *Result {
	c := &Result{
		Names: append([]string(nil), r.Names...),
		Stats: r.Stats,
	}
	if r.rows != nil {
		c.rows = make([][]value.Value, len(r.rows))
		for i, row := range r.rows {
			c.rows[i] = append([]value.Value(nil), row...)
		}
	}
	if r.Structured != nil {
		c.Structured = cloneGroup(r.Structured)
	}
	return c
}

func cloneGroup(g *Group) *Group {
	c := &Group{
		Label:   g.Label,
		Level:   g.Level,
		Values:  append([]value.Value(nil), g.Values...),
		Indexes: append([]int(nil), g.Indexes...),
		key:     g.key,
	}
	if g.Children != nil {
		c.Children = make([]*Group, len(g.Children))
		for i, ch := range g.Children {
			c.Children[i] = cloneGroup(ch)
		}
	}
	return c
}

// RemoteResult reconstructs a Result from data decoded off the wire
// protocol (internal/wire). The result is fully finished — ORDER BY and
// DISTINCT were applied server-side — so it only carries the rows, the
// optional structured tree, and the execution stats.
func RemoteResult(names []string, rows [][]value.Value, structured *Group, stats Stats) *Result {
	return &Result{Names: names, Stats: stats, rows: rows, Structured: structured}
}

// NumRows returns the tabular row count.
func (r *Result) NumRows() int { return len(r.rows) }

func newResult(t *query.Tree) *Result {
	r := &Result{Names: t.Names}
	if t.Mode == ast.OutputTableDistinct {
		r.seen = make(map[string]bool)
	}
	if t.Mode == ast.OutputStructure {
		r.Structured = &Group{Label: "result"}
	}
	return r
}

// isDup dedups one row against the seen set, building the key in a reused
// buffer: the map probe converts without allocating, and only the first
// occurrence pays for a key string.
func (r *Result) isDup(row []value.Value) bool {
	r.keyBuf = r.keyBuf[:0]
	for _, v := range row {
		r.keyBuf = v.AppendKey(r.keyBuf)
		r.keyBuf = append(r.keyBuf, 0)
	}
	if r.seen[string(r.keyBuf)] {
		return true
	}
	r.seen[string(r.keyBuf)] = true
	return false
}

// add records one accepted combination; insts holds every main node's
// current binding, by node id.
func (r *Result) add(t *query.Tree, insts []inst, main []*query.Node, row, order []value.Value) {
	if r.seen != nil && r.isDup(row) {
		return
	}
	r.rows = append(r.rows, row)
	r.order = append(r.order, order)
	if r.Structured != nil {
		r.addStructured(t, insts, main, row)
	}
}

// addTabular records one row produced by a parallel worker. Workers hand
// rows back in serial emission order, so applying the TABLE DISTINCT dedup
// here reproduces exactly the rows (and row order) of serial execution.
func (r *Result) addTabular(row, order []value.Value) {
	if r.seen != nil && r.isDup(row) {
		return
	}
	r.rows = append(r.rows, row)
	r.order = append(r.order, order)
}

// addStructured merges the combination into the group tree: one group per
// TYPE 1/TYPE 3 variable instance, consecutive identical prefixes shared
// (the iteration order guarantees grouping).
func (r *Result) addStructured(t *query.Tree, insts []inst, main []*query.Node, row []value.Value) {
	if r.lastGroups == nil {
		r.lastGroups = make([]*Group, len(main))
		r.lastKeys = make([]string, len(main))
		// Targets attach to the deepest main variable they reference.
		r.attach = targetAttachment(t, main)
	}
	parent := r.Structured
	same := true
	for d, n := range main {
		it := insts[n.ID]
		key := instKey(it)
		if same && r.lastGroups[d] != nil && r.lastKeys[d] == key {
			parent = r.lastGroups[d]
			continue
		}
		same = false
		g := &Group{Label: n.Label(), Level: it.level, key: key}
		for _, ti := range r.attach[d] {
			g.Values = append(g.Values, row[ti])
			g.Indexes = append(g.Indexes, ti)
		}
		parent.Children = append(parent.Children, g)
		r.lastGroups[d] = g
		r.lastKeys[d] = key
		parent = g
	}
}

func instKey(it inst) string {
	if it.null {
		return "~null"
	}
	if it.val.Kind() != value.KindNull || it.surr == 0 {
		return "v" + it.val.Key()
	}
	return fmt.Sprintf("e%d", it.surr)
}

// targetAttachment maps each main-node depth to the target indexes whose
// deepest referenced main variable sits at that depth.
func targetAttachment(t *query.Tree, main []*query.Node) [][]int {
	depth := make(map[*query.Node]int, len(main))
	for i, n := range main {
		depth[n] = i
	}
	out := make([][]int, len(main))
	for ti, tg := range t.Targets {
		d := 0
		query.Walk(tg, func(x query.Expr) {
			var n *query.Node
			switch x := x.(type) {
			case *query.AttrRef:
				n = x.Node
			case *query.EntityRef:
				n = x.Node
			case *query.ValueRef:
				n = x.Node
			case *query.Agg:
				n = x.Sub.Anchor()
			case *query.Quant:
				n = x.Sub.Anchor()
			}
			if n == nil {
				return
			}
			// Subquery nodes attach at their anchor.
			for n.Sub && n.Parent != nil {
				n = n.Parent
			}
			if dd, ok := depth[n]; ok && dd > d {
				d = dd
			}
		})
		out[d] = append(out[d], ti)
	}
	return out
}

// finish applies ORDER BY.
func (r *Result) finish(t *query.Tree) {
	if len(t.OrderBy) == 0 {
		return
	}
	idx := make([]int, len(r.rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		oa, ob := r.order[idx[a]], r.order[idx[b]]
		for k := range oa {
			if value.SortLess(oa[k], ob[k]) {
				return true
			}
			if value.SortLess(ob[k], oa[k]) {
				return false
			}
		}
		return false
	})
	rows := make([][]value.Value, len(r.rows))
	for i, j := range idx {
		rows[i] = r.rows[j]
	}
	r.rows = rows
	r.order = nil
}

// Format renders the tabular result as an aligned text table (the flavor
// of an IQF listing).
func (r *Result) Format() string {
	var b strings.Builder
	widths := make([]int, len(r.Names))
	for i, n := range r.Names {
		widths[i] = len(n)
	}
	cells := make([][]string, len(r.rows))
	for ri, row := range r.rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	for i, n := range r.Names {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], n)
	}
	b.WriteByte('\n')
	for i := range r.Names {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatStructured renders the group tree with indentation and level
// numbers, the paper's fully structured output form.
func (r *Result) FormatStructured() string {
	if r.Structured == nil {
		return r.Format()
	}
	var b strings.Builder
	var walk func(g *Group, indent int)
	walk = func(g *Group, indent int) {
		for _, c := range g.Children {
			b.WriteString(strings.Repeat("  ", indent))
			b.WriteString(c.Label)
			if c.Level > 0 {
				fmt.Fprintf(&b, " [level %d]", c.Level)
			}
			if len(c.Values) > 0 {
				b.WriteString(":")
				for _, v := range c.Values {
					b.WriteString(" ")
					b.WriteString(v.String())
				}
			}
			b.WriteByte('\n')
			walk(c, indent+1)
		}
	}
	walk(r.Structured, 0)
	return b.String()
}
