package exec

import (
	"fmt"

	"sim/internal/catalog"
	"sim/internal/integrity"
	"sim/internal/value"
)

// Constraint is a bound VERIFY assertion ready for enforcement: the
// analyzed trigger set (from internal/integrity) plus the bound assertion
// tree.
type Constraint = integrity.Constraint

// check is one installed constraint with its assertion compiled (see
// SetConstraints).
type check struct {
	c    *Constraint
	prog *Program
}

// ViolationError reports a failed VERIFY assertion; the database layer
// rolls the statement back.
type ViolationError struct {
	Name    string
	Entity  value.Surrogate
	Message string
}

func (v *ViolationError) Error() string {
	msg := v.Message
	if msg == "" {
		msg = "integrity assertion " + v.Name + " violated"
	}
	return fmt.Sprintf("verify %s failed for entity #%d: %s", v.Name, v.Entity, msg)
}

// checkConstraints runs the statement's recorded events through each
// constraint's trigger set and re-verifies exactly the affected entities —
// the paper's "trigger detection / query enhancement mechanism" (§3.3).
func (e *Executor) checkConstraints(ev *events) error {
	for _, ck := range e.checks {
		affected, checkAll, err := e.affectedEntities(ck.c, ev)
		if err != nil {
			return err
		}
		if checkAll {
			all, err := e.m.Surrogates(ck.c.Verify.Class)
			if err != nil {
				return err
			}
			affected = all
		}
		seen := make(map[value.Surrogate]bool, len(affected))
		for _, s := range affected {
			if seen[s] {
				continue
			}
			seen[s] = true
			if err := e.checkEntity(ck, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// affectedEntities maps the events to the entities of the constraint's
// class that must be re-verified.
func (e *Executor) affectedEntities(c *Constraint, ev *events) ([]value.Surrogate, bool, error) {
	var out []value.Surrogate
	walkUp := func(start value.Surrogate, path []*catalog.Attribute) error {
		cur := []value.Surrogate{start}
		for _, edge := range path {
			var next []value.Surrogate
			for _, s := range cur {
				ps, err := e.m.GetEVA(s, edge.Inverse)
				if err != nil {
					return err
				}
				next = append(next, ps...)
			}
			cur = next
		}
		out = append(out, cur...)
		return nil
	}
	for _, d := range ev.dva {
		trs, all := c.DVATriggers(d.attr)
		if all {
			return nil, true, nil
		}
		for _, path := range trs {
			if err := walkUp(d.s, path); err != nil {
				return nil, false, err
			}
		}
	}
	for _, x := range ev.eva {
		trs, all := c.EVATriggers(x.attr)
		if all {
			return nil, true, nil
		}
		for _, tr := range trs {
			// Orient the event to the direction the constraint references:
			// the trigger path starts at the Ref-owner-side endpoint.
			start := x.s
			if tr.Ref != x.attr {
				start = x.t
			}
			if err := walkUp(start, tr.Path); err != nil {
				return nil, false, err
			}
		}
	}
	for _, r := range ev.role {
		for _, path := range c.RoleTriggers(r.class) {
			if err := walkUp(r.s, path); err != nil {
				return nil, false, err
			}
		}
	}
	return out, false, nil
}

// checkEntity verifies one entity against one constraint. Entities that
// no longer hold the constraint class's role pass vacuously. An assertion
// evaluating to UNKNOWN passes (only a definite False is a violation).
func (e *Executor) checkEntity(ck check, s value.Surrogate) error {
	ok, err := e.m.HasRole(s, ck.c.Verify.Class)
	if err != nil || !ok {
		return err
	}
	sc := e.getScratch(ck.prog.nNodes, nil)
	defer e.putScratch(sc)
	sc.bind(ck.prog.main[0], inst{surr: s})
	holds, err := e.programAsserts(ck.prog, sc)
	if err != nil {
		return err
	}
	if !holds {
		return &ViolationError{Name: ck.c.Verify.Name, Entity: s, Message: ck.c.Verify.ElseMsg}
	}
	return nil
}

// assertion records what an assertion's existential bindings evaluated to.
type assertion struct {
	bound, sawTrue, sawUnknown bool
}

// programAsserts evaluates a compiled assertion for the pinned root.
// Unlike WHERE filtering, a result of Unknown passes. With existential
// variables, definite falsity means no binding makes the condition True
// or Unknown and at least one binding makes it False.
func (e *Executor) programAsserts(prog *Program, sc *scratch) (bool, error) {
	if prog.where == nil {
		return true, nil
	}
	var a assertion
	if err := e.assertSome(prog, sc, 0, &a); err != nil {
		return false, err
	}
	return a.sawTrue || a.sawUnknown || !a.bound, nil
}

// assertSome enumerates existential variables from depth j down,
// recording each binding's truth value and stopping at the first True.
func (e *Executor) assertSome(prog *Program, sc *scratch, j int, a *assertion) error {
	if j == len(prog.exist) {
		a.bound = true
		t, err := prog.where(sc)
		if err != nil {
			return err
		}
		switch t {
		case value.True:
			a.sawTrue = true
		case value.Unknown:
			a.sawUnknown = true
		}
		return nil
	}
	n := prog.exist[j]
	dom, err := prog.doms[n.ID](sc, sc.getDomBuf())
	defer sc.putDomBuf(dom)
	if err != nil {
		return err
	}
	for k := range dom {
		sc.bind(n, dom[k])
		if err := e.assertSome(prog, sc, j+1, a); err != nil {
			return err
		}
		if a.sawTrue {
			break
		}
	}
	sc.unbind(n)
	return nil
}

// CheckAll verifies every entity of every installed constraint's class,
// reporting the first violation; the database layer offers this as an
// administrative operation.
func (e *Executor) CheckAll() error {
	for _, ck := range e.checks {
		ss, err := e.m.Surrogates(ck.c.Verify.Class)
		if err != nil {
			return err
		}
		for _, s := range ss {
			if err := e.checkEntity(ck, s); err != nil {
				return err
			}
		}
	}
	return nil
}
