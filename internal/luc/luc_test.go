package luc

import (
	"errors"
	"fmt"
	"testing"

	"sim/internal/catalog"
	"sim/internal/dmsii"
	"sim/internal/parser"
	"sim/internal/university"
	"sim/internal/value"
)

// env bundles a mapper over an in-memory store with an open transaction.
type env struct {
	t   *testing.T
	s   *dmsii.Store
	cat *catalog.Catalog
	m   *Mapper
	tx  *dmsii.Txn
}

func newEnv(t *testing.T, cfg Config) *env {
	t.Helper()
	sch, err := parser.ParseSchema(university.DDL)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Build(sch)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dmsii.OpenMemory(dmsii.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	m, err := New(s, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	return &env{t: t, s: s, cat: cat, m: m, tx: tx}
}

func (e *env) class(name string) *catalog.Class {
	e.t.Helper()
	cl := e.cat.Class(name)
	if cl == nil {
		e.t.Fatalf("class %s missing", name)
	}
	return cl
}

func (e *env) attr(class, name string) *catalog.Attribute {
	e.t.Helper()
	a := catalog.ResolveAttr(e.class(class), name)
	if a == nil {
		e.t.Fatalf("attribute %s.%s missing", class, name)
	}
	return a
}

func (e *env) newEntity(class string) value.Surrogate {
	e.t.Helper()
	s, err := e.m.NewEntity(e.class(class))
	if err != nil {
		e.t.Fatalf("NewEntity(%s): %v", class, err)
	}
	return s
}

func (e *env) set(s value.Surrogate, class, attr string, v value.Value) {
	e.t.Helper()
	if err := e.m.SetSingle(s, e.attr(class, attr), v); err != nil {
		e.t.Fatalf("SetSingle(%s.%s): %v", class, attr, err)
	}
}

func (e *env) get(s value.Surrogate, class, attr string) value.Value {
	e.t.Helper()
	v, err := e.m.GetSingle(s, e.attr(class, attr))
	if err != nil {
		e.t.Fatalf("GetSingle(%s.%s): %v", class, attr, err)
	}
	return v
}

// configs to exercise the paper's §5.2 mapping alternatives with identical
// behavioral expectations.
var mappingConfigs = map[string]Config{
	"default": {},
	"split-hierarchy": {
		Hierarchy: map[string]HierarchyStrategy{"person": HierarchySplit, "course": HierarchySplit, "department": HierarchySplit},
	},
	"fk-advisor": {
		EVA: map[string]EVAStrategy{"student.advisor": EVAForeignKey},
	},
	"common-spouse": {
		EVA: map[string]EVAStrategy{"person.spouse": EVACommon},
	},
	"separate-mv": {
		MVDVA: map[string]MVDVAStrategy{},
	},
}

func forAllConfigs(t *testing.T, f func(t *testing.T, e *env)) {
	for name, cfg := range mappingConfigs {
		t.Run(name, func(t *testing.T) {
			f(t, newEnv(t, cfg))
		})
	}
}

func TestEntityLifecycle(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *env) {
		s := e.newEntity("student")
		// Roles: student + person.
		for _, c := range []string{"student", "person"} {
			ok, err := e.m.HasRole(s, e.class(c))
			if err != nil || !ok {
				t.Errorf("HasRole(%s) = %v, %v", c, ok, err)
			}
		}
		for _, c := range []string{"instructor", "teaching-assistant"} {
			ok, _ := e.m.HasRole(s, e.class(c))
			if ok {
				t.Errorf("unexpected role %s", c)
			}
		}
		// Counts.
		if n, _ := e.m.Count(e.class("person")); n != 1 {
			t.Errorf("Count(person) = %d", n)
		}
		if n, _ := e.m.Count(e.class("instructor")); n != 0 {
			t.Errorf("Count(instructor) = %d", n)
		}
	})
}

func TestSurrogatesUniqueAndStable(t *testing.T) {
	e := newEnv(t, Config{})
	seen := map[value.Surrogate]bool{}
	for i := 0; i < 100; i++ {
		s := e.newEntity("person")
		if seen[s] {
			t.Fatalf("surrogate %d reused", s)
		}
		seen[s] = true
	}
	// Distinct hierarchies may reuse numbers; entities of one hierarchy may
	// not.
	c := e.newEntity("course")
	_ = c
}

func TestDVASetGet(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *env) {
		s := e.newEntity("student")
		e.set(s, "student", "name", value.NewString("John Doe"))
		e.set(s, "student", "student-nbr", value.NewInt(1729))
		if got := e.get(s, "student", "name"); got.Str() != "John Doe" {
			t.Errorf("name = %v", got)
		}
		// Inherited attribute stored in the person section.
		if got := e.get(s, "person", "name"); got.Str() != "John Doe" {
			t.Errorf("name via person = %v", got)
		}
		if got := e.get(s, "student", "student-nbr"); got.Int() != 1729 {
			t.Errorf("student-nbr = %v", got)
		}
		// Unset attr is NULL.
		if got := e.get(s, "student", "birthdate"); !got.IsNull() {
			t.Errorf("birthdate = %v", got)
		}
		// Overwrite with NULL.
		e.set(s, "student", "name", value.Null)
		if got := e.get(s, "student", "name"); !got.IsNull() {
			t.Errorf("name after null = %v", got)
		}
	})
}

func TestDVAOnMissingRoleFails(t *testing.T) {
	e := newEnv(t, Config{})
	s := e.newEntity("student")
	err := e.m.SetSingle(s, e.attr("instructor", "salary"), value.NewNumber(100))
	if err == nil {
		t.Error("set salary on non-instructor succeeded")
	}
}

func TestUniqueEnforcement(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *env) {
		a := e.newEntity("person")
		b := e.newEntity("person")
		e.set(a, "person", "soc-sec-no", value.NewInt(111223333))
		err := e.m.SetSingle(b, e.attr("person", "soc-sec-no"), value.NewInt(111223333))
		var ue *UniqueError
		if !errors.As(err, &ue) {
			t.Fatalf("duplicate ssn error = %v", err)
		}
		// Same value on the same entity is fine (idempotent).
		e.set(a, "person", "soc-sec-no", value.NewInt(111223333))
		// Changing frees the old value.
		e.set(a, "person", "soc-sec-no", value.NewInt(999887777))
		e.set(b, "person", "soc-sec-no", value.NewInt(111223333))
		// Lookup finds by value.
		got, found, err := e.m.LookupUnique(e.attr("person", "soc-sec-no"), value.NewInt(999887777))
		if err != nil || !found || got != a {
			t.Errorf("LookupUnique = %v %v %v", got, found, err)
		}
	})
}

func TestRoleExtension(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *env) {
		p := e.newEntity("person")
		e.set(p, "person", "name", value.NewString("John Doe"))
		added, err := e.m.ExtendRole(p, e.class("instructor"))
		if err != nil || len(added) != 1 {
			t.Fatalf("ExtendRole = %v, %v", added, err)
		}
		e.set(p, "instructor", "employee-nbr", value.NewInt(1729))
		// The person data is still there.
		if got := e.get(p, "person", "name"); got.Str() != "John Doe" {
			t.Errorf("name after extension = %v", got)
		}
		// Extending to TA adds student too.
		added, err = e.m.ExtendRole(p, e.class("teaching-assistant"))
		if err != nil || len(added) != 2 {
			t.Fatalf("ExtendRole(TA) = %v, %v", added, err)
		}
		ok, _ := e.m.HasRole(p, e.class("student"))
		if !ok {
			t.Error("TA extension did not add student role")
		}
		if n, _ := e.m.Count(e.class("teaching-assistant")); n != 1 {
			t.Errorf("Count(TA) = %d", n)
		}
	})
}

func TestSubroleValues(t *testing.T) {
	e := newEnv(t, Config{})
	p := e.newEntity("student")
	e.m.ExtendRole(p, e.class("instructor"))
	prof, err := e.m.Subrole(p, e.attr("person", "profession"))
	if err != nil || len(prof) != 2 {
		t.Fatalf("profession = %v, %v", prof, err)
	}
	if prof[0].Str() != "Student" || prof[1].Str() != "Instructor" {
		t.Errorf("profession labels = %v", prof)
	}
	status, err := e.m.Subrole(p, e.attr("student", "instructor-status"))
	if err != nil || len(status) != 0 {
		t.Errorf("instructor-status = %v, %v (not a TA)", status, err)
	}
}

func TestEVAOneToOneSpouse(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *env) {
		spouse := e.attr("person", "spouse")
		a := e.newEntity("person")
		b := e.newEntity("person")
		c := e.newEntity("person")
		if err := e.m.IncludeEVA(a, spouse, b); err != nil {
			t.Fatal(err)
		}
		// Symmetric.
		got, _ := e.m.GetEVA(b, spouse)
		if len(got) != 1 || got[0] != a {
			t.Fatalf("spouse of b = %v", got)
		}
		// Remarrying displaces both old partners.
		if err := e.m.IncludeEVA(a, spouse, c); err != nil {
			t.Fatal(err)
		}
		if got, _ := e.m.GetEVA(b, spouse); len(got) != 0 {
			t.Errorf("b still married: %v", got)
		}
		if got, _ := e.m.GetEVA(c, spouse); len(got) != 1 || got[0] != a {
			t.Errorf("spouse of c = %v", got)
		}
		if n, _ := e.m.RelCount(spouse); n != 1 {
			t.Errorf("RelCount(spouse) = %d", n)
		}
	})
}

func TestEVAManyToOneAdvisor(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *env) {
		advisor := e.attr("student", "advisor")
		advisees := e.attr("instructor", "advisees")
		s1 := e.newEntity("student")
		s2 := e.newEntity("student")
		i1 := e.newEntity("instructor")
		i2 := e.newEntity("instructor")
		if err := e.m.IncludeEVA(s1, advisor, i1); err != nil {
			t.Fatal(err)
		}
		if err := e.m.IncludeEVA(s2, advisor, i1); err != nil {
			t.Fatal(err)
		}
		got, _ := e.m.GetEVA(i1, advisees)
		if len(got) != 2 {
			t.Fatalf("advisees = %v", got)
		}
		// Reassigning s1 removes it from i1's advisees (single-valued side
		// replaced; inverse synchronized).
		if err := e.m.IncludeEVA(s1, advisor, i2); err != nil {
			t.Fatal(err)
		}
		got, _ = e.m.GetEVA(i1, advisees)
		if len(got) != 1 || got[0] != s2 {
			t.Errorf("advisees of i1 after reassign = %v", got)
		}
		got, _ = e.m.GetEVA(s1, advisor)
		if len(got) != 1 || got[0] != i2 {
			t.Errorf("advisor of s1 = %v", got)
		}
		if n, _ := e.m.RelCount(advisor); n != 2 {
			t.Errorf("RelCount = %d", n)
		}
	})
}

func TestEVAMaxCardinality(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *env) {
		advisor := e.attr("student", "advisor")
		i := e.newEntity("instructor")
		// advisees has MAX 10.
		for k := 0; k < 10; k++ {
			s := e.newEntity("student")
			if err := e.m.IncludeEVA(s, advisor, i); err != nil {
				t.Fatalf("advisee %d: %v", k, err)
			}
		}
		s := e.newEntity("student")
		err := e.m.IncludeEVA(s, advisor, i)
		var ce *CardinalityError
		if !errors.As(err, &ce) {
			t.Fatalf("11th advisee error = %v", err)
		}
	})
}

func TestEVAManyToManyEnrollment(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *env) {
		enrolled := e.attr("student", "courses-enrolled")
		students := e.attr("course", "students-enrolled")
		s1 := e.newEntity("student")
		s2 := e.newEntity("student")
		c1 := e.newEntity("course")
		c2 := e.newEntity("course")
		for _, pair := range [][2]value.Surrogate{{s1, c1}, {s1, c2}, {s2, c1}} {
			if err := e.m.IncludeEVA(pair[0], enrolled, pair[1]); err != nil {
				t.Fatal(err)
			}
		}
		// Distinct: duplicate include is a no-op.
		if err := e.m.IncludeEVA(s1, enrolled, c1); err != nil {
			t.Fatal(err)
		}
		if got, _ := e.m.GetEVA(s1, enrolled); len(got) != 2 {
			t.Errorf("courses of s1 = %v", got)
		}
		if got, _ := e.m.GetEVA(c1, students); len(got) != 2 {
			t.Errorf("students of c1 = %v", got)
		}
		if n, _ := e.m.RelCount(enrolled); n != 3 {
			t.Errorf("RelCount = %d", n)
		}
		// Exclude one side; both views update.
		if err := e.m.ExcludeEVA(c1, students, s1); err != nil {
			t.Fatal(err)
		}
		if got, _ := e.m.GetEVA(s1, enrolled); len(got) != 1 || got[0] != c2 {
			t.Errorf("courses of s1 after exclude = %v", got)
		}
	})
}

func TestEVARoleIntegrity(t *testing.T) {
	e := newEnv(t, Config{})
	advisor := e.attr("student", "advisor")
	p := e.newEntity("person") // not a student
	i := e.newEntity("instructor")
	if err := e.m.IncludeEVA(p, advisor, i); err == nil {
		t.Error("advisor on a non-student succeeded")
	}
	s := e.newEntity("student")
	p2 := e.newEntity("person") // not an instructor
	if err := e.m.IncludeEVA(s, advisor, p2); err == nil {
		t.Error("advisor pointing at a non-instructor succeeded")
	}
}

func TestReflexiveEVAPrerequisites(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *env) {
		prereq := e.attr("course", "prerequisites")
		prereqOf := e.attr("course", "prerequisite-of")
		algebra := e.newEntity("course")
		calc := e.newEntity("course")
		quantum := e.newEntity("course")
		e.m.IncludeEVA(calc, prereq, algebra)
		e.m.IncludeEVA(quantum, prereq, calc)
		got, _ := e.m.GetEVA(algebra, prereqOf)
		if len(got) != 1 || got[0] != calc {
			t.Errorf("prerequisite-of algebra = %v", got)
		}
		got, _ = e.m.GetEVA(quantum, prereq)
		if len(got) != 1 || got[0] != calc {
			t.Errorf("prerequisites of quantum = %v", got)
		}
	})
}

func TestMVDVAEmbeddedAndSeparate(t *testing.T) {
	// teaching-load is single-valued; build a dedicated schema with both
	// kinds of MV DVA.
	ddl := `
Class Box (
  tags: string[10] mv;
  slots: integer mv (max 4, distinct) );`
	sch, err := parser.ParseSchema(ddl)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Build(sch)
	if err != nil {
		t.Fatal(err)
	}
	store, _ := dmsii.OpenMemory(dmsii.Options{})
	defer store.Close()
	m, err := New(store, cat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := store.Begin()
	defer tx.Commit()

	box := cat.Class("box")
	tags := catalog.ResolveAttr(box, "tags")   // unbounded → separate
	slots := catalog.ResolveAttr(box, "slots") // bounded → embedded
	if !m.MVSeparate(tags) || m.MVSeparate(slots) {
		t.Fatalf("default MV mapping wrong: tags separate=%v slots separate=%v", m.MVSeparate(tags), m.MVSeparate(slots))
	}

	b, _ := m.NewEntity(box)
	// Multiset semantics for tags: duplicates kept.
	for _, s := range []string{"red", "blue", "red"} {
		if err := m.IncludeMV(b, tags, value.NewString(s)); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := m.GetMV(b, tags)
	if len(got) != 3 {
		t.Errorf("tags = %v", got)
	}
	// Exclude removes one occurrence.
	m.ExcludeMV(b, tags, value.NewString("red"))
	got, _ = m.GetMV(b, tags)
	if len(got) != 2 {
		t.Errorf("tags after exclude = %v", got)
	}

	// Distinct set semantics for slots; max 4.
	for _, n := range []int64{1, 2, 2, 3} {
		if err := m.IncludeMV(b, slots, value.NewInt(n)); err != nil {
			t.Fatal(err)
		}
	}
	got, _ = m.GetMV(b, slots)
	if len(got) != 3 {
		t.Errorf("slots = %v", got)
	}
	m.IncludeMV(b, slots, value.NewInt(4))
	err = m.IncludeMV(b, slots, value.NewInt(5))
	var ce *CardinalityError
	if !errors.As(err, &ce) {
		t.Errorf("5th slot error = %v", err)
	}
	// SetMV validates too.
	if err := m.SetMV(b, slots, []value.Value{value.NewInt(1), value.NewInt(1)}); err == nil {
		t.Error("duplicate SetMV on distinct attr succeeded")
	}
}

func TestDeleteSubclassRoleKeepsSuperclass(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *env) {
		s := e.newEntity("student")
		e.set(s, "person", "name", value.NewString("Jane"))
		e.set(s, "student", "student-nbr", value.NewInt(1500))
		advisor := e.attr("student", "advisor")
		i := e.newEntity("instructor")
		e.m.IncludeEVA(s, advisor, i)

		if err := e.m.DeleteRoles(s, e.class("student")); err != nil {
			t.Fatal(err)
		}
		// §4.8: continues to exist as a person.
		ok, _ := e.m.HasRole(s, e.class("person"))
		if !ok {
			t.Fatal("person role lost")
		}
		ok, _ = e.m.HasRole(s, e.class("student"))
		if ok {
			t.Fatal("student role survives")
		}
		if got := e.get(s, "person", "name"); got.Str() != "Jane" {
			t.Errorf("name after role delete = %v", got)
		}
		// The advisor EVA instance is gone and the inverse synchronized.
		if got, _ := e.m.GetEVA(i, e.attr("instructor", "advisees")); len(got) != 0 {
			t.Errorf("advisees after role delete = %v", got)
		}
		if n, _ := e.m.Count(e.class("student")); n != 0 {
			t.Errorf("Count(student) = %d", n)
		}
		if n, _ := e.m.Count(e.class("person")); n != 2 {
			t.Errorf("Count(person) = %d", n)
		}
	})
}

func TestDeletePersonCascadesToAllRoles(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *env) {
		ta := e.newEntity("teaching-assistant")
		e.set(ta, "person", "soc-sec-no", value.NewInt(123456789))
		spouse := e.attr("person", "spouse")
		partner := e.newEntity("person")
		e.m.IncludeEVA(ta, spouse, partner)

		if err := e.m.DeleteRoles(ta, e.class("person")); err != nil {
			t.Fatal(err)
		}
		for _, c := range []string{"person", "student", "instructor", "teaching-assistant"} {
			if ok, _ := e.m.HasRole(ta, e.class(c)); ok {
				t.Errorf("role %s survives full delete", c)
			}
			if n, _ := e.m.Count(e.class(c)); n != 1 && c == "person" || n != 0 && c != "person" {
				t.Errorf("Count(%s) = %d", c, n)
			}
		}
		// Partner is single again; referential integrity kept.
		if got, _ := e.m.GetEVA(partner, spouse); len(got) != 0 {
			t.Errorf("dangling spouse: %v", got)
		}
		// The unique index entry is gone: the value is reusable.
		p := e.newEntity("person")
		if err := e.m.SetSingle(p, e.attr("person", "soc-sec-no"), value.NewInt(123456789)); err != nil {
			t.Errorf("ssn not released: %v", err)
		}
	})
}

func TestScans(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *env) {
		for i := 0; i < 5; i++ {
			e.newEntity("person")
		}
		for i := 0; i < 3; i++ {
			e.newEntity("student")
		}
		for i := 0; i < 2; i++ {
			e.newEntity("teaching-assistant")
		}
		counts := map[string]int{"person": 10, "student": 5, "instructor": 2, "teaching-assistant": 2}
		for class, want := range counts {
			ss, err := e.m.Surrogates(e.class(class))
			if err != nil {
				t.Fatal(err)
			}
			if len(ss) != want {
				t.Errorf("Scan(%s) found %d, want %d", class, len(ss), want)
			}
			// Ascending surrogate order.
			for i := 1; i < len(ss); i++ {
				if ss[i-1] >= ss[i] {
					t.Errorf("Scan(%s) out of order", class)
				}
			}
			if n, _ := e.m.Count(e.class(class)); int(n) != want {
				t.Errorf("Count(%s) = %d, want %d", class, n, want)
			}
		}
	})
}

func TestIndexScanRange(t *testing.T) {
	e := newEnv(t, Config{Indexes: []string{"course.credits"}})
	credits := e.attr("course", "credits")
	if !e.m.HasIndex(credits) {
		t.Fatal("credits index not registered")
	}
	var byCredits []value.Surrogate
	for i := 1; i <= 9; i++ {
		c := e.newEntity("course")
		e.set(c, "course", "credits", value.NewInt(int64(i)))
		byCredits = append(byCredits, c)
	}
	got, err := e.m.IndexScan(credits,
		Bound{Value: value.NewInt(3), Inclusive: true, Set: true},
		Bound{Value: value.NewInt(6), Inclusive: false, Set: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("IndexScan [3,6) = %v", got)
	}
	for i, s := range got {
		if s != byCredits[2+i] {
			t.Errorf("IndexScan order wrong: %v", got)
		}
	}
	// Unbounded scan returns all in value order.
	got, _ = e.m.IndexScan(credits, Bound{}, Bound{})
	if len(got) != 9 {
		t.Errorf("unbounded IndexScan = %d entries", len(got))
	}
}

func TestPersistenceOfEntities(t *testing.T) {
	// Entities written through the mapper survive a store reopen.
	sch, _ := parser.ParseSchema(university.DDL)
	cat, _ := catalog.Build(sch)
	dir := t.TempDir()
	store, err := dmsii.OpenFile(dir+"/u.sim", dmsii.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := New(store, cat, Config{})
	tx, _ := store.Begin()
	s, _ := m.NewEntity(cat.Class("student"))
	name := catalog.ResolveAttr(cat.Class("student"), "name")
	if err := m.SetSingle(s, name, value.NewString("persists")); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	store.Close()

	store2, err := dmsii.OpenFile(dir+"/u.sim", dmsii.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	m2, _ := New(store2, cat, Config{})
	v, err := m2.GetSingle(s, name)
	if err != nil || v.Str() != "persists" {
		t.Fatalf("after reopen: %v, %v", v, err)
	}
	// Surrogate allocation continues, not restarts.
	tx2, _ := store2.Begin()
	defer tx2.Commit()
	s2, _ := m2.NewEntity(cat.Class("student"))
	if s2 <= s {
		t.Errorf("surrogate restarted: %d after %d", s2, s)
	}
}

func TestRollbackResetsCaches(t *testing.T) {
	e := newEnv(t, Config{})
	e.newEntity("person")
	e.tx.Commit()

	tx, _ := e.s.Begin()
	e.newEntity("person")
	if n, _ := e.m.Count(e.class("person")); n != 2 {
		t.Fatalf("Count before rollback = %d", n)
	}
	tx.Rollback()
	if n, _ := e.m.Count(e.class("person")); n != 1 {
		t.Errorf("Count after rollback = %d, want 1", n)
	}
	// New transaction allocates without clashing.
	tx2, _ := e.s.Begin()
	defer tx2.Commit()
	s := e.newEntity("person")
	e.set(s, "person", "name", value.NewString("ok"))
}

func TestManyEntitiesStress(t *testing.T) {
	e := newEnv(t, Config{})
	enrolled := e.attr("student", "courses-enrolled")
	var students, courses []value.Surrogate
	for i := 0; i < 200; i++ {
		s := e.newEntity("student")
		e.set(s, "person", "soc-sec-no", value.NewInt(int64(100000000+i)))
		students = append(students, s)
	}
	for i := 0; i < 50; i++ {
		c := e.newEntity("course")
		e.set(c, "course", "course-no", value.NewInt(int64(i+1)))
		courses = append(courses, c)
	}
	for i, s := range students {
		for j := 0; j < 4; j++ {
			if err := e.m.IncludeEVA(s, enrolled, courses[(i+j*7)%len(courses)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n, _ := e.m.RelCount(enrolled); n != 800 {
		t.Errorf("RelCount = %d, want 800", n)
	}
	total := 0
	for _, c := range courses {
		got, err := e.m.GetEVA(c, e.attr("course", "students-enrolled"))
		if err != nil {
			t.Fatal(err)
		}
		total += len(got)
	}
	if total != 800 {
		t.Errorf("sum of course rosters = %d, want 800", total)
	}
	// Deleting every student clears all instances.
	for _, s := range students {
		if err := e.m.DeleteRoles(s, e.class("person")); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := e.m.RelCount(enrolled); n != 0 {
		t.Errorf("RelCount after deletes = %d", n)
	}
}

func TestFKStrategyIndexMaintained(t *testing.T) {
	// advisor forced to FK: the student record holds the FK; traversal from
	// the instructor side uses the fki index.
	e := newEnv(t, Config{EVA: map[string]EVAStrategy{"student.advisor": EVAForeignKey}})
	advisor := e.attr("student", "advisor")
	advisees := e.attr("instructor", "advisees")
	i := e.newEntity("instructor")
	var ss []value.Surrogate
	for k := 0; k < 5; k++ {
		s := e.newEntity("student")
		if err := e.m.IncludeEVA(s, advisor, i); err != nil {
			t.Fatal(err)
		}
		ss = append(ss, s)
	}
	got, err := e.m.GetEVA(i, advisees)
	if err != nil || len(got) != 5 {
		t.Fatalf("advisees via fki = %v, %v", got, err)
	}
	// Excluding from the MV side updates the FK holder.
	if err := e.m.ExcludeEVA(i, advisees, ss[0]); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.m.GetEVA(ss[0], advisor); len(got) != 0 {
		t.Errorf("fk not cleared: %v", got)
	}
	if got, _ := e.m.GetEVA(i, advisees); len(got) != 4 {
		t.Errorf("advisees after exclude = %v", got)
	}
}

func TestEVAManyToManyFKRejected(t *testing.T) {
	sch, _ := parser.ParseSchema(university.DDL)
	cat, _ := catalog.Build(sch)
	store, _ := dmsii.OpenMemory(dmsii.Options{})
	defer store.Close()
	_, err := New(store, cat, Config{EVA: map[string]EVAStrategy{"student.courses-enrolled": EVAForeignKey}})
	if err == nil {
		t.Error("FK mapping of a many:many EVA accepted")
	}
}

func TestStatsAcrossManyClasses(t *testing.T) {
	e := newEnv(t, Config{})
	for i := 0; i < 7; i++ {
		e.newEntity("department")
	}
	if n, _ := e.m.Count(e.class("department")); n != 7 {
		t.Errorf("Count(department) = %d", n)
	}
}

func BenchmarkIncludeEVACES(b *testing.B) {
	benchIncludeEVA(b, Config{})
}

func BenchmarkIncludeEVAFK(b *testing.B) {
	benchIncludeEVA(b, Config{EVA: map[string]EVAStrategy{"student.advisor": EVAForeignKey}})
}

func benchIncludeEVA(b *testing.B, cfg Config) {
	sch, _ := parser.ParseSchema(university.DDL)
	cat, _ := catalog.Build(sch)
	store, _ := dmsii.OpenMemory(dmsii.Options{})
	defer store.Close()
	m, _ := New(store, cat, cfg)
	tx, _ := store.Begin()
	defer tx.Commit()
	advisor := catalog.ResolveAttr(cat.Class("student"), "advisor")
	var instructors []value.Surrogate
	for i := 0; i < 100; i++ {
		in, _ := m.NewEntity(cat.Class("instructor"))
		instructors = append(instructors, in)
	}
	students := make([]value.Surrogate, b.N)
	for i := range students {
		students[i], _ = m.NewEntity(cat.Class("student"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.IncludeEVA(students[i], advisor, instructors[i%100]); err != nil {
			if _, ok := err.(*CardinalityError); ok {
				continue
			}
			b.Fatal(err)
		}
	}
	_ = fmt.Sprint()
}
