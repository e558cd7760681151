package luc

import (
	"bytes"
	"fmt"
	"testing"

	"sim/internal/catalog"
	"sim/internal/parser"
	"sim/internal/value"
)

// recordDDL is one hierarchy exercising every kind of record slot: single
// DVAs of each value kind, embedded MV DVAs (bounded, so in-record) in
// several sections, FK-held EVAs (a self-inverse 1:1 pair and a two-sided
// one), and a subclass with two parents.
const recordDDL = `
Type shade = symbolic (red, green, blue);

Class Thing (
  label: string[20];
  n: integer;
  x: number[9,2];
  born: date;
  tags: integer mv (max 5);
  twin: thing inverse is twin;
  mate: thing inverse is mate-of;
  mate-of: thing inverse is mate;
  form: subrole (part, gadget) mv );

Subclass Part of Thing (
  weight: integer;
  codes: string[8] mv (max 3);
  part-status: subrole (widget) );

Subclass Gadget of Thing (
  hue: shade;
  ok: boolean;
  gadget-status: subrole (widget) );

Subclass Widget of Part and Gadget (
  volts: integer;
  pins: integer mv (max 4) );
`

// fuzzBytes doles out the fuzzer's input one decision at a time; an
// exhausted input reads as zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// val draws one value, NULL included, of any kind a slot may hold.
func (b *fuzzBytes) val() value.Value {
	switch b.next() % 7 {
	case 1:
		return value.NewInt(int64(int8(b.next())))
	case 2:
		s := make([]byte, b.next()%4)
		for i := range s {
			s[i] = b.next()
		}
		return value.NewString(string(s))
	case 3:
		return value.NewNumber(float64(int8(b.next())) / 4)
	case 4:
		return value.NewDate(int64(b.next()) * 100)
	case 5:
		return value.NewSymbolic([]string{"red", "green", "blue"}[b.next()%3], int(b.next()%3))
	case 6:
		return value.NewSurrogate(value.Surrogate(b.next()) + 1)
	}
	return value.Null
}

// vals draws an embedded multiset of 0–4 values.
func (b *fuzzBytes) vals() []value.Value {
	n := int(b.next() % 5)
	if n == 0 {
		return nil
	}
	out := make([]value.Value, n)
	for i := range out {
		out[i] = b.val()
	}
	return out
}

// recordModel is the map layout the record's slices replace: the
// reference set/get/delete semantics.
type recordModel struct {
	single map[int]value.Value
	multi  map[int][]value.Value
}

// agree checks both lookups of every attribute id on r against the model,
// and that r stores no NULL single and no empty multiset.
func (md recordModel) agree(t *testing.T, r *record, ids []int, when string) {
	t.Helper()
	for _, id := range ids {
		if got, want := r.get(id), md.single[id]; got != want {
			t.Fatalf("%s: attr %d = %v, model %v", when, id, got, want)
		}
		got, want := r.getMulti(id), md.multi[id]
		if !bytes.Equal(value.AppendRow(nil, got), value.AppendRow(nil, want)) {
			t.Fatalf("%s: attr %d multiset %v, model %v", when, id, got, want)
		}
	}
	for _, sv := range r.single {
		if sv.v.IsNull() {
			t.Fatalf("%s: record stores a NULL for attr %d", when, sv.attr)
		}
	}
	for _, mv := range r.multi {
		if len(mv.vals) == 0 {
			t.Fatalf("%s: record stores an empty multiset for attr %d", when, mv.attr)
		}
	}
}

// encoded is the part of the model an encoding keeps: the slots of the
// held roles' sections, each read by its own kind.
func (md recordModel) encoded(m *Mapper, held []*catalog.Class) recordModel {
	out := recordModel{single: map[int]value.Value{}, multi: map[int][]value.Value{}}
	for _, cl := range held {
		for _, s := range m.slots[cl.ID] {
			id := s.attr.ID
			if s.kind == slotMulti {
				if vals := md.multi[id]; len(vals) > 0 {
					out.multi[id] = vals
				}
			} else if v := md.single[id]; !v.IsNull() {
				out.single[id] = v
			}
		}
	}
	return out
}

// set applies one single-slot write to both layouts.
func (md recordModel) set(r *record, id int, v value.Value) {
	r.set(id, v)
	if v.IsNull() {
		delete(md.single, id)
	} else {
		md.single[id] = v
	}
}

// setMulti applies one multiset write to both layouts.
func (md recordModel) setMulti(r *record, id int, vals []value.Value) {
	r.setMulti(id, vals)
	if len(vals) == 0 {
		delete(md.multi, id)
	} else {
		md.multi[id] = vals
	}
}

// FuzzRecordRoundTrip builds a record from a random role set and random
// slot values (NULLs, FK surrogates, embedded multisets including empty
// ones) and checks that encode → decode → encode is byte-identical, that a
// decode lists its slots in section order, and that random set/get/delete
// sequences on the slice layout agree with a map model, before and after
// another round trip.
func FuzzRecordRoundTrip(f *testing.F) {
	sch, err := parser.ParseSchema(recordDDL)
	if err != nil {
		f.Fatal(err)
	}
	cat, err := catalog.Build(sch)
	if err != nil {
		f.Fatal(err)
	}
	// Encoding and decoding read only the mapper's slot tables.
	m, err := New(nil, cat, Config{})
	if err != nil {
		f.Fatal(err)
	}
	base := cat.Class("thing")
	hier := catalog.HierarchyClasses(base)
	var attrs []int
	for _, cl := range hier {
		for _, s := range m.slots[cl.ID] {
			attrs = append(attrs, s.attr.ID)
		}
	}

	f.Add([]byte{})
	f.Add([]byte{0x0f, 1, 7, 2, 3, 'a', 'b', 'c', 3, 9, 4, 3, 5, 2, 1, 1, 2, 1, 3, 3, 6, 4})
	f.Add([]byte{0x01, 0, 0, 0, 0, 0, 1, 6, 5, 6, 5, 2, 0, 1, 3, 0, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		mask := in.next()
		r := &record{}
		var held []*catalog.Class
		for i, cl := range hier {
			if i == 0 || mask&(1<<(i-1)) != 0 {
				r.addRole(cl.ID)
			}
		}
		for _, id := range r.roles {
			held = append(held, m.classByID(id))
		}
		md := recordModel{single: map[int]value.Value{}, multi: map[int][]value.Value{}}
		for _, cl := range held {
			for _, s := range m.slots[cl.ID] {
				switch s.kind {
				case slotMulti:
					md.setMulti(r, s.attr.ID, in.vals())
				case slotFK:
					v := value.Null
					if in.next()%2 == 1 {
						v = value.NewSurrogate(value.Surrogate(in.next()) + 1)
					}
					md.set(r, s.attr.ID, v)
				default:
					md.set(r, s.attr.ID, in.val())
				}
			}
		}
		md.agree(t, r, attrs, "built")

		enc := m.encodeRecord(base, r)
		dec, err := m.decodeRecord(base, enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if fmt.Sprint(dec.roles) != fmt.Sprint(r.roles) {
			t.Fatalf("roles %v decode as %v", r.roles, dec.roles)
		}
		if again := m.encodeRecord(base, dec); !bytes.Equal(again, enc) {
			t.Fatalf("re-encode differs:\n%x\n%x", enc, again)
		}
		md.agree(t, dec, attrs, "decoded")
		var order []int
		for _, cl := range held {
			for _, s := range m.slots[cl.ID] {
				if s.kind != slotMulti && !md.single[s.attr.ID].IsNull() {
					order = append(order, s.attr.ID)
				}
			}
		}
		var got []int
		for _, sv := range dec.single {
			got = append(got, sv.attr)
		}
		if fmt.Sprint(got) != fmt.Sprint(order) {
			t.Fatalf("decoded single slots in order %v, sections give %v", got, order)
		}

		// Mutations on the decoded record, any attribute of the hierarchy,
		// held role or not. The bound keeps grown inputs fast to run.
		for ops := 0; ops < 64 && len(in) > 0; ops++ {
			op, id := in.next(), attrs[int(in.next())%len(attrs)]
			switch op % 4 {
			case 0:
				md.set(dec, id, in.val())
			case 1:
				md.set(dec, id, value.Null)
			case 2:
				md.setMulti(dec, id, in.vals())
			case 3:
				md.setMulti(dec, id, nil)
			}
			md.agree(t, dec, attrs, "mutated")
		}
		enc = m.encodeRecord(base, dec)
		dec2, err := m.decodeRecord(base, enc)
		if err != nil {
			t.Fatalf("decode after mutation: %v", err)
		}
		md.encoded(m, held).agree(t, dec2, attrs, "mutated, decoded")
		if again := m.encodeRecord(base, dec2); !bytes.Equal(again, enc) {
			t.Fatalf("re-encode after mutation differs:\n%x\n%x", enc, again)
		}
	})
}
