package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
)

// An op is one closed-loop operation: a single Retrieve, a single
// autocommit update, or a Begin…Commit transaction of several updates.
type op struct {
	class    string   // what it is, for per-class timing: "unique", "q-scan", "register", ...
	read     bool     // one Retrieve
	explicit bool     // Begin; stmts…; Commit (otherwise one autocommit statement)
	adds     bool     // its statements add data (Insert, include): the base of space_amp
	stmts    []string // nowToken in a statement is replaced by the clock at execution
	wantRows int      // rows a read must return; -1 when the count depends on the data
}

// nowToken stands for the wall clock (unix nanoseconds) at execution, so
// the operation stream itself depends only on the seed.
const nowToken = "@NOW@"

// generator yields one client's operation stream.
type generator interface {
	next() op
}

// streamHash identifies the first n operations of a stream.
func streamHash(g generator, n int) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		o := g.next()
		fmt.Fprintf(h, "%s|%s\n", o.class, strings.Join(o.stmts, "|"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ------------------------------------------------------------ point reads

// pointReads is the point-read mix: 70 % unique lookup on soc-sec-no,
// 20 % one-hop EVA, 10 % secondary-index equality on name. Keys are
// Zipf(0.99) over the students present after the load; literals are
// inline, so the text-keyed plan cache misses on all but the hot keys.
type pointReads struct {
	d dataset
	r *rand.Rand
	z *zipf
	// touched records the students read, for the LUC probe.
	touched []int
}

func newPointReads(d dataset, seed int64) *pointReads {
	return &pointReads{d: d, r: rand.New(rand.NewSource(seed)), z: newZipf(d.Students, 0.99)}
}

// student spreads the Zipf ranks over the population, so that hot keys
// are not neighbours in the index. 7919 is prime and divides no
// population used here.
func (g *pointReads) student() int {
	s := g.z.draw(g.r) * 7919 % g.d.Students
	if len(g.touched) < 4096 {
		g.touched = append(g.touched, s)
	}
	return s
}

func (g *pointReads) next() op {
	s := g.student()
	switch x := g.r.Intn(10); {
	case x < 7:
		return op{class: "unique", read: true, wantRows: 1, stmts: []string{
			fmt.Sprintf(`From student Retrieve name, student-nbr Where soc-sec-no = %d.`, ssnOfStudent(s))}}
	case x < 9:
		return op{class: "eva", read: true, wantRows: 1, stmts: []string{
			fmt.Sprintf(`From student Retrieve name of advisor, name of major-department Where soc-sec-no = %d.`, ssnOfStudent(s))}}
	default:
		return op{class: "name", read: true, wantRows: 1, stmts: []string{
			fmt.Sprintf(`From student Retrieve soc-sec-no Where name = "%s".`, studentName(s))}}
	}
}

// -------------------------------------------------------------- analytics

// template is one analytic query text with a parameter slot.
type template struct {
	name   string
	weight int // draws per hundred operations
	params int
	text   func(d dataset, p int) string
}

// templates are the seven fixed analytic queries. With at most ten
// parameters each there are 61 distinct texts, which the 256-entry plan
// cache holds: after the warm-up nearly every query hits it.
//
// The weights put the full scan at 1/20 and the median operation in the
// middle of the count-advisees mode (the three cheap templates and the
// cheap half of the pivots are 35 % of the deck, count-advisees the next
// 30 %), well away from the gaps between templates whose costs differ by
// orders of magnitude: a median that falls in such a gap jumps from run
// to run.
var templates = []template{
	{"q-scan", 5, 1, func(dataset, int) string {
		return `From student Retrieve name, name of advisor.`
	}},
	{"q-advisor-join", 12, 10, func(d dataset, p int) string {
		return fmt.Sprintf(`From student Retrieve name, name of advisor Where dept-nbr of major-department = %d.`, deptNo(p%d.Departments))
	}},
	{"q-count-advisees", 30, 10, func(d dataset, p int) string {
		return fmt.Sprintf(`From instructor Retrieve name, count(advisees) Where dept-nbr of assigned-department = %d.`, deptNo(p%d.Departments))
	}},
	{"q-pivot-title", 14, 10, func(d dataset, p int) string {
		// Ranks 0, 1, 3, 7, … 511 of the Zipf(1.1) popularity: the
		// selectivity of the predicate spans about three decades.
		rank := 1<<p - 1
		c := inPartition(rank%(d.Courses/partitions), p%partitions)
		return fmt.Sprintf(`From student Retrieve name Where title of courses-enrolled = "%s".`, courseTitle(c))
	}},
	{"q-title-range", 14, 10, func(d dataset, p int) string {
		lo := p * d.Courses / 10
		return fmt.Sprintf(`From course Retrieve title, credits Where title >= "%s" and title < "%s".`,
			courseTitle(lo), courseTitle(lo+d.Courses/20))
	}},
	{"q-credits-agg", 11, 10, func(d dataset, p int) string {
		return fmt.Sprintf(`From student Retrieve name, min(credits of courses-enrolled), sum(credits of courses-enrolled) Where dept-nbr of major-department = %d.`, deptNo(p%d.Departments))
	}},
	{"q-prereq-closure", 14, 10, func(d dataset, p int) string {
		// The last course of a chain: its closure is the whole chain.
		c := (p%(d.Courses/chainLen))*chainLen + chainLen - 1
		return fmt.Sprintf(`From course Retrieve title, count distinct (transitive(prerequisites)) Where course-no = %d.`, courseNo(c))
	}},
}

// analytics deals the templates from a deck of a hundred operations that
// holds each template weight times, its parameters taken in turn. The deck
// is cut into five hands of twenty that hold each template as evenly as
// its weight allows — one full scan each — and every hand is shuffled by
// the seed. Every twenty operations are then nearly the same work in
// another order, so throughput does not depend on how many full scans a
// window happened to draw, nor much on where in a deck the window ends.
type analytics struct {
	d     dataset
	r     *rand.Rand
	deck  []op
	dealt int
}

const hands = 5

func newAnalytics(d dataset, seed int64) *analytics {
	return &analytics{d: d, r: rand.New(rand.NewSource(seed))}
}

func (g *analytics) next() op {
	if len(g.deck) == 0 {
		var hand [hands][]op
		k := 0
		for _, t := range templates {
			for i := 0; i < t.weight; i++ {
				p := (g.dealt*t.weight + i) % t.params
				hand[k%hands] = append(hand[k%hands], op{class: t.name, read: true, wantRows: -1, stmts: []string{t.text(g.d, p)}})
				k++
			}
		}
		g.dealt++
		for _, h := range hand {
			g.r.Shuffle(len(h), func(i, j int) { h[i], h[j] = h[j], h[i] })
			g.deck = append(g.deck, h...)
		}
	}
	o := g.deck[0]
	g.deck = g.deck[1:]
	return o
}

// ----------------------------------------------------------- transactions

// writer is one client's transaction mix over its own partition. It keeps
// a model of the advisee counts and of the students it has added, so that
// every operation it issues is valid against the schema's MAX 10 advisees
// given that all its earlier ones succeeded: no operation may fail.
//
// The schema caps advisees at ten per instructor, and the mix adds
// students faster than it withdraws them, so a new student gets an advisor
// only while fewer than advisedCap added students hold one. The warm-up
// fills that cap; from then on an add carries an advisor exactly when a
// withdrawal has freed one, and the mix is stationary.
type writer struct {
	d       dataset
	p       int // partition
	r       *rand.Rand
	reads   *pointReads
	courses *zipf

	advisees []int       // per instructor of the partition
	advisor  []int       // per base student of the partition: instructor slot, or -1
	added    []int       // students this writer registered and has not withdrawn, oldest first
	addedAdv map[int]int // their advisor's slot, when they have one
	nextNew  int
	seq      int
	// advisedCap is half the advisee slots the load left free in the
	// partition; the other half stays free for transfers.
	advisedCap int

	// mix is the cumulative share, in percent, of register, transfer,
	// autocommit insert and withdraw; the rest are point reads.
	mix [4]int
	// stamp makes every transfer end by stamping the marker department.
	stamp bool
}

func newWriter(d dataset, p int, seed int64) *writer {
	per := d.Instructors / partitions
	w := &writer{
		d: d, p: p, r: rand.New(rand.NewSource(seed)),
		reads:    newPointReads(d, seed+1),
		courses:  newZipf(d.Courses/partitions, 1.1),
		advisees: make([]int, per),
		advisor:  make([]int, (d.Students-p+partitions-1)/partitions),
		addedAdv: map[int]int{},
		mix:      [4]int{40, 65, 80, 90},
	}
	free := per * maxAdvisees
	for k := range w.advisor {
		w.advisor[k] = -1
		if a := d.advisorAtLoad(inPartition(k, p)); a >= 0 {
			w.advisor[k] = a / partitions
			w.advisees[a/partitions]++
			free--
		}
	}
	w.advisedCap = free / 2
	return w
}

// freeAdvisor picks an instructor slot of the partition with room.
func (w *writer) freeAdvisor() int {
	for {
		if a := w.r.Intn(len(w.advisees)); w.advisees[a] < maxAdvisees {
			return a
		}
	}
}

// newStudent returns a new student of the partition with its advisor (a
// global instructor index, or -1), department and courses.
func (w *writer) newStudent() (s, adv, dept int, courses []int) {
	s = w.d.Students + inPartition(w.nextNew, w.p)
	w.nextNew++
	adv = -1
	if len(w.addedAdv) < w.advisedCap {
		slot := w.freeAdvisor()
		w.advisees[slot]++
		w.addedAdv[s] = slot
		adv = inPartition(slot, w.p)
	}
	w.added = append(w.added, s)
	dept = inPartition(w.r.Intn(w.d.Departments/partitions), w.p)
	return s, adv, dept, enrollCourses(w.r, w.courses, w.p, w.d.EnrollPer)
}

func (w *writer) register() op {
	s, adv, dept, courses := w.newStudent()
	stmts := []string{insertStudentStmt(s, adv, dept, nil)}
	for _, c := range courses {
		stmts = append(stmts, fmt.Sprintf(`Modify student (courses-enrolled := include course with (course-no = %d)) Where soc-sec-no = %d.`,
			courseNo(c), ssnOfStudent(s)))
	}
	return op{class: "register", explicit: true, adds: true, stmts: stmts}
}

// transfer moves a base student that has an advisor to another advisor
// and another major department: the advisee total stays as it was.
func (w *writer) transfer() op {
	k := w.r.Intn(len(w.advisor))
	for w.advisor[k] < 0 {
		k = w.r.Intn(len(w.advisor))
	}
	s := inPartition(k, w.p)
	to := w.freeAdvisor()
	w.advisees[w.advisor[k]]--
	w.advisees[to]++
	w.advisor[k] = to
	dept := inPartition(w.r.Intn(w.d.Departments/partitions), w.p)
	stmts := []string{
		fmt.Sprintf(`Modify student (advisor := instructor with (employee-nbr = %d)) Where soc-sec-no = %d.`,
			empNo(inPartition(to, w.p)), ssnOfStudent(s)),
		fmt.Sprintf(`Modify student (major-department := department with (dept-nbr = %d)) Where soc-sec-no = %d.`,
			deptNo(dept), ssnOfStudent(s)),
	}
	if w.stamp {
		w.seq++
		stmts = append(stmts, fmt.Sprintf(`Modify department (name := "%d@%s") Where dept-nbr = %d.`, w.seq, nowToken, markerDept))
	}
	return op{class: "transfer", explicit: true, stmts: stmts}
}

func (w *writer) insert() op {
	s, adv, dept, courses := w.newStudent()
	return op{class: "insert", adds: true, stmts: []string{insertStudentStmt(s, adv, dept, courses)}}
}

// withdraw deletes the oldest student this writer added; the Delete
// cascades down the student's roles and releases its advisor's slot.
func (w *writer) withdraw() op {
	if len(w.added) == 0 {
		return w.register()
	}
	s := w.added[0]
	w.added = w.added[1:]
	if slot, ok := w.addedAdv[s]; ok {
		w.advisees[slot]--
		delete(w.addedAdv, s)
	}
	return op{class: "withdraw", stmts: []string{fmt.Sprintf(`Delete student Where soc-sec-no = %d.`, ssnOfStudent(s))}}
}

func (w *writer) next() op {
	switch x := w.r.Intn(100); {
	case x < w.mix[0]:
		return w.register()
	case x < w.mix[1]:
		return w.transfer()
	case x < w.mix[2]:
		return w.insert()
	case x < w.mix[3]:
		return w.withdraw()
	default:
		return w.reads.next()
	}
}

// ------------------------------------------------------- replica reader

// replicaReads is the point-read mix with a read of the marker
// department every markerEvery-th operation.
type replicaReads struct {
	reads *pointReads
	n     int
}

const markerEvery = 50

var markerRead = op{class: "marker", read: true, wantRows: 1,
	stmts: []string{fmt.Sprintf(`From department Retrieve name Where dept-nbr = %d.`, markerDept)}}

func (g *replicaReads) next() op {
	if g.n++; g.n%markerEvery == 0 {
		return markerRead
	}
	return g.reads.next()
}
