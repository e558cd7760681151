// Command simdb is an interactive shell for SIM databases, in the spirit
// of the paper's IQF query facility.
//
// Usage:
//
//	simdb [-db file] [-schema ddl-file] [-connect host:port[,host:port...]] [-e script]
//
// With -connect the shell becomes a remote front end to a simserve
// process — the paper's Figure 1 boundary between interface products and
// the shared SIM kernel — and the -db/-schema flags do not apply (the
// server owns the database and its schema). A comma-separated -connect
// treats the first address as the primary and the rest as read replicas:
// reads (including \explain and \analyze) are sprayed across the
// replicas, writes and transactions go to the primary.
//
// Without -e it reads statements from standard input; a statement ends
// with '.' or ';' at the end of a line. With -e it runs the given script
// (one or more statements), printing results to stdout; any statement
// error goes to stderr and exits nonzero. Shell commands:
//
//	\schema           print the schema summary (local only)
//	\classes          list classes and their attributes (local only)
//	\explain <query>  show the optimizer's strategy
//	\analyze <query>  execute the query and show the measured per-node profile
//	\timing [on|off]  print span timings (parse/plan/exec) after each query
//	\check            run every VERIFY assertion (local only)
//	\verify           audit storage: page checksums + full structure scan (local only)
//	\stats            print server counters (remote) or engine stats (local)
//	\replicas         print replication role, epoch, positions and per-follower lag (remote)
//	\promote          promote the connected replica to primary (remote)
//	\retarget e addr  fence a stale primary / re-point a replica at addr under epoch e (remote)
//	\flight           dump the flight recorder (recent structured engine events)
//	\hot              show the latch contention profile (waits and conflicts)
//	\quit             exit
//
// \analyze and \timing work both locally and over -connect; remotely the
// spans are measured server-side and shipped back on the wire.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sim"
	"sim/client"
	"sim/internal/ast"
	"sim/internal/catalog"
	"sim/internal/parser"
	"sim/internal/wire"
)

// session is the slice of the database API the shell needs; *sim.Database
// provides it in-process and *client.Conn provides it over the wire.
type session interface {
	Query(dml string) (*sim.Result, error)
	Exec(dml string) (int, error)
	Explain(dml string) (string, error)
	ExplainAnalyze(dml string) (string, error)
}

// shellTx is the transaction slice the shell needs. *client.Tx satisfies
// it directly; localTx adapts *sim.Tx (whose Commit/Rollback take no
// context — the local engine finishes them without network I/O).
type shellTx interface {
	Query(ctx context.Context, dml string) (*sim.Result, error)
	Exec(ctx context.Context, dml string) (int, error)
	Commit(ctx context.Context) error
	Rollback(ctx context.Context) error
}

type localTx struct{ *sim.Tx }

func (l localTx) Commit(context.Context) error   { return l.Tx.Commit() }
func (l localTx) Rollback(context.Context) error { return l.Tx.Rollback() }

// shell is the interactive state: the session plus its open transaction,
// if any (BEGIN ... COMMIT/ROLLBACK).
type shell struct {
	sess session
	tx   shellTx
}

// begin opens an explicit transaction on the session.
func (sh *shell) begin(ctx context.Context) error {
	if sh.tx != nil {
		return fmt.Errorf("a transaction is already open (COMMIT or ROLLBACK it first)")
	}
	switch v := sh.sess.(type) {
	case *sim.Database:
		tx, err := v.Begin(ctx)
		if err != nil {
			return err
		}
		sh.tx = localTx{tx}
	case *client.Conn:
		tx, err := v.Begin(ctx)
		if err != nil {
			return err
		}
		sh.tx = tx
	case *client.Multi:
		tx, err := v.Begin(ctx)
		if err != nil {
			return err
		}
		sh.tx = tx
	default:
		return fmt.Errorf("this session does not support transactions")
	}
	return nil
}

// finish commits (commit=true) or rolls back the open transaction.
func (sh *shell) finish(ctx context.Context, commit bool) error {
	if sh.tx == nil {
		return fmt.Errorf("no transaction is open (BEGIN first)")
	}
	tx := sh.tx
	sh.tx = nil
	if commit {
		return tx.Commit(ctx)
	}
	return tx.Rollback(ctx)
}

// timing controls the per-query span line (\timing on|off).
var timing bool

func main() {
	dbPath := flag.String("db", "", "database file (empty: in-memory)")
	schemaFile := flag.String("schema", "", "DDL file to define at startup")
	connect := flag.String("connect", "", "simserve address(es) to use instead of a local database; comma-separated = primary,replica,...")
	stmt := flag.String("e", "", "execute a script of statements and exit")
	flag.Parse()

	var sess session
	if *connect != "" {
		if *dbPath != "" || *schemaFile != "" {
			fatal(fmt.Errorf("-connect is exclusive with -db/-schema (the server owns the database)"))
		}
		if addrs := strings.Split(*connect, ","); len(addrs) > 1 {
			m, err := client.DialMulti(addrs)
			if err != nil {
				fatal(err)
			}
			defer m.Close()
			sess = m
		} else {
			conn, err := client.Dial(*connect)
			if err != nil {
				fatal(err)
			}
			defer conn.Close()
			sess = conn
		}
	} else {
		db, err := sim.Open(*dbPath, sim.Config{})
		if err != nil {
			fatal(err)
		}
		defer db.Close()
		if *schemaFile != "" {
			ddl, err := os.ReadFile(*schemaFile)
			if err != nil {
				fatal(err)
			}
			if err := db.DefineSchema(string(ddl)); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "schema %s defined\n", *schemaFile)
		}
		sess = db
	}

	sh := &shell{sess: sess}
	defer func() {
		// An open transaction at exit (EOF, \quit) is rolled back, like a
		// dropped server connection.
		if sh.tx != nil {
			if err := sh.finish(context.Background(), false); err != nil {
				fmt.Fprintln(os.Stderr, "rollback at exit:", err)
			} else {
				fmt.Fprintln(os.Stderr, "open transaction rolled back at exit")
			}
		}
	}()

	if *stmt != "" {
		if err := runScript(sh, *stmt); err != nil {
			fatal(err)
		}
		return
	}

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		switch {
		case buf.Len() > 0:
			fmt.Print("...> ")
		case sh.tx != nil:
			fmt.Print("txn> ")
		default:
			fmt.Print("sim> ")
		}
	}
	prompt()
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if !command(sh, trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.HasSuffix(trimmed, ".") || strings.HasSuffix(trimmed, ";") {
			if err := run(sh, buf.String()); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
			buf.Reset()
		}
		prompt()
	}
}

// command handles a backslash command; it returns false to exit.
func command(sh *shell, line string) bool {
	s := sh.sess
	db, local := s.(*sim.Database)
	cmd, rest, _ := strings.Cut(line, " ")
	switch cmd {
	case `\quit`, `\q`:
		return false
	case `\schema`:
		if !local {
			fmt.Fprintln(os.Stderr, `\schema needs a local database (remote sessions query the server's schema via DML)`)
			break
		}
		fmt.Print(db.SchemaSummary())
	case `\classes`:
		if !local {
			fmt.Fprintln(os.Stderr, `\classes needs a local database`)
			break
		}
		printClasses(db)
	case `\explain`:
		ex, err := s.Explain(rest)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		} else {
			fmt.Println(ex)
		}
	case `\analyze`:
		out, err := s.ExplainAnalyze(rest)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		} else {
			fmt.Print(out)
		}
	case `\timing`:
		switch strings.TrimSpace(rest) {
		case "on":
			timing = true
		case "off":
			timing = false
		case "":
			timing = !timing
		default:
			fmt.Fprintf(os.Stderr, "usage: \\timing [on|off]\n")
			return true
		}
		if timing {
			fmt.Println("timing on")
		} else {
			fmt.Println("timing off")
		}
	case `\check`:
		if !local {
			fmt.Fprintln(os.Stderr, `\check needs a local database`)
			break
		}
		if err := db.CheckIntegrity(); err != nil {
			fmt.Fprintln(os.Stderr, "violation:", err)
		} else {
			fmt.Println("all assertions hold")
		}
	case `\verify`:
		if !local {
			fmt.Fprintln(os.Stderr, `\verify needs a local database`)
			break
		}
		rep, err := db.Scrub()
		if err != nil || !rep.OK() {
			// A failed audit is exactly when the recent-event context
			// matters; dump the flight recorder alongside the report.
			fmt.Fprint(os.Stderr, db.FlightRecorder().Dump())
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			break
		}
		fmt.Println(rep)
	case `\flight`:
		if local {
			fmt.Print(db.FlightRecorder().Dump())
			break
		}
		introspect(s, wire.IntrospectFlight)
	case `\hot`:
		if local {
			fmt.Print(db.HotReport())
			break
		}
		introspect(s, wire.IntrospectHot)
	case `\stats`:
		if conn := remoteConn(s); conn != nil {
			st, err := conn.ServerStats(context.Background())
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			} else {
				fmt.Println(st)
			}
			break
		}
		st := db.Stats()
		fmt.Printf("pool: hits=%d misses=%d  plans: hits=%d misses=%d\n",
			st.Pool.Hits, st.Pool.Misses, st.Plans.Hits, st.Plans.Misses)
		fmt.Printf("luc-cache: hits=%d misses=%d  exec: queries=%d rows=%d instances=%d\n",
			st.Cache.Hits, st.Cache.Misses, st.Exec.Queries, st.Exec.Rows, st.Exec.Instances)
	case `\replicas`:
		if conn := remoteConn(s); conn != nil {
			st, err := conn.ReplStatus(context.Background())
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			} else {
				fmt.Println(st)
			}
			break
		}
		fmt.Println("role=local (replication runs under simserve; use -connect)")
	case `\promote`:
		conn := remoteConn(s)
		if conn == nil {
			fmt.Fprintln(os.Stderr, `\promote needs a remote session (use -connect with the replica's address)`)
			break
		}
		epoch, err := conn.Promote(context.Background())
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			break
		}
		fmt.Printf("promoted: %s is primary at epoch %d\n", conn.Addr(), epoch)
	case `\retarget`:
		conn := remoteConn(s)
		if conn == nil {
			fmt.Fprintln(os.Stderr, `\retarget needs a remote session`)
			break
		}
		epochStr, addr, _ := strings.Cut(strings.TrimSpace(rest), " ")
		epoch, perr := strconv.ParseUint(epochStr, 10, 64)
		if perr != nil || strings.TrimSpace(addr) == "" {
			fmt.Fprintln(os.Stderr, `usage: \retarget <epoch> <primary-addr> — fence a stale primary / re-point a replica`)
			break
		}
		if err := conn.Retarget(context.Background(), epoch, strings.TrimSpace(addr)); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			break
		}
		fmt.Printf("retargeted %s to %s (epoch %d)\n", conn.Addr(), strings.TrimSpace(addr), epoch)
	case `\help`:
		fmt.Println(`statements end with '.' or ';'
DDL:  Type/Class/Subclass/Verify declarations (via -schema or pasted; local only)
DML:  Retrieve / Insert / Modify / Delete
TXN:  Begin [Transaction] / Commit / Rollback (prompt shows txn> while open)
commands: \schema \classes \explain <q> \analyze <q> \timing [on|off] \check \verify \stats \replicas \promote \retarget <epoch> <addr> \flight \hot \quit`)
	default:
		fmt.Fprintf(os.Stderr, "unknown command %s (try \\help)\n", cmd)
	}
	return true
}

// remoteConn returns the server connection behind a remote session — the
// connection itself, or a Multi's primary — and nil for a local database.
func remoteConn(s session) *client.Conn {
	switch v := s.(type) {
	case *client.Conn:
		return v
	case *client.Multi:
		return v.Primary()
	}
	return nil
}

// introspect prints a server-rendered introspection report (\flight, \hot)
// from the remote session's primary.
func introspect(s session, kind byte) {
	conn := remoteConn(s)
	if conn == nil {
		fmt.Fprintln(os.Stderr, "this session has no server to introspect")
		return
	}
	out, err := conn.Introspect(context.Background(), kind)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	fmt.Print(out)
}

// isDDL reports whether an input chunk starts like schema definition
// language rather than DML.
func isDDL(text string) bool {
	trimmed := strings.TrimSpace(strings.ToLower(text))
	for _, kw := range []string{"class", "subclass", "type", "verify"} {
		if strings.HasPrefix(trimmed, kw) {
			return true
		}
	}
	return false
}

// run executes one input chunk: DDL if it looks like a schema, otherwise
// a single statement (DML or transaction control).
func run(sh *shell, text string) error {
	ctx := context.Background()
	if isDDL(text) {
		db, local := sh.sess.(*sim.Database)
		if !local {
			return fmt.Errorf("schema changes are not supported over -connect; define the schema on the server (simserve -schema)")
		}
		if sh.tx != nil {
			return fmt.Errorf("schema changes inside a transaction are not supported; COMMIT or ROLLBACK first")
		}
		if err := db.DefineSchema(text); err != nil {
			return err
		}
		fmt.Println("schema updated")
		return nil
	}
	stmt, err := parser.ParseStmt(text)
	if err != nil {
		return err
	}
	switch ret := stmt.(type) {
	case *ast.BeginStmt:
		if err := sh.begin(ctx); err != nil {
			return err
		}
		fmt.Println("transaction open")
		return nil
	case *ast.CommitStmt:
		if err := sh.finish(ctx, true); err != nil {
			return err
		}
		fmt.Println("committed")
		return nil
	case *ast.RollbackStmt:
		if err := sh.finish(ctx, false); err != nil {
			return err
		}
		fmt.Println("rolled back")
		return nil
	case *ast.RetrieveStmt:
		var r *sim.Result
		var spans string
		switch {
		case sh.tx != nil:
			r, err = sh.tx.Query(ctx, text)
		case timing:
			r, spans, err = timedQuery(sh.sess, text)
		default:
			r, err = sh.sess.Query(text)
		}
		if err != nil {
			return err
		}
		if ret.Mode == ast.OutputStructure {
			fmt.Print(r.FormatStructured())
		} else {
			fmt.Print(r.Format())
		}
		fmt.Printf("(%d rows)\n", r.NumRows())
		if spans != "" {
			fmt.Println(spans)
		}
		return nil
	}
	var n int
	if sh.tx != nil {
		n, err = sh.tx.Exec(ctx, text)
	} else {
		n, err = sh.sess.Exec(text)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%d entity(ies) affected\n", n)
	return nil
}

// timedQuery runs one Retrieve with span collection: locally through
// Database.QueryTrace, remotely through the QueryTrace frame (spans are
// measured on the server).
func timedQuery(s session, text string) (*sim.Result, string, error) {
	switch v := s.(type) {
	case *sim.Database:
		r, tr, err := v.QueryTrace(text)
		if err != nil {
			return nil, "", err
		}
		plan := tr.Plan.String()
		if tr.PlanCached {
			plan += " (cached)"
		}
		return r, fmt.Sprintf("time: parse %v  plan %s  exec %v  total %v",
			tr.Parse, plan, tr.Exec, tr.Total), nil
	case *client.Conn:
		r, ti, err := v.QueryTrace(text)
		if err != nil {
			return nil, "", err
		}
		return r, "server " + ti.String(), nil
	case *client.Multi:
		r, ti, err := v.QueryTrace(text)
		if err != nil {
			return nil, "", err
		}
		return r, "server " + ti.String(), nil
	default:
		r, err := s.Query(text)
		return r, "", err
	}
}

// runScript executes the -e argument: a DDL batch, or a script of one or
// more statements executed in order (BEGIN/COMMIT/ROLLBACK group the
// statements between them into one transaction). Results go to stdout;
// the first failing statement's error is returned (the caller routes it
// to stderr and exits nonzero) without executing the rest, and any
// transaction still open — after a failure or at the end of the script —
// is rolled back.
func runScript(sh *shell, text string) error {
	if isDDL(text) {
		return run(sh, text)
	}
	_, stmts, err := parser.ParseStmts(text)
	if err != nil {
		return err
	}
	defer func() {
		if sh.tx != nil {
			if rerr := sh.finish(context.Background(), false); rerr != nil {
				fmt.Fprintln(os.Stderr, "rollback at script end:", rerr)
			} else {
				fmt.Fprintln(os.Stderr, "open transaction rolled back at script end")
			}
		}
	}()
	for i, one := range stmts {
		if err := run(sh, one); err != nil {
			if len(stmts) > 1 {
				return fmt.Errorf("statement %d: %w", i+1, err)
			}
			return err
		}
	}
	return nil
}

func printClasses(db *sim.Database) {
	for _, cl := range db.Catalog().Classes() {
		kind := "class"
		if !cl.IsBase() {
			supers := make([]string, len(cl.Supers))
			for i, s := range cl.Supers {
				supers[i] = s.Name
			}
			kind = "subclass of " + strings.Join(supers, ", ")
		}
		fmt.Printf("%s (%s)\n", cl.Name, kind)
		for _, a := range cl.Attrs {
			if a.Implicit {
				continue
			}
			switch a.Kind {
			case catalog.EVA:
				inv := ""
				if a.Inverse != nil && !a.Inverse.Implicit {
					inv = " inverse is " + a.Inverse.Name
				}
				fmt.Printf("  %s: %s%s%s\n", a.Name, a.Range.Name, inv, optstr(a))
			case catalog.Subrole:
				names := make([]string, len(a.SubroleOf))
				for i, s := range a.SubroleOf {
					names[i] = s.Name
				}
				fmt.Printf("  %s: subrole (%s)%s\n", a.Name, strings.Join(names, ", "), optstr(a))
			case catalog.Derived:
				fmt.Printf("  %s: derived\n", a.Name)
			default:
				fmt.Printf("  %s: %s%s\n", a.Name, a.Type, optstr(a))
			}
		}
	}
}

func optstr(a *catalog.Attribute) string {
	var parts []string
	o := a.Options
	if o.Required {
		parts = append(parts, "required")
	}
	if o.Unique {
		parts = append(parts, "unique")
	}
	if o.MV {
		mv := "mv"
		if o.Max > 0 {
			mv = fmt.Sprintf("mv (max %d)", o.Max)
		}
		parts = append(parts, mv)
	}
	if len(parts) == 0 {
		return ""
	}
	return " [" + strings.Join(parts, ", ") + "]"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simdb:", err)
	os.Exit(1)
}
