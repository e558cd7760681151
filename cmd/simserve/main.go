// Command simserve runs a SIM database as a network server: the shared
// SIM kernel of the paper's Figure 1, serving remote front ends such as
// simdb -connect and the package client API.
//
// Usage:
//
//	simserve [-addr :1988] [-db file] [-schema ddl-file] [-university]
//	         [-replica-of addr] [-advertise addr] [-max-conns n]
//	         [-max-inflight n] [-pool-pages n]
//	         [-request-timeout d] [-read-timeout d] [-write-timeout d]
//	         [-drain d] [-log-level info] [-metrics addr]
//	         [-slow-query d] [-slow-request d] [-ready-max-lag n]
//
// The database is opened (in-memory when -db is empty), the optional
// schema is defined, and the server runs until SIGINT/SIGTERM, then
// drains in-flight requests for the -drain grace period.
//
// A file-backed server publishes a replication stream that any number of
// followers can subscribe to, under a fencing epoch kept in the -db file
// itself, beside the position a replica has applied: the node's state is
// committed with its pages and needs no other file. With -replica-of, the
// server instead runs as a read replica: it replicates the primary at
// addr into -db (which is required), rejects every write with a
// "readonly" error, and serves
// bounded-stale reads; \replicas in simdb and the ReplStatus client call
// report its applied position and lag.
//
// Failover: \promote in simdb (or the client Promote call) turns a node
// that currently follows a primary — a replica, or an old primary that
// rejoined the new one after a fence — into the primary under a strictly
// higher epoch; the promoted node then fences the old primary, handing
// it this node's -advertise address as the rejoin target. -advertise is
// therefore effectively required for automatic failover recovery: with
// the default host-less -addr (":1988") the fence notice carries no
// rejoin address, and the demoted primary waits for an operator
// \retarget instead. A primary that learns of a higher epoch — from the
// fencer, or from a promoted follower's hello — demotes itself: writes
// answer a "fenced" error, and when the notice carries the new primary's
// address the node rejoins it as a follower, discarding any unshipped
// tail via re-snapshot. A restarted old primary finds the witnessed
// epoch in its database and starts fenced rather than writable. A -db
// with a ".epoch" or ".repl" file beside it, left by an older build, is
// refused rather than restarted at epoch 1. One
// repl.Node owns all of these transitions; /readyz asks it too.
//
// With -metrics, a second HTTP listener serves the observability
// surface: /metrics (Prometheus text exposition of every engine and
// server metric), /debug/vars (expvar), /debug/pprof, /debug/flight
// (the flight recorder's recent-event dump), and the health endpoints
// /healthz (process liveness) and /readyz (readiness to serve: a
// replica is ready only once its snapshot is installed and its lag is
// at most -ready-max-lag commit groups).
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sim"
	"sim/internal/repl"
	"sim/internal/server"
	"sim/internal/university"
)

func main() {
	addr := flag.String("addr", ":1988", "listen address")
	dbPath := flag.String("db", "", "database file (empty: in-memory)")
	schemaFile := flag.String("schema", "", "DDL file to define at startup")
	univ := flag.Bool("university", false, "define the paper's UNIVERSITY schema at startup")
	replicaOf := flag.String("replica-of", "", "run as a read replica of the primary at this address (requires -db)")
	maxConns := flag.Int("max-conns", 256, "concurrent connection limit")
	maxInflight := flag.Int("max-inflight", 0, "concurrent request limit; excess requests fast-fail with 'overloaded' (0: unbounded)")
	poolPages := flag.Int("pool-pages", 0, "buffer pool pages (0: default)")
	reqTimeout := flag.Duration("request-timeout", time.Minute, "per-request execution deadline (0: none)")
	readTimeout := flag.Duration("read-timeout", 5*time.Minute, "idle session deadline (0: none)")
	writeTimeout := flag.Duration("write-timeout", time.Minute, "response write deadline (0: none)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown grace period")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	metricsAddr := flag.String("metrics", "", "HTTP listen address for /metrics, /debug/vars and /debug/pprof (empty: disabled)")
	slowQuery := flag.Duration("slow-query", 0, "retain queries slower than this in the slow-query log (0: disabled)")
	slowRequest := flag.Duration("slow-request", 0, "log requests slower than this at warn level (0: disabled)")
	readyMaxLag := flag.Uint64("ready-max-lag", 64, "replica readiness threshold: /readyz reports ready only when the replica is at most this many commit groups behind")
	advertise := flag.String("advertise", "", "address other nodes reach this server at, delivered to a fenced old primary as its rejoin target after promotion (default: -addr; effectively required for failover — a host-less listen address like ':1988' cannot be rejoined)")
	flag.Parse()
	if *advertise == "" {
		*advertise = *addr
	}

	logger, err := newLogger(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simserve: %v\n", err)
		os.Exit(2)
	}
	if *replicaOf != "" {
		if *dbPath == "" {
			fmt.Fprintln(os.Stderr, "simserve: -replica-of requires -db (the replica's local database file)")
			os.Exit(2)
		}
		if *univ || *schemaFile != "" {
			fmt.Fprintln(os.Stderr, "simserve: a replica's schema comes from the primary; drop -schema/-university")
			os.Exit(2)
		}
	}

	db, err := sim.Open(*dbPath, sim.Config{
		PoolPages: *poolPages,
		SlowQuery: *slowQuery,
	})
	if err != nil {
		fatal(logger, "open database", err)
	}
	defer db.Close()

	if *univ {
		if err := db.DefineSchema(university.DDL); err != nil {
			fatal(logger, "define university schema", err)
		}
		logger.Info("UNIVERSITY schema defined")
	}
	if *schemaFile != "" {
		ddl, err := os.ReadFile(*schemaFile)
		if err != nil {
			fatal(logger, "read schema file", err)
		}
		if err := db.DefineSchema(string(ddl)); err != nil {
			fatal(logger, "define schema", err, "file", *schemaFile)
		}
		logger.Info("schema defined", "file", *schemaFile)
	}

	node, err := repl.StartNode(db, repl.NodeConfig{
		Path:      *dbPath,
		ReplicaOf: *replicaOf,
		Advertise: *advertise,
		Logger:    logger,
	})
	if err != nil {
		fatal(logger, "start replication", err)
	}
	defer node.Close()
	srv := server.New(db, server.Config{
		MaxConns:       *maxConns,
		MaxInflight:    *maxInflight,
		ReadTimeout:    *readTimeout,
		WriteTimeout:   *writeTimeout,
		RequestTimeout: *reqTimeout,
		Logger:         logger,
		SlowRequest:    *slowRequest,
		Registry:       db.Metrics(),
		Node:           node,
	})

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		metricsSrv = &http.Server{Addr: *metricsAddr, Handler: metricsMux(db, node, *readyMaxLag)}
		go func() {
			logger.Info("metrics endpoint listening", "addr", *metricsAddr)
			if err := metricsSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("metrics endpoint failed", "err", err)
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		sig := <-sigc
		logger.Info("draining", "signal", sig.String(), "grace", *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if metricsSrv != nil {
			metricsSrv.Shutdown(ctx)
		}
		done <- srv.Shutdown(ctx)
	}()

	logger.Info("listening", "addr", *addr)
	if err := srv.ListenAndServe(*addr); !errors.Is(err, server.ErrServerClosed) {
		fatal(logger, "serve", err)
	}
	if err := <-done; err != nil {
		logger.Error("shutdown incomplete", "err", err)
		os.Exit(1)
	}
	st := srv.Stats()
	logger.Info("stopped", "requests", st.Requests, "connections", st.Connections,
		"bytes_in", st.BytesIn, "bytes_out", st.BytesOut, "errors", st.Errors)
}

// newLogger builds the process logger at the requested level.
func newLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

func fatal(logger *slog.Logger, msg string, err error, args ...any) {
	logger.Error(msg, append([]any{"err", err}, args...)...)
	os.Exit(1)
}

// metricsMux builds the observability HTTP surface over the database:
// Prometheus text on /metrics, the same snapshot through expvar on
// /debug/vars, the standard pprof handlers, the flight recorder on
// /debug/flight, and the health endpoints. /healthz answers 200 as long
// as the process serves HTTP (liveness). /readyz gates traffic through
// the node's CURRENT role: a primary or standalone server is ready as
// soon as it listens, a replica only after its base snapshot is
// installed and its applied position is within readyMaxLag commit groups
// of the primary's newest, and a promoted replica is ready immediately —
// pointing a load balancer at /readyz keeps cold or lagging replicas out
// of the read pool and follows the topology across a failover.
func metricsMux(db *sim.Database, node *repl.Node, readyMaxLag uint64) *http.ServeMux {
	reg := db.Metrics()
	expvar.Publish("sim", expvar.Func(func() any { return reg.Snapshot() }))
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !node.Ready(readyMaxLag) {
			http.Error(w, "replica not ready: snapshot pending or lag over threshold",
				http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, db.FlightRecorder().Dump())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
