// Command llmsql-serve runs the query engine as a long-lived server.
//
// It builds one core.EngineGroup — a shared coalescing backend stack over
// the simulated model — and serves the line/JSON protocol on a TCP address
// or unix socket. Every connection gets its own session (engine, prepared
// statements, named-parameter defaults, per-session billing) while all
// sessions share the request coalescer, the optional disk cache and the
// local row store, so concurrent identical scans cost one live model
// fan-out. Admission control bounds global concurrency with a wait queue
// and enforces per-tenant concurrency and token budgets.
//
// On SIGINT/SIGTERM the server drains gracefully: listeners stop
// accepting, idle sessions close immediately, and in-flight requests
// finish and deliver their response before the connection closes (up to
// -drain-timeout).
//
// Usage:
//
//	llmsql-serve -listen 127.0.0.1:7878
//	llmsql-serve -listen /tmp/llmsql.sock -cache-dir /var/cache/llmsql
//
// Clients: `llmsql -connect <addr>` or any line/JSON speaker (see
// internal/serve).
//
// Flags: see -help, or -print-flags for the markdown reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"llmsql/internal/cliflags"
	"llmsql/internal/core"
	"llmsql/internal/serve"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:7878", "listen address: host:port for TCP, or a unix socket path")
		maxConc    = flag.Int("max-concurrent", 0, "global concurrent-query limit (0 = unlimited)")
		maxQueue   = flag.Int("max-queue", 0, "queries allowed to wait for a slot when the global limit is reached (0 = reject immediately)")
		queueWait  = flag.Duration("queue-timeout", serve.DefaultQueueTimeout, "longest a query waits in the admission queue before rejection")
		tenantConc = flag.Int("tenant-concurrent", 0, "per-tenant concurrent-query limit (0 = unlimited; exceeding it rejects immediately, never queues)")
		tenantTok  = flag.Int("tenant-tokens", 0, "per-tenant total token budget; queries from a tenant over budget are rejected (0 = unlimited)")
		idle       = flag.Duration("idle-timeout", 0, "close sessions idle for this long (0 = never)")
		writeWait  = flag.Duration("write-timeout", serve.DefaultWriteTimeout, "deadline for writing one response to a client (<=0 = no deadline)")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "longest to wait for in-flight requests on shutdown before closing connections forcibly")
		printFlags = flag.Bool("print-flags", false, "print the flag reference as a markdown table and exit (consumed by make docs-check)")
	)
	var engine cliflags.EngineFlags
	engine.Register(flag.CommandLine)
	var faults cliflags.FaultFlags
	faults.Register(flag.CommandLine)
	flag.Parse()

	if *printFlags {
		fmt.Print(cliflags.Markdown(flag.CommandLine))
		return
	}

	cfg, w, model, recordTrace, err := engine.Build()
	if err != nil {
		fatal(err)
	}
	faults.Apply(&cfg)
	group, err := core.NewEngineGroup(model, cfg)
	if err != nil {
		fatal(err)
	}
	defer group.Close()
	for _, name := range w.DomainNames() {
		group.RegisterWorldDomain(w.Domain(name))
	}

	srv := serve.NewServer(serve.Config{
		Group: group,
		Admission: serve.AdmissionConfig{
			MaxConcurrent:    *maxConc,
			MaxQueue:         *maxQueue,
			QueueTimeout:     *queueWait,
			TenantConcurrent: *tenantConc,
			TenantTokens:     *tenantTok,
		},
		IdleTimeout:  *idle,
		WriteTimeout: writeTimeout(*writeWait),
		Logf:         log.Printf,
	})

	network, target := serve.SplitAddr(*listen)
	if network == "unix" {
		// A previous unclean exit leaves the socket file behind; rebinding
		// requires removing it first.
		os.Remove(target)
	}
	ln, err := net.Listen(network, target)
	if err != nil {
		fatal(err)
	}
	log.Printf("llmsql-serve: listening on %s %s (model %s, strategy %s)", network, target, engine.Model, engine.Strategy)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		if err != nil {
			fatal(err)
		}
	case s := <-sig:
		log.Printf("llmsql-serve: %v — draining (timeout %v)", s, *drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			log.Printf("llmsql-serve: drain incomplete: %v", err)
		}
	}
	if network == "unix" {
		os.Remove(target)
	}

	st := srv.Stats()
	log.Printf("llmsql-serve: served %d sessions, %d queries (%d errors); coalescer: %d live calls, %d coalesced hits",
		st.TotalSessions, st.Queries, st.Errors, st.Group.Coalescer.LiveCalls, st.Group.Coalescer.Hits())
	if recordTrace != nil {
		if err := recordTrace.Save(engine.Record); err != nil {
			log.Printf("llmsql-serve: save trace: %v", err)
		} else {
			log.Printf("llmsql-serve: recorded %d completions to %s", recordTrace.Len(), engine.Record)
		}
	}
}

// writeTimeout maps the flag's "<=0 disables" convention onto
// serve.Config's "0 selects the default, negative disables".
func writeTimeout(d time.Duration) time.Duration {
	if d <= 0 {
		return -1
	}
	return d
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "llmsql-serve:", err)
	os.Exit(1)
}
