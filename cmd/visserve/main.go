// Command visserve serves the multi-tenant visibility analysis service
// over HTTP: sessions own runtimes, clients submit wire-format workloads,
// and admission control bounds every queue (429 + Retry-After on
// overload). On SIGTERM/SIGINT the server drains: admitted requests finish,
// every session's runtime is released, and the process exits cleanly.
//
// With -load N it instead runs the load harness: N concurrent sessions
// replay the graphsim workload against a server (an in-process one by
// default, or -target URL), verify the results are deterministic across
// tenants, and report admission statistics.
//
// With -fault <plan> the deterministic fault-injection plane is armed
// for the whole process (session job crashes, and forced equivalence-set
// splits, migrations and trace invalidations in every session — see
// internal/fault for the site catalog and plan grammar); every injection
// lands in the flight recorder, so a SIGQUIT dump shows exactly which
// faults fired.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"visibility/internal/fault"
	"visibility/internal/server"
	"visibility/internal/server/client"
	"visibility/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "visserve:", err)
		os.Exit(1)
	}
}

// say writes a status line to the harness-provided writer. Status output
// is advisory — a failed write must not abort a drain in progress — so
// the error is deliberately dropped here, in exactly one place.
func say(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("visserve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	maxSessions := fs.Int("max-sessions", 64, "concurrent session cap")
	maxQueue := fs.Int("max-queue", 32, "per-session cap on requests waiting for the session")
	maxInFlight := fs.Int("max-inflight", 256, "global in-flight request cap")
	idle := fs.Duration("idle", 5*time.Minute, "idle session expiry (negative disables)")
	load := fs.Int("load", 0, "run the load harness with N concurrent sessions instead of serving")
	iterations := fs.Int("iterations", 5, "graphsim iterations per load-mode session")
	target := fs.String("target", "", "load-mode server URL (default: start one in-process)")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	recorderCap := fs.Int("recorder-cap", 0, "flight-recorder ring capacity (0 = server default)")
	recorderDump := fs.String("recorder-dump", "", "directory for session-failure recorder dumps (empty disables; SIGQUIT dumps fall back to the system temp dir)")
	traceOut := fs.String("trace-out", "", "load mode: write the merged Perfetto trace export to this file")
	faultPlan := fs.String("fault", "", "arm the fault-injection plane with this plan string (e.g. \"seed=1;server.worker.panic=every=1,max=1,arg=3\"); injections are journaled to the flight recorder")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var inj *fault.Injector
	if *faultPlan != "" {
		var err error
		if inj, err = fault.NewFromString(*faultPlan); err != nil {
			return err
		}
	}
	cfg := server.Config{
		MaxSessions: *maxSessions,
		MaxQueue:    *maxQueue,
		MaxInFlight: *maxInFlight,
		IdleTimeout: *idle,
		RecorderCap: *recorderCap,
		RecorderDir: *recorderDump,
		EnablePprof: *enablePprof,
		Faults:      inj,
	}
	if *load > 0 {
		return runLoad(stdout, cfg, *target, *load, *iterations, *traceOut)
	}
	return serve(stdout, cfg, *addr, *recorderDump)
}

// serve runs the service until SIGTERM/SIGINT, then drains. SIGQUIT is
// the flight-recorder escape hatch: each one dumps the recorder window
// to disk (dumpDir, or the system temp dir when unset) without stopping
// the server, so a live incident can be captured in passing.
func serve(stdout io.Writer, cfg server.Config, addr, dumpDir string) error {
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}

	// Register before announcing the address: once a caller can see the
	// server it may signal it, and an unhandled SIGQUIT kills the process.
	if dumpDir == "" {
		dumpDir = os.TempDir()
	}
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	defer signal.Stop(quit)
	go func() {
		for range quit {
			path, err := srv.DumpRecorder(dumpDir)
			if err != nil {
				say(stdout, "recorder dump failed: %v\n", err)
				continue
			}
			say(stdout, "recorder dump written to %s\n", path)
		}
	}()
	say(stdout, "visserve listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("draining sessions: %w", err)
	}
	if err := hs.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("closing listener: %w", err)
	}
	say(stdout, "visserve drained: %d sessions remain, %d jobs in flight\n",
		srv.SessionCount(), srv.InFlight())
	return nil
}

// runLoad drives n concurrent sessions through the graphsim workload and
// checks cross-tenant determinism. With traceOut set it downloads the
// merged Perfetto trace export before closing the sessions — span rings
// die with their sessions, so the order matters.
func runLoad(stdout io.Writer, cfg server.Config, target string, n, iterations int, traceOut string) error {
	if target == "" {
		srv := server.New(cfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func() {
			if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
				say(stdout, "in-process server: %v\n", err)
			}
		}()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				say(stdout, "draining in-process server: %v\n", err)
			}
			if err := hs.Shutdown(ctx); err != nil {
				say(stdout, "closing in-process server: %v\n", err)
			}
			say(stdout, "drained: %d sessions remain\n", srv.SessionCount())
		}()
		target = "http://" + ln.Addr().String()
		say(stdout, "load harness: in-process server at %s\n", target)
	}

	wl := wire.ExampleGraphsim(iterations)
	c := client.New(target)
	c.RetryWait = 20 * time.Millisecond

	type result struct {
		sum float64
		err error
	}
	results := make([]result, n)
	sessions := make([]*client.Session, n)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := &results[i]
			sess, err := c.CreateSession(client.SessionConfig{})
			if err != nil {
				res.err = err
				return
			}
			sessions[i] = sess
			if res.err = sess.Submit(wl); res.err != nil {
				return
			}
			rows, err := sess.Snapshot("N", "up")
			if err != nil {
				res.err = err
				return
			}
			for _, row := range rows {
				res.sum += row[len(row)-1]
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if traceOut != "" {
		data, err := c.DebugTrace()
		if err != nil {
			return fmt.Errorf("fetching trace export: %w", err)
		}
		if err := os.WriteFile(traceOut, data, 0o644); err != nil {
			return fmt.Errorf("writing trace export: %w", err)
		}
		say(stdout, "trace export (%d bytes) written to %s\n", len(data), traceOut)
	}
	for i, sess := range sessions {
		if sess == nil {
			continue
		}
		if err := sess.Close(); err != nil && results[i].err == nil {
			results[i].err = err
		}
	}

	for i, res := range results {
		if res.err != nil {
			return fmt.Errorf("session %d: %w", i, res.err)
		}
		if res.sum != results[0].sum {
			return fmt.Errorf("nondeterminism: session %d sum %v, session 0 sum %v",
				i, res.sum, results[0].sum)
		}
	}
	say(stdout, "load: sessions=%d tasks/session=%d elapsed=%v sum=%v deterministic ✓\n",
		n, len(wl.Tasks), elapsed.Round(time.Millisecond), results[0].sum)
	return nil
}
