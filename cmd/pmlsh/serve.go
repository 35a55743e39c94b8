package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/wal"
)

// runServe puts an index behind the HTTP serving layer
// (internal/server): the full query and mutation API, health and
// readiness probes, and Prometheus-text /metrics. On SIGTERM/SIGINT it
// drains gracefully — readiness starts failing so load balancers stop
// routing here, in-flight requests finish under -drain-timeout, and
// with -save the final state is checkpointed before exit. -debug-addr
// serves net/http/pprof on a second listener (serveDebug).
//
// With -data-dir the engine is WAL-backed: every acknowledged mutation
// is crash-safe under the -fsync policy, reopening the directory
// recovers it, and -checkpoint-interval bounds replay time by rotating
// the log in the background. The listener binds before recovery starts
// so orchestrators see the process (/healthz 200) while /readyz serves
// 503 until replay completes.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	dataPath := fs.String("data", "", "raw float64 dump to build and serve (alternative to -load)")
	loadPath := fs.String("load", "", "serialized index file to serve")
	dataDir := fs.String("data-dir", "", "WAL-backed state directory: reopen existing state, or bootstrap it from -data/-load")
	checkpointInterval := fs.Duration("checkpoint-interval", 0, "background WAL checkpoint cadence with -data-dir (0 = never)")
	fsyncPolicy := fs.String("fsync", "always", "WAL sync policy with -data-dir: always, everyN=<n> or interval=<duration>")
	shards := fs.Int("shards", 0, "shard count when building from -data (0 or 1 = single shard)")
	seed := fs.Int64("seed", 1, "build seed when building from -data")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "how long in-flight requests get to finish after a shutdown signal")
	savePath := fs.String("save", "", "write a final index checkpoint here during shutdown")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this separate listen address (empty = no debug listener)")
	fs.Parse(args)

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *dataPath != "" && *loadPath != "" {
		return fmt.Errorf("serve takes -data or -load, not both")
	}
	policy, err := parseSyncPolicy(*fsyncPolicy)
	if err != nil {
		return err
	}
	if *debugAddr != "" {
		dbg, err := serveDebug(log, *debugAddr)
		if err != nil {
			return err
		}
		defer dbg.Close()
	}
	if *dataDir != "" {
		return serveDurable(log, *dataDir, policy, *checkpointInterval,
			*addr, *dataPath, *loadPath, *shards, *seed, *drainTimeout, *savePath)
	}

	eng, err := buildOrLoadEngine(log, *dataPath, *loadPath, *shards, *seed)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{Engine: eng, Logger: log})
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Info("serving", "addr", *addr)

	return serveUntilSignal(log, srv, hs, sigCh, errCh, *drainTimeout, *savePath, nil)
}

// serveUntilSignal is the one shutdown sequence of both serving paths.
// It waits for a listener failure (returned as is, without a drain) or
// a shutdown signal, then drains: readiness starts failing, in-flight
// requests get drainTimeout to finish, the server's background work
// stops, closeState (the durable path's WAL tail; nil otherwise) runs,
// and with savePath set the final state is checkpointed there.
func serveUntilSignal(log *slog.Logger, srv *server.Server, hs *http.Server,
	sigCh <-chan os.Signal, errCh <-chan error,
	drainTimeout time.Duration, savePath string, closeState func()) error {
	select {
	case err := <-errCh:
		// The listener only returns early on a bind/accept failure.
		srv.Close()
		return err
	case sig := <-sigCh:
		log.Info("shutdown signal, draining", "signal", sig.String(), "timeout", drainTimeout.String())
	}
	srv.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Error("drain did not finish cleanly", "err", err.Error())
	}
	srv.Close()
	if closeState != nil {
		closeState()
	}
	if savePath != "" {
		if err := srv.Checkpoint(savePath); err != nil {
			return err
		}
	}
	log.Info("shutdown complete")
	return nil
}

// serveDebug serves net/http/pprof on a listener of its own — never on
// the API mux, so profiles are reachable only where the operator bound
// them. It binds before the index is built, loaded or recovered, so a
// slow start can be profiled too; the caller closes it on return.
func serveDebug(log *slog.Logger, addr string) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: debug listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	hs := &http.Server{Handler: mux}
	go hs.Serve(ln)
	log.Info("debug listener (net/http/pprof)", "addr", ln.Addr().String())
	return hs, nil
}

// buildOrLoadEngine resolves the non-durable index source flags.
// Failures surface before any listener binds, so a bad -load path
// exits non-zero without ever looking healthy to an orchestrator.
func buildOrLoadEngine(log *slog.Logger, dataPath, loadPath string, shards int, seed int64) (*core.Engine, error) {
	switch {
	case dataPath != "":
		data, err := dataset.ReadDump(dataPath)
		if err != nil {
			return nil, fmt.Errorf("serve: read dataset %s: %w", dataPath, err)
		}
		start := time.Now()
		eng, err := core.BuildEngine(data, core.Config{Seed: seed, Shards: shards})
		if err != nil {
			return nil, err
		}
		log.Info("index built", "points", eng.Len(), "shards", shards, "gomaxprocs", runtime.GOMAXPROCS(0),
			"elapsed", time.Since(start).Round(time.Millisecond).String())
		return eng, nil
	case loadPath != "":
		f, err := os.Open(loadPath)
		if err != nil {
			return nil, fmt.Errorf("serve: cannot open index %s: %w", loadPath, err)
		}
		eng, err := core.LoadEngine(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("serve: index file %s is unreadable or corrupt: %w", loadPath, err)
		}
		log.Info("index loaded", "path", loadPath, "points", eng.Len())
		return eng, nil
	default:
		return nil, fmt.Errorf("serve requires -data, -load or -data-dir")
	}
}

// parseSyncPolicy maps the -fsync flag onto a wal.SyncPolicy:
// "always" syncs every append, "everyN=8" groups up to 8 appends per
// fsync, "interval=50ms" syncs on a timer.
func parseSyncPolicy(s string) (wal.SyncPolicy, error) {
	switch {
	case s == "" || s == "always":
		return wal.SyncPolicy{}, nil
	case strings.HasPrefix(s, "everyN="):
		n, err := strconv.Atoi(s[len("everyN="):])
		if err != nil || n < 1 {
			return wal.SyncPolicy{}, fmt.Errorf("-fsync everyN wants a positive integer, got %q", s)
		}
		return wal.SyncPolicy{EveryN: n}, nil
	case strings.HasPrefix(s, "interval="):
		d, err := time.ParseDuration(s[len("interval="):])
		if err != nil || d <= 0 {
			return wal.SyncPolicy{}, fmt.Errorf("-fsync interval wants a positive duration, got %q", s)
		}
		return wal.SyncPolicy{Interval: d}, nil
	default:
		return wal.SyncPolicy{}, fmt.Errorf("-fsync must be always, everyN=<n> or interval=<duration>, got %q", s)
	}
}

// openOrBootstrapDurable recovers the state directory, or — when it is
// empty — bootstraps it from -data/-load and attaches the WAL.
func openOrBootstrapDurable(log *slog.Logger, dir string, policy wal.SyncPolicy,
	dataPath, loadPath string, shards int, seed int64) (*core.Engine, error) {
	dfs := wal.DirFS(dir)
	start := time.Now()
	eng, err := core.OpenDurable(dfs, policy)
	if err == nil {
		st, _ := eng.DurabilityStats()
		log.Info("state recovered", "dir", dir, "points", eng.Len(),
			"replay_segments", st.ReplaySegments, "replay_records", st.ReplayRecords,
			"torn_bytes", st.ReplayTornBytes,
			"elapsed", time.Since(start).Round(time.Millisecond).String())
		return eng, nil
	}
	if !errors.Is(err, core.ErrNoState) {
		return nil, fmt.Errorf("serve: recover %s: %w", dir, err)
	}
	if dataPath == "" && loadPath == "" {
		return nil, fmt.Errorf("serve: %s holds no durable state; bootstrap it with -data or -load", dir)
	}
	eng, err = buildOrLoadEngine(log, dataPath, loadPath, shards, seed)
	if err != nil {
		return nil, err
	}
	if err := eng.EnableDurability(dfs, policy); err != nil {
		return nil, err
	}
	log.Info("state directory bootstrapped", "dir", dir, "points", eng.Len())
	return eng, nil
}

// serveDurable is the -data-dir serving path. The listener binds
// before recovery: /healthz answers 200 immediately (the process is
// up) while /readyz and the API serve 503 until replay completes, at
// which point the real handler is swapped in atomically.
func serveDurable(log *slog.Logger, dir string, policy wal.SyncPolicy, checkpointInterval time.Duration,
	addr, dataPath, loadPath string, shards int, seed int64,
	drainTimeout time.Duration, savePath string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	boot := http.NewServeMux()
	boot.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	boot.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "recovering")
	})
	var root atomic.Pointer[http.Handler]
	var bootHandler http.Handler = boot
	root.Store(&bootHandler)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*root.Load()).ServeHTTP(w, r)
	})}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	log.Info("listening, recovery in progress", "addr", addr, "dir", dir)

	eng, err := openOrBootstrapDurable(log, dir, policy, dataPath, loadPath, shards, seed)
	if err != nil {
		hs.Close()
		return err
	}
	srv, err := server.New(server.Config{
		Engine:             eng,
		Logger:             log,
		CheckpointInterval: checkpointInterval,
	})
	if err != nil {
		hs.Close()
		return err
	}
	h := srv.Handler()
	root.Store(&h)
	log.Info("serving", "addr", addr, "points", eng.Len())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	return serveUntilSignal(log, srv, hs, sigCh, errCh, drainTimeout, savePath, func() {
		// A final checkpoint makes the next open instant (no replay); the
		// close after it leaves a cleanly-synced empty segment either way.
		if err := eng.CheckpointDurable(); err != nil {
			log.Error("final checkpoint failed", "err", err.Error())
		}
		if err := eng.CloseDurable(); err != nil {
			log.Error("closing WAL failed", "err", err.Error())
		}
	})
}
