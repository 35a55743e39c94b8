// Package server puts the sharded PM-LSH engine behind an HTTP/JSON
// network API with production observability. It exposes the request
// API — search, batch search, closest pairs, ball cover, with
// per-request ratio/α1/budget/timeout — plus the mutation surface
// (insert, delete, compact), an index-info snapshot, liveness and
// readiness probes, and a Prometheus-text /metrics endpoint fed by
// middleware that also emits structured request logs. Everything is
// net/http + encoding/json from the standard library: no dependencies.
//
// # Endpoints
//
//	POST /v1/search        one (c,k)-ANN query
//	POST /v1/search/batch  many queries under one snapshot
//	POST /v1/pairs         (c,k)-closest-pair query
//	POST /v1/ball          (r,c)-ball-cover query
//	POST /v1/insert        add one point
//	POST /v1/delete        delete one id
//	POST /v1/compact       rebuild over live points
//	GET  /v1/info          consistent index snapshot
//	GET  /healthz          liveness (process up)
//	GET  /readyz           readiness (index loaded, not draining)
//	GET  /metrics          Prometheus text format
//
// # Status codes
//
// Malformed or invalid requests (bad JSON, unknown fields, wrong
// dimension, k < 1, ratio in (0,1], unknown id) are 400; oversized
// bodies are 413; a request whose own deadline (timeout_ms) expires is
// 504 with the context error surfaced; a client that disconnects
// mid-request is logged as 499. On a durable engine a mutation whose
// record the write-ahead log cannot take — disk full, I/O error, a log
// poisoned by an earlier one — is 503 (core.ErrDurability): the request
// was sound and may be retried once a checkpoint has rotated the log.
// The query paths perform no I/O and do not return 5xx; a 500 can only
// come from a handler panic, which the middleware recovers, logs and
// counts.
package server

import (
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Config configures a Server.
type Config struct {
	// Engine is the index to serve. Required.
	Engine *core.Engine
	// Logger receives structured request and lifecycle logs (nil = a
	// text logger on stderr).
	Logger *slog.Logger
	// Registry receives the serving metrics (nil = a fresh registry,
	// exposed on /metrics either way).
	Registry *obs.Registry
	// MaxBodyBytes caps request body size; larger bodies get 413
	// (0 = 8 MiB).
	MaxBodyBytes int64
	// CheckpointInterval, on a durable (WAL-backed) engine, starts a
	// background loop that periodically calls CheckpointDurable —
	// rotating the log and bounding both replay time and disk usage.
	// 0 disables the loop; it is ignored for non-durable engines.
	// Stop it with Close.
	CheckpointInterval time.Duration
}

// Server is the HTTP serving layer over one engine. Create with New,
// mount Handler on an http.Server, and on shutdown call StartDrain
// before http.Server.Shutdown so readiness probes fail while in-flight
// requests finish.
type Server struct {
	eng     *core.Engine
	log     *slog.Logger
	reg     *obs.Registry
	httpm   *obs.HTTPMetrics
	maxBody int64
	mux     *http.ServeMux

	draining atomic.Bool

	// Background checkpoint loop lifecycle (durable engines only).
	closeOnce sync.Once
	ckptStop  chan struct{}
	ckptDone  chan struct{}
	ckptErrs  *obs.Counter

	// Query-work histogram, fed by the search handlers: projected
	// distance computations per query.
	pdcHist *obs.Histogram
}

// New assembles a server over cfg.Engine and registers its metrics.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("server: Config.Engine is required")
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody == 0 {
		maxBody = 8 << 20
	}
	s := &Server{
		eng:     cfg.Engine,
		log:     log,
		reg:     reg,
		httpm:   obs.NewHTTPMetrics(reg, "pmlsh", log),
		maxBody: maxBody,
	}
	s.pdcHist = reg.Histogram("pmlsh_query_projected_dist_comps",
		"Projected-space distance computations per query.",
		obs.ExpBuckets(16, 2, 16))
	reg.GaugeFunc("pmlsh_index_live_points",
		"Live (not deleted) points in the index.",
		func() float64 { return float64(s.eng.Info().Live) })
	reg.GaugeFunc("pmlsh_index_dead_rows",
		"Storage rows whose point was deleted, awaiting compaction.",
		func() float64 { return float64(s.eng.Info().Dead) })
	reg.GaugeFunc("pmlsh_index_shards",
		"Shard count of the serving engine.",
		func() float64 { return float64(s.eng.Info().Shards) })
	reg.GaugeFunc("pmlsh_compactions_total",
		"Compact operations (explicit and automatic) since the engine was opened.",
		func() float64 { return float64(s.eng.Info().Compactions) })
	compactHist := reg.Histogram("pmlsh_compact_duration_seconds",
		"Duration of each shard compaction, explicit or automatic: a repack, then projection beside the F(x) sample on GOMAXPROCS goroutines, holding that shard's writer mutex throughout — its other mutations wait, its queries do not. The PM-tree is bulk loaded later, by the first query that reads its structure (a ball or pair query), not here nor by a checkpoint.",
		obs.ExpBuckets(0.001, 2, 14))
	s.eng.OnCompact(func(d time.Duration) { compactHist.Observe(d.Seconds()) })
	reg.GaugeFuncVec("pmlsh_index_dead_fraction",
		"Share of a shard's stored rows whose point was deleted (0 after build or compaction; no insert refills a dead row, and the shard compacts itself when the share reaches the auto-compact fraction).",
		"shard", func() []float64 { return s.eng.Info().DeadFraction })
	reg.GaugeFuncVec("pmlsh_index_tail_fraction",
		"Share of a shard's PM-tree rows inserted since its last build or compaction (0 right after either; the shard compacts itself when it reaches the auto-compact fraction). Prices only small-radius queries: a k-NN search scans the projected rows and does not visit the leaves.",
		"shard", func() []float64 { return s.eng.Info().TailFraction })
	reg.GaugeVec("pmlsh_index_metric",
		"Distance metric of the serving engine (1 on the active label).",
		"metric").With(s.eng.Metric().String()).Set(1)
	if s.eng.Durable() {
		s.registerWALMetrics(reg)
		if cfg.CheckpointInterval > 0 {
			s.ckptStop = make(chan struct{})
			s.ckptDone = make(chan struct{})
			s.ckptErrs = reg.Counter("pmlsh_wal_checkpoint_failures_total",
				"Background WAL checkpoints that returned an error.")
			go s.checkpointLoop(cfg.CheckpointInterval)
		}
	}

	s.mux = http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		s.mux.Handle(pattern, s.httpm.Wrap(route, h))
	}
	handle("POST /v1/search", "/v1/search", s.handleSearch)
	handle("POST /v1/search/batch", "/v1/search/batch", s.handleSearchBatch)
	handle("POST /v1/pairs", "/v1/pairs", s.handlePairs)
	handle("POST /v1/ball", "/v1/ball", s.handleBall)
	handle("POST /v1/insert", "/v1/insert", s.handleInsert)
	handle("POST /v1/delete", "/v1/delete", s.handleDelete)
	handle("POST /v1/compact", "/v1/compact", s.handleCompact)
	handle("GET /v1/info", "/v1/info", s.handleInfo)
	handle("GET /healthz", "/healthz", s.handleHealthz)
	handle("GET /readyz", "/readyz", s.handleReadyz)
	s.mux.Handle("GET /metrics", s.httpm.Wrap("/metrics", s.reg.Handler()))
	return s, nil
}

// Handler returns the fully instrumented route mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the metrics registry the server reports into.
func (s *Server) Registry() *obs.Registry { return s.reg }

// StartDrain flips the server into draining mode: /readyz starts
// failing with 503 so load balancers stop routing here, while every
// other endpoint keeps serving so in-flight (and still-arriving)
// requests complete. Call it right before http.Server.Shutdown.
func (s *Server) StartDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.log.Info("drain started: readiness now failing")
	}
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close stops the background checkpoint loop (if one is running) and
// waits for an in-flight checkpoint to finish. Idempotent; it does not
// close the engine or its WAL.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.ckptStop != nil {
			close(s.ckptStop)
			<-s.ckptDone
		}
	})
}

// checkpointLoop periodically rotates the WAL via CheckpointDurable.
// Errors are logged and counted but never stop the loop: a transient
// disk condition should not end log rotation for the process lifetime.
func (s *Server) checkpointLoop(interval time.Duration) {
	defer close(s.ckptDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.ckptStop:
			return
		case <-t.C:
		}
		start := time.Now()
		if err := s.eng.CheckpointDurable(); err != nil {
			s.ckptErrs.Inc()
			s.log.Error("background checkpoint failed", "err", err.Error())
			continue
		}
		st, _ := s.eng.DurabilityStats()
		s.log.Info("background checkpoint",
			"segment", st.ActiveSegment,
			"elapsed", time.Since(start).Round(time.Millisecond).String())
	}
}

// registerWALMetrics exposes the durability counters of a WAL-backed
// engine. Scrape-time callbacks read one consistent DurabilityStats
// snapshot per metric; monotone counters are exported as gauges, which
// the text format permits and keeps the hot path allocation-free.
func (s *Server) registerWALMetrics(reg *obs.Registry) {
	stat := func(f func(core.DurabilityStats) float64) func() float64 {
		return func() float64 {
			st, ok := s.eng.DurabilityStats()
			if !ok {
				return 0
			}
			return f(st)
		}
	}
	reg.GaugeFunc("pmlsh_wal_appends_total",
		"Mutation records appended to the write-ahead log.",
		stat(func(st core.DurabilityStats) float64 { return float64(st.Appended) }))
	reg.GaugeFunc("pmlsh_wal_synced_total",
		"Mutation records covered by fsync (the durable-acknowledged prefix).",
		stat(func(st core.DurabilityStats) float64 { return float64(st.Synced) }))
	reg.GaugeFunc("pmlsh_wal_fsyncs_total",
		"fsync calls on the active WAL segment (group commit batches appends).",
		stat(func(st core.DurabilityStats) float64 { return float64(st.Syncs) }))
	reg.GaugeFunc("pmlsh_wal_active_segment",
		"Sequence number of the WAL segment being appended to.",
		stat(func(st core.DurabilityStats) float64 { return float64(st.ActiveSegment) }))
	reg.GaugeFunc("pmlsh_wal_checkpoints_total",
		"Durable checkpoints taken since the engine was opened.",
		stat(func(st core.DurabilityStats) float64 { return float64(st.Checkpoints) }))
	reg.GaugeFunc("pmlsh_wal_replay_segments",
		"Log segments replayed by the recovery that produced this engine.",
		stat(func(st core.DurabilityStats) float64 { return float64(st.ReplaySegments) }))
	reg.GaugeFunc("pmlsh_wal_replay_records",
		"Mutation records replayed by the recovery that produced this engine.",
		stat(func(st core.DurabilityStats) float64 { return float64(st.ReplayRecords) }))
	reg.GaugeFunc("pmlsh_wal_replay_torn_bytes",
		"Torn tail bytes truncated off the final segment during recovery.",
		stat(func(st core.DurabilityStats) float64 { return float64(st.ReplayTornBytes) }))
}

// Checkpoint serializes the engine to path through wal.CreateAtomic —
// a temp file, synced, renamed over path, the directory synced — so a
// crash mid-write never clobbers the previous checkpoint. Like queries,
// it reads published views and does not block mutations.
func (s *Server) Checkpoint(path string) error {
	f, err := wal.CreateAtomic(wal.DirFS(filepath.Dir(path)), filepath.Base(path))
	if err != nil {
		return fmt.Errorf("server: checkpoint: %w", err)
	}
	n, err := s.eng.WriteTo(f)
	if err != nil {
		f.Abort()
	} else {
		err = f.Commit()
	}
	if err != nil {
		return fmt.Errorf("server: checkpoint: %w", err)
	}
	s.log.Info("checkpoint written", "path", path, "bytes", n)
	return nil
}
