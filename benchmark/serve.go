package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wal"
)

// walPolicy is the flush policy of every durable engine the benchmark
// builds: group commit, one fsync per eight appends. It is part of the
// workload definition — a run under another policy is another workload.
var walPolicy = wal.SyncPolicy{EveryN: 8}

// endpoint is a handler served on a loopback listener.
type endpoint struct {
	hs   *http.Server
	done chan error // hs.Serve's return value
	base string
}

// listen serves h on 127.0.0.1:0.
func listen(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{hs: &http.Server{Handler: h}, done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { e.done <- e.hs.Serve(ln) }()
	return e, nil
}

// client returns a client with its own connection pool, so that each
// load-generating goroutine holds exactly one connection.
func (e *endpoint) client() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}
}

// stop shuts the listener down and waits for the serve goroutine.
func (e *endpoint) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	<-e.done
	return err
}

// served is a durable engine behind the HTTP server on a loopback
// listener: the serve workload's system under test.
type served struct {
	*endpoint
	eng    *core.Engine
	srv    *server.Server
	walDir string
}

// startServed brings the service up the way `pmlsh serve` does: build,
// attach the WAL (which writes the first checkpoint), listen, and wait
// for /readyz to answer 200. scratch is where the WAL directory goes.
func startServed(points [][]float64, shards int, scratch string) (*served, error) {
	eng, err := core.BuildEngine(points, core.Config{Seed: buildSeed, Shards: shards})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "wal-")
	if err != nil {
		return nil, err
	}
	s := &served{eng: eng, walDir: dir}
	if err := eng.EnableDurability(wal.DirFS(dir), walPolicy); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.srv, err = server.New(server.Config{Engine: eng, Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		s.stop()
		return nil, err
	}
	if s.endpoint, err = listen(s.srv.Handler()); err != nil {
		s.stop()
		return nil, err
	}
	if err := s.waitReady(); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *served) waitReady() error {
	c := s.client()
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after 10s (last error: %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the listener down, closes the WAL and removes its
// directory.
func (s *served) stop() error {
	var first error
	if s.endpoint != nil {
		first = s.endpoint.stop()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if err := s.eng.CloseDurable(); err != nil && first == nil {
		first = err
	}
	if err := os.RemoveAll(s.walDir); err != nil && first == nil {
		first = err
	}
	return first
}
