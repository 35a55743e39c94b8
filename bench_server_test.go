package pmlsh

// BenchmarkServerSearch measures end-to-end single-query latency
// through the HTTP serving layer (internal/server) — JSON decode,
// engine search, JSON encode, metrics middleware — over a loopback
// connection with keep-alive, next to the in-process benchmarks so the
// serving overhead can be read off one run.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wal"
)

func BenchmarkServerSearch(b *testing.B) {
	w := workload(b)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			eng, err := core.BuildEngine(w.Dataset.Points, core.Config{Seed: 5, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			srv, err := server.New(server.Config{
				Engine: eng,
				Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
			})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			client := ts.Client()

			bodies := make([][]byte, len(w.Queries))
			for i, q := range w.Queries {
				if bodies[i], err = json.Marshal(map[string]any{"q": q, "k": 50}); err != nil {
					b.Fatal(err)
				}
			}
			// Warm the connection so b.N=1 runs do not time a TCP dial.
			if err := postSearch(client, ts.URL, bodies[0]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := postSearch(client, ts.URL, bodies[i%len(bodies)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServerSearchDurable is BenchmarkServerSearch/shards4 with
// write-ahead logging attached (group commit, everyN=8): the search
// path never touches the WAL, so comparing the two lines bounds the
// serving overhead the durability wiring itself adds.
func BenchmarkServerSearchDurable(b *testing.B) {
	w := workload(b)
	eng, err := core.BuildEngine(w.Dataset.Points, core.Config{Seed: 5, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.EnableDurability(wal.DirFS(b.TempDir()), wal.SyncPolicy{EveryN: 8}); err != nil {
		b.Fatal(err)
	}
	defer eng.CloseDurable()
	srv, err := server.New(server.Config{
		Engine: eng,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	bodies := make([][]byte, len(w.Queries))
	for i, q := range w.Queries {
		if bodies[i], err = json.Marshal(map[string]any{"q": q, "k": 50}); err != nil {
			b.Fatal(err)
		}
	}
	if err := postSearch(client, ts.URL, bodies[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := postSearch(client, ts.URL, bodies[i%len(bodies)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerInsertDurable measures the mutation path — where the
// WAL actually sits — through HTTP: in-memory baseline, fsync on every
// append, and group commit (everyN=8), which shows the durability tax
// and how much of it group commit recovers.
func BenchmarkServerInsertDurable(b *testing.B) {
	w := workload(b)
	for _, mode := range []struct {
		name   string
		policy *wal.SyncPolicy
	}{
		{name: "memory", policy: nil},
		{name: "fsyncAlways", policy: &wal.SyncPolicy{}},
		{name: "fsyncEvery8", policy: &wal.SyncPolicy{EveryN: 8}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			eng, err := core.BuildEngine(w.Dataset.Points, core.Config{Seed: 5, Shards: 4})
			if err != nil {
				b.Fatal(err)
			}
			if mode.policy != nil {
				if err := eng.EnableDurability(wal.DirFS(b.TempDir()), *mode.policy); err != nil {
					b.Fatal(err)
				}
				defer eng.CloseDurable()
			}
			srv, err := server.New(server.Config{
				Engine: eng,
				Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
			})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			client := ts.Client()

			bodies := make([][]byte, len(w.Dataset.Points))
			for i, p := range w.Dataset.Points {
				if bodies[i], err = json.Marshal(map[string]any{"p": p}); err != nil {
					b.Fatal(err)
				}
			}
			if err := postJSON(client, ts.URL+"/v1/insert", bodies[0]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := postJSON(client, ts.URL+"/v1/insert", bodies[i%len(bodies)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func postSearch(client *http.Client, baseURL string, body []byte) error {
	return postJSON(client, baseURL+"/v1/search", body)
}

func postJSON(client *http.Client, url string, body []byte) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}
