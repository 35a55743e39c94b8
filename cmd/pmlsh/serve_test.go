package main

import (
	"encoding/binary"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
)

// A bad -load must fail fast — clear error, non-zero exit, and no
// listener bound (an orchestrator must never see the process healthy).
func TestServeLoadMissingFileFailsBeforeBind(t *testing.T) {
	err := runServe([]string{"-load", filepath.Join(t.TempDir(), "nope.pmlsh"), "-addr", "127.0.0.1:0"})
	if err == nil {
		t.Fatal("serve with a missing -load file did not fail")
	}
	if !strings.Contains(err.Error(), "nope.pmlsh") {
		t.Fatalf("error does not name the file: %v", err)
	}
}

func TestServeLoadCorruptFileFailsBeforeBind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.pmlsh")
	if err := os.WriteFile(path, []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runServe([]string{"-load", path, "-addr", "127.0.0.1:0"})
	if err == nil {
		t.Fatal("serve with a corrupt -load file did not fail")
	}
	if !strings.Contains(err.Error(), "bad.pmlsh") || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("error is not diagnosable: %v", err)
	}
}

func TestServeEmptyDataDirWithoutBootstrapFails(t *testing.T) {
	err := runServe([]string{"-data-dir", t.TempDir(), "-addr", "127.0.0.1:0"})
	if err == nil {
		t.Fatal("serve with an empty -data-dir and no -data/-load did not fail")
	}
	if !strings.Contains(err.Error(), "-data") {
		t.Fatalf("error does not point at the bootstrap flags: %v", err)
	}
}

// -debug-addr puts net/http/pprof on a listener of its own: the
// profile index answers there and is a 404 on the API address.
func TestServeDebugAddrServesPprofApart(t *testing.T) {
	const n, d = 64, 4
	raw := []int64{n, d}
	flat := make([]float64, n*d)
	for i := range flat {
		flat[i] = float64(i % 17)
	}
	path := filepath.Join(t.TempDir(), "dump.f64")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := binary.Write(f, binary.LittleEndian, raw); err != nil {
		t.Fatal(err)
	}
	if err := binary.Write(f, binary.LittleEndian, flat); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	api, debug := freeAddr(t), freeAddr(t)
	done := make(chan error, 1)
	go func() { done <- runServe([]string{"-data", path, "-addr", api, "-debug-addr", debug}) }()

	get := func(addr string) int {
		resp, err := http.Get("http://" + addr + "/debug/pprof/")
		if err != nil {
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// The API listener binds last, after the signal handler is installed.
	for end := time.Now().Add(10 * time.Second); get(api) == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatal("serve never answered on its API address")
		}
	}
	if got := get(debug); got != http.StatusOK {
		t.Errorf("GET /debug/pprof/ on -debug-addr: %d, want 200", got)
	}
	if got := get(api); got != http.StatusNotFound {
		t.Errorf("GET /debug/pprof/ on -addr: %d, want 404", got)
	}

	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("serve did not shut down on SIGINT")
	}
	if got := get(debug); got != 0 {
		t.Errorf("the debug listener still answers (%d) after serve returned", got)
	}
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want wal.SyncPolicy
		bad  bool
	}{
		{in: "", want: wal.SyncPolicy{}},
		{in: "always", want: wal.SyncPolicy{}},
		{in: "everyN=8", want: wal.SyncPolicy{EveryN: 8}},
		{in: "interval=50ms", want: wal.SyncPolicy{Interval: 50 * time.Millisecond}},
		{in: "everyN=0", bad: true},
		{in: "everyN=x", bad: true},
		{in: "interval=-1s", bad: true},
		{in: "sometimes", bad: true},
	}
	for _, tc := range cases {
		got, err := parseSyncPolicy(tc.in)
		if tc.bad {
			if err == nil {
				t.Errorf("parseSyncPolicy(%q) accepted", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseSyncPolicy(%q): %v", tc.in, err)
		} else if got != tc.want {
			t.Errorf("parseSyncPolicy(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}
