package server

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// newDurableTestServer builds a WAL-backed engine in a temp state
// directory behind an httptest server.
func newDurableTestServer(t *testing.T, interval time.Duration) (*Server, *httptest.Server, *core.Engine, string) {
	t.Helper()
	dir := t.TempDir()
	eng, err := core.BuildEngine(testData(200, 6, 7), core.Config{Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.EnableDurability(wal.DirFS(dir), wal.SyncPolicy{}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Engine: eng, Logger: testLogger(), CheckpointInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, eng, dir
}

func TestDurableMutationsSurviveReopen(t *testing.T) {
	s, ts, eng, dir := newDurableTestServer(t, 0)
	code, resp := post(t, ts, "/v1/insert", fmt.Sprintf(`{"p":%s}`, vecJSON(make([]float64, 6))))
	if code != 200 {
		t.Fatalf("insert: %d %v", code, resp)
	}
	id := int32(resp["id"].(float64))
	if code, resp := post(t, ts, "/v1/delete", `{"id":0}`); code != 200 {
		t.Fatalf("delete: %d %v", code, resp)
	}
	s.Close()
	ts.Close()
	if err := eng.CloseDurable(); err != nil {
		t.Fatal(err)
	}

	e2, err := core.OpenDurable(wal.DirFS(dir), wal.SyncPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.CloseDurable()
	if !e2.IsLive(id) {
		t.Fatalf("inserted id %d not live after reopen", id)
	}
	if e2.IsLive(0) {
		t.Fatal("deleted id 0 resurrected after reopen")
	}
}

func TestMetricsExposeWALCounters(t *testing.T) {
	_, ts, _, _ := newDurableTestServer(t, 0)
	post(t, ts, "/v1/insert", fmt.Sprintf(`{"p":%s}`, vecJSON(make([]float64, 6))))
	code, body := get(t, ts, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	for _, metric := range []string{
		"pmlsh_wal_appends_total 1",
		"pmlsh_wal_synced_total 1",
		"pmlsh_wal_active_segment 2",
		"pmlsh_wal_checkpoints_total 0",
		"pmlsh_wal_replay_records 0",
	} {
		if !containsLine(string(body), metric) {
			t.Errorf("metrics missing %q", metric)
		}
	}
}

func TestBackgroundCheckpointLoopRotatesWAL(t *testing.T) {
	s, ts, eng, _ := newDurableTestServer(t, 5*time.Millisecond)
	post(t, ts, "/v1/insert", fmt.Sprintf(`{"p":%s}`, vecJSON(make([]float64, 6))))
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, ok := eng.DurabilityStats()
		if !ok {
			t.Fatal("engine lost durability")
		}
		if st.Checkpoints >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no background checkpoint after 5s: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close()
	s.Close() // idempotent
	st, _ := eng.DurabilityStats()
	if st.ActiveSegment < 3 {
		t.Fatalf("checkpoint did not rotate the WAL: %+v", st)
	}
}

// containsLine reports whether text has a line starting with prefix —
// exact-value metric assertions without regexp.
func containsLine(text, prefix string) bool {
	for start := 0; start < len(text); {
		end := start
		for end < len(text) && text[end] != '\n' {
			end++
		}
		line := text[start:end]
		if len(line) >= len(prefix) && line[:len(prefix)] == prefix {
			return true
		}
		start = end + 1
	}
	return false
}

// hugeVec is the valid-JSON body no index can hold: finite floats whose
// norm and projection overflow.
func hugeVec(dim int) string {
	p := make([]float64, dim)
	for i := range p {
		p[i] = 1e308
		if i%2 == 1 {
			p[i] = -1e308
		}
	}
	return vecJSON(p)
}

// TestHugeFloatRequestsAnswer400 pins two requests that used to take a
// shard down: the insert panicked inside the tree (500) and left the
// shard with an orphan row, so every later insert to that shard
// answered 500 too; the search never left its radius loop
// and held a core until the request timed out. Both are the client's
// error: 400, at once, with the shard writable afterwards. On the
// durable server the rejected point also stays out of the log, so the
// state directory reopens with the acknowledged inserts around it.
func TestHugeFloatRequestsAnswer400(t *testing.T) {
	s, ts, eng, dir := newDurableTestServer(t, 0)
	ok := fmt.Sprintf(`{"p":%s}`, vecJSON(make([]float64, 6)))
	var ids []int32
	for round := 0; round < 2; round++ { // once per shard of the round-robin
		if code, resp := post(t, ts, "/v1/insert", `{"p":`+hugeVec(6)+`}`); code != 400 {
			t.Fatalf("huge insert: %d %v, want 400", code, resp)
		}
		code, resp := post(t, ts, "/v1/insert", ok)
		if code != 200 {
			t.Fatalf("ordinary insert after the rejected one: %d %v", code, resp)
		}
		ids = append(ids, int32(resp["id"].(float64)))
	}
	if ids[0] != 200 || ids[1] != 201 {
		t.Fatalf("acknowledged ids %v, want [200 201]", ids)
	}
	start := time.Now()
	for _, req := range []struct{ path, body string }{
		{"/v1/search", `{"q":` + hugeVec(6) + `,"k":3}`},
		{"/v1/search/batch", `{"qs":[` + hugeVec(6) + `],"k":3}`},
		{"/v1/ball", `{"q":` + hugeVec(6) + `,"r":1}`},
	} {
		code, resp := post(t, ts, req.path, req.body)
		if msg, _ := resp["error"].(string); code != 400 || !strings.Contains(msg, "norm beyond float64") {
			t.Fatalf("huge query to %s: %d %v, want 400 naming the norm", req.path, code, resp)
		}
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("rejecting three huge queries took %v", took)
	}

	s.Close()
	ts.Close()
	if err := eng.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	e2, err := core.OpenDurable(wal.DirFS(dir), wal.SyncPolicy{})
	if err != nil {
		t.Fatalf("reopening after rejected inserts: %v", err)
	}
	defer e2.CloseDurable()
	if !e2.IsLive(200) || !e2.IsLive(201) || e2.Len() != 202 {
		t.Fatalf("recovered engine: %d ids, 200 live %v, 201 live %v", e2.Len(), e2.IsLive(200), e2.IsLive(201))
	}
}

// TestWALFaultAnswers503 pins whose fault a failed log append is: with
// the next write to the state directory failing, insert, delete and
// compact answer 503 — not the 400 of a bad request — and keep doing so
// on the retry (the writer is poisoned); a malformed or wrong-dimension
// point is still the caller's 400 meanwhile; nothing the log refused was
// applied; and once a checkpoint has rotated the log the same insert is
// a 200.
func TestWALFaultAnswers503(t *testing.T) {
	point := fmt.Sprintf(`{"p":%s}`, vecJSON(make([]float64, 6)))
	for _, req := range []struct{ path, body string }{
		{"/v1/insert", point},
		{"/v1/delete", `{"id":7}`},
		{"/v1/compact", ``},
	} {
		t.Run(req.path, func(t *testing.T) {
			eng, err := core.BuildEngine(testData(200, 6, 7), core.Config{Shards: 2, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			inj := wal.NewInjector()
			if err := eng.EnableDurability(inj, wal.SyncPolicy{}); err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{Engine: eng, Logger: testLogger()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)

			before := eng.Info()
			inj.SetFailpoint(1, wal.FailErr)
			for try := 0; try < 2; try++ {
				code, resp := post(t, ts, req.path, req.body)
				if msg, _ := resp["error"].(string); code != 503 || !strings.Contains(msg, "durable write failed") {
					t.Fatalf("try %d with the log failing: %d %v, want 503 naming the durable write", try, code, resp)
				}
			}
			if !inj.Tripped() {
				t.Fatal("the failpoint never fired")
			}
			if after := eng.Info(); after.IDs != before.IDs || after.Live != before.Live || after.Compactions != before.Compactions {
				t.Fatalf("a refused mutation was applied: %+v, was %+v", after, before)
			}
			// Validation still comes first and is still the caller's.
			for _, bad := range []string{`{"p":[1,2,3]}`, `{"p":"x"}`, `{"p":` + hugeVec(6) + `}`} {
				if code, resp := post(t, ts, "/v1/insert", bad); code != 400 {
					t.Fatalf("insert %s with the log poisoned: %d %v, want 400", bad, code, resp)
				}
			}
			if code, resp := post(t, ts, "/v1/delete", `{"id":100000}`); code != 400 {
				t.Fatalf("delete of an unknown id with the log poisoned: %d %v, want 400", code, resp)
			}
			// The fault clears (the injector's only way to say so is Crash,
			// which also leaves the open segment's handle stale): a sound
			// insert now either goes through or meets the same 503 — never 400.
			inj.Crash()
			if code, resp := post(t, ts, "/v1/insert", point); code != 200 && code != 503 {
				t.Fatalf("sound insert after the fault: %d %v, want 200 or 503", code, resp)
			}
			if err := eng.CheckpointDurable(); err != nil {
				t.Fatal(err)
			}
			if code, resp := post(t, ts, "/v1/insert", point); code != 200 {
				t.Fatalf("sound insert after the checkpoint rotated the log: %d %v", code, resp)
			}
			code, body := get(t, ts, "/metrics")
			if code != 200 || !strings.Contains(string(body), `code="503"`) {
				t.Fatalf("/metrics (%d) does not count the 503s", code)
			}
		})
	}
}
