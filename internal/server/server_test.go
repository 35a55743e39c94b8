package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

func testData(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		out[i] = p
	}
	return out
}

func testLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// newTestServer builds a small sharded engine behind an httptest
// server.
func newTestServer(t *testing.T, shards int, maxBody int64) (*Server, *httptest.Server, [][]float64) {
	t.Helper()
	data := testData(600, 8, 42)
	eng, err := core.BuildEngine(data, core.Config{Shards: shards, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Engine: eng, Logger: testLogger(), MaxBodyBytes: maxBody})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, data
}

// post sends body to path and returns the status code and decoded JSON
// body (nil when the body is not JSON).
func post(t *testing.T, ts *httptest.Server, path, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	_ = json.Unmarshal(raw, &m)
	return resp.StatusCode, m
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func vecJSON(p []float64) string {
	b, _ := json.Marshal(p)
	return string(b)
}

// TestRoutesTableDriven covers every route's happy path and its main
// rejection modes: malformed JSON, wrong dimension, k <= 0, unknown
// fields, and trailing request data.
func TestRoutesTableDriven(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, ts, data := newTestServer(t, shards, 0)
			q := vecJSON(data[7])
			cases := []struct {
				name, path, body string
				wantStatus       int
				wantErrSub       string // substring of the error field, "" = no error expected
			}{
				{"search ok", "/v1/search", `{"q":` + q + `,"k":5}`, 200, ""},
				{"search with options", "/v1/search", `{"q":` + q + `,"k":3,"ratio":2.0,"alpha1":0.3,"budget":400}`, 200, ""},
				{"search malformed json", "/v1/search", `{"q":[1,2`, 400, "unexpected EOF"},
				{"search empty body", "/v1/search", ``, 400, "JSON object"},
				{"search not an object", "/v1/search", `17`, 400, "cannot unmarshal"},
				{"search wrong dim", "/v1/search", `{"q":[1,2,3],"k":5}`, 400, "dimension"},
				{"search k zero", "/v1/search", `{"q":` + q + `,"k":0}`, 400, "k"},
				{"search k negative", "/v1/search", `{"q":` + q + `,"k":-4}`, 400, "k"},
				{"search unknown field", "/v1/search", `{"q":` + q + `,"k":5,"wat":1}`, 400, "unknown field"},
				{"search trailing data", "/v1/search", `{"q":` + q + `,"k":5} {"again":true}`, 400, "trailing data"},
				{"search bad ratio", "/v1/search", `{"q":` + q + `,"k":5,"ratio":0.5}`, 400, "ratio"},
				{"search negative timeout", "/v1/search", `{"q":` + q + `,"k":5,"timeout_ms":-1}`, 400, "timeout_ms"},
				{"search longest timeout", "/v1/search", `{"q":` + q + `,"k":5,"timeout_ms":9223372036854}`, 200, ""},
				{"search timeout overflows", "/v1/search", `{"q":` + q + `,"k":5,"timeout_ms":9223372036855}`, 400, "timeout_ms"},
				{"batch ok", "/v1/search/batch", `{"qs":[` + q + `,` + q + `],"k":4}`, 200, ""},
				{"batch wrong dim", "/v1/search/batch", `{"qs":[[1]],"k":4}`, 400, "dimension"},
				{"batch malformed", "/v1/search/batch", `{"qs":`, 400, "unexpected EOF"},
				{"pairs ok", "/v1/pairs", `{"k":3}`, 200, ""},
				{"pairs parallel", "/v1/pairs", `{"k":3,"parallel":true}`, 400, "unknown field"}, // retired in PR 19
				{"pairs k zero", "/v1/pairs", `{"k":0}`, 400, "k"},
				{"pairs unknown field", "/v1/pairs", `{"k":3,"mode":"x"}`, 400, "unknown field"},
				{"ball ok", "/v1/ball", `{"q":` + q + `,"r":2.5}`, 200, ""},
				{"ball wrong dim", "/v1/ball", `{"q":[9],"r":2.5}`, 400, "dimension"},
				{"insert ok", "/v1/insert", `{"p":` + q + `}`, 200, ""},
				{"insert wrong dim", "/v1/insert", `{"p":[1,2]}`, 400, "dimension"},
				{"insert unknown field", "/v1/insert", `{"p":` + q + `,"id":7}`, 400, "unknown field"},
				{"delete unknown id", "/v1/delete", `{"id":99999}`, 400, "unknown id"},
				{"delete negative id", "/v1/delete", `{"id":-3}`, 400, "unknown id"},
				{"delete malformed", "/v1/delete", `{"id":"seven"}`, 400, "cannot unmarshal"},
				{"compact ok", "/v1/compact", ``, 200, ""},
				{"compact with empty object", "/v1/compact", `{}`, 200, ""},
				{"compact with args", "/v1/compact", `{"force":true}`, 400, "unknown field"},
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					status, body := post(t, ts, tc.path, tc.body)
					if status != tc.wantStatus {
						t.Fatalf("status = %d, want %d (body %v)", status, tc.wantStatus, body)
					}
					if tc.wantErrSub != "" {
						msg, _ := body["error"].(string)
						if !strings.Contains(msg, tc.wantErrSub) {
							t.Fatalf("error %q does not mention %q", msg, tc.wantErrSub)
						}
					} else if _, hasErr := body["error"]; hasErr {
						t.Fatalf("unexpected error field: %v", body)
					}
				})
			}
		})
	}
}

// TestSearchAnswersMatchEngine pins the HTTP layer to the in-process
// engine: same ids, same distances (to JSON float round-trip, which is
// exact for float64), same stats.
func TestSearchAnswersMatchEngine(t *testing.T) {
	s, ts, data := newTestServer(t, 2, 0)
	q := data[11]
	var wantStats core.QueryStats
	want, err := s.eng.Search(t.Context(), q, 7, core.SearchOptions{Stats: &wantStats})
	if err != nil {
		t.Fatal(err)
	}
	status, body := post(t, ts, "/v1/search", `{"q":`+vecJSON(q)+`,"k":7}`)
	if status != 200 {
		t.Fatalf("status %d: %v", status, body)
	}
	results := body["results"].([]any)
	if len(results) != len(want) {
		t.Fatalf("%d results, want %d", len(results), len(want))
	}
	for i, rr := range results {
		m := rr.(map[string]any)
		if int32(m["id"].(float64)) != want[i].ID || m["dist"].(float64) != want[i].Dist {
			t.Fatalf("result %d = %v, want %+v", i, m, want[i])
		}
	}
	st := body["stats"].(map[string]any)
	if int(st["verified"].(float64)) != wantStats.Verified ||
		int64(st["projected_dist_comps"].(float64)) != wantStats.ProjectedDistComps {
		t.Fatalf("stats %v, want %+v", st, wantStats)
	}
}

// TestOversizedKAnswers: k is any positive integer JSON can carry. A
// k far above the index's size answers with everything there is — 200,
// never an allocation sized by the request — and the server goes on
// answering.
func TestOversizedKAnswers(t *testing.T) {
	for _, shards := range []int{1, 3} {
		_, ts, data := newTestServer(t, shards, 0)
		q := vecJSON(data[5])
		status, body := post(t, ts, "/v1/search", `{"q":`+q+`,"k":1099511627776}`)
		if status != 200 {
			t.Fatalf("shards=%d: search status %d: %v", shards, status, body)
		}
		if got := len(body["results"].([]any)); got == 0 || got > len(data) {
			t.Fatalf("shards=%d: %d results from %d points", shards, got, len(data))
		}
		status, body = post(t, ts, "/v1/search/batch", `{"qs":[`+q+`],"k":9223372036854775807}`)
		if status != 200 {
			t.Fatalf("shards=%d: batch status %d: %v", shards, status, body)
		}
		if status, body = post(t, ts, "/v1/search", `{"q":`+q+`,"k":3}`); status != 200 || len(body["results"].([]any)) != 3 {
			t.Fatalf("shards=%d: follow-up search status %d: %v", shards, status, body)
		}
	}
}

// TestInsertDeleteRoundTrip exercises the mutation surface end to end:
// insert → searchable, delete → gone, info reflects both.
func TestInsertDeleteRoundTrip(t *testing.T) {
	_, ts, data := newTestServer(t, 2, 0)
	p := append([]float64(nil), data[0]...)
	p[0] += 0.001
	status, body := post(t, ts, "/v1/insert", `{"p":`+vecJSON(p)+`}`)
	if status != 200 {
		t.Fatalf("insert: %d %v", status, body)
	}
	id := int32(body["id"].(float64))

	status, body = post(t, ts, "/v1/search", `{"q":`+vecJSON(p)+`,"k":1}`)
	if status != 200 {
		t.Fatalf("search: %d %v", status, body)
	}
	got := body["results"].([]any)[0].(map[string]any)
	if int32(got["id"].(float64)) != id {
		t.Fatalf("nearest to inserted point = %v, want id %d", got, id)
	}

	if status, body = post(t, ts, "/v1/delete", `{"id":`+fmt.Sprint(id)+`}`); status != 200 {
		t.Fatalf("delete: %d %v", status, body)
	}
	// Deleting again is a 400: the id is retired.
	if status, _ = post(t, ts, "/v1/delete", `{"id":`+fmt.Sprint(id)+`}`); status != 400 {
		t.Fatalf("double delete: %d, want 400", status)
	}
	status, body = post(t, ts, "/v1/search", `{"q":`+vecJSON(p)+`,"k":1}`)
	if status != 200 {
		t.Fatal("search after delete failed")
	}
	got = body["results"].([]any)[0].(map[string]any)
	if int32(got["id"].(float64)) == id {
		t.Fatalf("deleted id %d still returned", id)
	}

	status, raw := get(t, ts, "/v1/info")
	if status != 200 {
		t.Fatalf("info: %d", status)
	}
	var info infoResponse
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.IDs != len(data)+1 || info.Live != len(data) || info.Dim != 8 || info.Shards != 2 {
		t.Fatalf("info = %+v", info)
	}
}

// TestTailFractionObservable pins the distance-to-auto-compaction
// signals end to end: /v1/info and the per-shard /metrics gauges agree
// on the tail share and the dead share, both start at 0, the one rises
// as inserts land in each shard's tail and the other as deletes
// tombstone rows (which no insert refills), both return to 0 on
// compaction, and each shard's compaction is timed into the
// pmlsh_compact_duration_seconds histogram.
func TestTailFractionObservable(t *testing.T) {
	_, ts, data := newTestServer(t, 2, 0)
	observe := func(compactions float64) (tail, dead []float64) {
		t.Helper()
		status, raw := get(t, ts, "/v1/info")
		if status != 200 {
			t.Fatalf("info: %d", status)
		}
		var info infoResponse
		if err := json.Unmarshal(raw, &info); err != nil {
			t.Fatal(err)
		}
		if len(info.TailFraction) != 2 || len(info.DeadFraction) != 2 {
			t.Fatalf("info reports %d tail and %d dead fractions for 2 shards", len(info.TailFraction), len(info.DeadFraction))
		}
		_, raw = get(t, ts, "/metrics")
		samples, err := obs.ParseText(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		for shard := range info.TailFraction {
			for name, f := range map[string]float64{
				"pmlsh_index_tail_fraction": info.TailFraction[shard],
				"pmlsh_index_dead_fraction": info.DeadFraction[shard],
			} {
				series := fmt.Sprintf(`%s{shard="%d"}`, name, shard)
				if got, ok := samples[series]; !ok || got != f {
					t.Fatalf("%s = %v (present %v), /v1/info says %v", series, got, ok, f)
				}
			}
		}
		if got := samples["pmlsh_compact_duration_seconds_count"]; got != compactions {
			t.Fatalf("pmlsh_compact_duration_seconds_count = %v, want %v", got, compactions)
		}
		return info.TailFraction, info.DeadFraction
	}
	tail, dead := observe(0)
	for shard := range tail {
		if tail[shard] != 0 || dead[shard] != 0 {
			t.Fatalf("fresh shard %d: tail fraction %v, dead fraction %v, want 0", shard, tail[shard], dead[shard])
		}
	}
	for i, p := range data[:20] {
		if status, _ := post(t, ts, "/v1/insert", `{"p":`+vecJSON(p)+`}`); status != 200 {
			t.Fatal("insert failed")
		}
		if i < 8 { // ids 0…7: four rows of each shard
			if status, _ := post(t, ts, "/v1/delete", fmt.Sprintf(`{"id":%d}`, i)); status != 200 {
				t.Fatal("delete failed")
			}
		}
	}
	// Round-robin: ten of the twenty inserts went to each shard, each into
	// a row of its own — the four dead rows stay dead.
	rows := float64(len(data)/2 + 10)
	tail, dead = observe(0)
	for shard := range tail {
		if tail[shard] != 10/rows || dead[shard] != 4/rows {
			t.Fatalf("shard %d after churn: tail fraction %v, dead fraction %v, want %v and %v",
				shard, tail[shard], dead[shard], 10/rows, 4/rows)
		}
	}
	if status, _ := post(t, ts, "/v1/compact", ``); status != 200 {
		t.Fatal("compact failed")
	}
	tail, dead = observe(2) // one timed bulk load per shard
	for shard := range tail {
		if tail[shard] != 0 || dead[shard] != 0 {
			t.Fatalf("compacted shard %d: tail fraction %v, dead fraction %v, want 0", shard, tail[shard], dead[shard])
		}
	}
}

func TestOversizedBody413(t *testing.T) {
	_, ts, _ := newTestServer(t, 1, 512)
	big := `{"q":[` + strings.Repeat("1,", 4000) + `1],"k":5}`
	status, body := post(t, ts, "/v1/search", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%v)", status, body)
	}
	msg, _ := body["error"].(string)
	if !strings.Contains(msg, "too large") {
		t.Fatalf("error %q does not mention body size", msg)
	}
}

// TestTimeout504 pins the deadline contract: a request whose own
// timeout_ms expires answers 504 and surfaces ctx.Err(). A large batch
// makes the deadline reliable — cancellation is checked between batch
// work items, and ten thousand queries (tens of milliseconds of work
// here; four hundred took about two, near enough to the timer's own
// latency that one run in eight answered 200) cannot finish in 1ms.
func TestTimeout504(t *testing.T) {
	_, ts, data := newTestServer(t, 1, 0)
	var qs []string
	for i := 0; i < 10000; i++ {
		qs = append(qs, vecJSON(data[i%len(data)]))
	}
	body := `{"qs":[` + strings.Join(qs, ",") + `],"k":10,"timeout_ms":1}`
	status, resp := post(t, ts, "/v1/search/batch", body)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%v)", status, resp)
	}
	msg, _ := resp["error"].(string)
	if !strings.Contains(msg, "context deadline exceeded") {
		t.Fatalf("error %q does not surface ctx.Err()", msg)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s, ts, _ := newTestServer(t, 1, 0)
	if status, body := get(t, ts, "/healthz"); status != 200 || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", status, body)
	}
	if status, body := get(t, ts, "/readyz"); status != 200 || !strings.Contains(string(body), "ready") {
		t.Fatalf("readyz: %d %q", status, body)
	}
	s.StartDrain()
	if status, body := get(t, ts, "/readyz"); status != 503 || !strings.Contains(string(body), "draining") {
		t.Fatalf("readyz draining: %d %q", status, body)
	}
	// Liveness and serving keep working during the drain.
	if status, _ := get(t, ts, "/healthz"); status != 200 {
		t.Fatalf("healthz during drain: %d", status)
	}
	if status, raw := get(t, ts, "/v1/info"); status != 200 || !strings.Contains(string(raw), `"draining":true`) {
		t.Fatalf("info during drain: %d %s", status, raw)
	}
}

// TestMetricsParseAndMonotone scrapes /metrics, asserts the output
// parses, and verifies request counters and latency histogram counts
// increase monotonically across requests and account for every one.
func TestMetricsParseAndMonotone(t *testing.T) {
	_, ts, data := newTestServer(t, 1, 0)
	q := vecJSON(data[3])

	scrape := func() map[string]float64 {
		t.Helper()
		status, raw := get(t, ts, "/metrics")
		if status != 200 {
			t.Fatalf("metrics: %d", status)
		}
		samples, err := obs.ParseText(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("metrics output does not parse: %v\n%s", err, raw)
		}
		return samples
	}

	const searchSeries = `pmlsh_http_requests_total{route="/v1/search",code="200"}`
	const latCount = `pmlsh_http_request_duration_seconds_count{route="/v1/search"}`
	before := scrape()
	const n = 5
	for i := 0; i < n; i++ {
		if status, _ := post(t, ts, "/v1/search", `{"q":`+q+`,"k":3}`); status != 200 {
			t.Fatalf("search %d failed", i)
		}
		mid := scrape()
		if mid[searchSeries] != before[searchSeries]+float64(i+1) {
			t.Fatalf("after %d searches: %s = %v (started at %v)",
				i+1, searchSeries, mid[searchSeries], before[searchSeries])
		}
	}
	after := scrape()
	if got := after[searchSeries] - before[searchSeries]; got != n {
		t.Fatalf("request counter accounted %v of %d searches", got, n)
	}
	if got := after[latCount] - before[latCount]; got != n {
		t.Fatalf("latency histogram accounted %v of %d searches", got, n)
	}
	if after["pmlsh_query_projected_dist_comps_count"]-before["pmlsh_query_projected_dist_comps_count"] != n {
		t.Fatal("pdc histogram did not account for every query")
	}
	if after["pmlsh_index_live_points"] != 600 {
		t.Fatalf("live gauge = %v, want 600", after["pmlsh_index_live_points"])
	}
	// A failing request lands in the error counter, not just requests.
	if status, _ := post(t, ts, "/v1/search", `{"q":[1],"k":3}`); status != 400 {
		t.Fatal("bad search not rejected")
	}
	final := scrape()
	if final[`pmlsh_http_errors_total{route="/v1/search",code="400"}`] < 1 {
		t.Fatal("error counter did not record the 400")
	}
	if final["pmlsh_http_in_flight"] != 1 {
		// The in-flight gauge counts the scrape itself.
		t.Fatalf("in-flight during scrape = %v, want 1", final["pmlsh_http_in_flight"])
	}
}

// TestMethodNotAllowed pins the mux method patterns.
func TestMethodNotAllowed(t *testing.T) {
	_, ts, _ := newTestServer(t, 1, 0)
	if status, _ := get(t, ts, "/v1/search"); status != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/search = %d, want 405", status)
	}
	resp, err := http.Post(ts.URL+"/healthz", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz = %d, want 405", resp.StatusCode)
	}
}

// TestCheckpointRoundTrip saves via Checkpoint and reloads, asserting
// the loaded engine holds the same live set.
func TestCheckpointRoundTrip(t *testing.T) {
	s, ts, data := newTestServer(t, 2, 0)
	if status, _ := post(t, ts, "/v1/insert", `{"p":`+vecJSON(data[0])+`}`); status != 200 {
		t.Fatal("insert failed")
	}
	if status, _ := post(t, ts, "/v1/delete", `{"id":3}`); status != 200 {
		t.Fatal("delete failed")
	}
	path := t.TempDir() + "/ckpt.pmlsh"
	if err := s.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := core.LoadEngine(f)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != s.eng.Len() || loaded.LiveLen() != s.eng.LiveLen() {
		t.Fatalf("loaded %d/%d, want %d/%d",
			loaded.Len(), loaded.LiveLen(), s.eng.Len(), s.eng.LiveLen())
	}
	if loaded.IsLive(3) {
		t.Fatal("deleted id live after checkpoint round trip")
	}
}
