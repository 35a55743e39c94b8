package server

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// TestResponsesGolden pins the raw bytes of every query endpoint's
// answer: /v1/search, /v1/search/batch (an empty batch too), /v1/pairs
// and /v1/ball (a hit and a miss) at 1 and 3 shards, and search, batch
// and pairs on an index whose every point was deleted. The response
// objects are the engine's own result types encoded as they are, so a
// renamed field, a dropped tag or an empty answer encoded as null fails
// here.
//
// Regenerate (only when the wire format is meant to change):
// go test ./internal/server -run TestResponsesGolden -update-responses-golden
var updateResponsesGolden = flag.Bool("update-responses-golden", false,
	"rewrite testdata/responses.golden from the current code")

const responsesGoldenPath = "testdata/responses.golden"

// rawPost sends body to path and returns the status and the body's
// bytes exactly as the server wrote them.
func rawPost(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
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
	return resp.StatusCode, raw
}

func TestResponsesGolden(t *testing.T) {
	var b strings.Builder
	record := func(t *testing.T, ts *httptest.Server, name, path, body string) {
		t.Helper()
		status, raw := rawPost(t, ts, path, body)
		fmt.Fprintf(&b, "== %s %s %d\n%s", name, path, status, raw)
	}
	far := make([]float64, 8)
	for i := range far {
		far[i] = 100
	}
	for _, shards := range []int{1, 3} {
		_, ts, data := newTestServer(t, shards, 0)
		name := fmt.Sprintf("shards=%d", shards)
		record(t, ts, name, "/v1/search", `{"q":`+vecJSON(data[7])+`,"k":5}`)
		record(t, ts, name, "/v1/search/batch", `{"qs":[`+vecJSON(data[3])+`,`+vecJSON(data[9])+`],"k":3}`)
		record(t, ts, name, "/v1/search/batch", `{"qs":[],"k":3}`)
		record(t, ts, name, "/v1/pairs", `{"k":4}`)
		record(t, ts, name, "/v1/ball", `{"q":`+vecJSON(data[7])+`,"r":0.5}`)
		record(t, ts, name, "/v1/ball", `{"q":`+vecJSON(far)+`,"r":0.01}`)
	}

	for _, shards := range []int{1, 3} {
		_, ts, data := newTestServer(t, shards, 0)
		for id := range data {
			if status, raw := rawPost(t, ts, "/v1/delete", fmt.Sprintf(`{"id":%d}`, id)); status != 200 {
				t.Fatalf("shards=%d: delete %d: %d %s", shards, id, status, raw)
			}
		}
		name := fmt.Sprintf("shards=%d all-deleted", shards)
		record(t, ts, name, "/v1/search", `{"q":`+vecJSON(data[7])+`,"k":5}`)
		record(t, ts, name, "/v1/search/batch", `{"qs":[`+vecJSON(data[3])+`],"k":3}`)
		record(t, ts, name, "/v1/pairs", `{"k":4}`)
	}

	got := b.String()
	if *updateResponsesGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(responsesGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(responsesGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-responses-golden)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("line %d:\n got %s\nwant %s", i+1, g, w)
			}
		}
	}
}
