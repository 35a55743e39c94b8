package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"

	pmlsh "repro"
	"repro/internal/core"
	"repro/internal/metrics"
)

// target is the system under test as one of its callers sees it: the
// public library, the engine, or the HTTP API. The load drivers, the
// recall judge and the mutation schedule are written once against it.
type target interface {
	search(q []float64) ([]metrics.Neighbor, error)
	insert(p []float64) (int32, error)
	remove(id int32) error
	compact() error
	live() (int, error)
}

// libTarget is the public package: what `import "repro"` callers use.
type libTarget struct {
	ix   *pmlsh.Index
	opts []pmlsh.SearchOption
}

func newLibTarget(ix *pmlsh.Index, budget int) *libTarget {
	t := &libTarget{ix: ix, opts: []pmlsh.SearchOption{pmlsh.WithRatio(queryC)}}
	if budget > 0 {
		t.opts = append(t.opts, pmlsh.WithBudget(budget))
	}
	return t
}

func (t *libTarget) search(q []float64) ([]metrics.Neighbor, error) {
	res, err := t.ix.Search(context.Background(), q, queryK, t.opts...)
	return libNeighbors(res), err
}

func libNeighbors(res []pmlsh.Neighbor) []metrics.Neighbor {
	out := make([]metrics.Neighbor, len(res))
	for i, r := range res {
		out[i] = metrics.Neighbor{ID: r.ID, Dist: r.Dist}
	}
	return out
}

func (t *libTarget) insert(p []float64) (int32, error) { return t.ix.Insert(p) }
func (t *libTarget) remove(id int32) error             { return t.ix.Delete(id) }
func (t *libTarget) compact() error                    { return t.ix.Compact() }
func (t *libTarget) live() (int, error)                { return t.ix.LiveLen(), nil }

// engineTarget is core.Engine called directly, below the public
// package and the server.
type engineTarget struct{ eng *core.Engine }

func (t engineTarget) search(q []float64) ([]metrics.Neighbor, error) {
	res, err := t.eng.Search(context.Background(), q, queryK, core.SearchOptions{C: queryC})
	out := make([]metrics.Neighbor, len(res))
	for i, r := range res {
		out[i] = metrics.Neighbor{ID: r.ID, Dist: r.Dist}
	}
	return out, err
}

func (t engineTarget) insert(p []float64) (int32, error) { return t.eng.Insert(p) }
func (t engineTarget) remove(id int32) error             { return t.eng.Delete(id) }
func (t engineTarget) compact() error                    { return t.eng.Compact() }
func (t engineTarget) live() (int, error)                { return t.eng.LiveLen(), nil }

// httpTarget speaks the server's JSON API. do carries one request:
// over a loopback connection (a real client), or straight into the
// handler (the per-layer run's way of timing the server without the
// transport).
type httpTarget struct {
	do     func(method, path string, body []byte) (status int, resp []byte, err error)
	budget int
}

// clientDo sends requests over one keep-alive connection of c.
func clientDo(c *http.Client, base string) func(string, string, []byte) (int, []byte, error) {
	return func(method, path string, body []byte) (int, []byte, error) {
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		resp, err := c.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}
}

// handlerDo calls the handler in-process, with no socket in between.
func handlerDo(h http.Handler) func(string, string, []byte) (int, []byte, error) {
	return func(method, path string, body []byte) (int, []byte, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes(), nil
	}
}

// call posts one JSON request and decodes a 200 reply into out.
func (t *httpTarget) call(method, path string, body []byte, out any) error {
	status, resp, err := t.do(method, path, body)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, status, bytes.TrimSpace(resp))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(resp, out); err != nil {
		return fmt.Errorf("%s: decoding reply: %w", path, err)
	}
	return nil
}

type searchBody struct {
	Q      []float64 `json:"q"`
	K      int       `json:"k"`
	Ratio  float64   `json:"ratio"`
	Budget int       `json:"budget,omitempty"`
}

// searchRequest encodes one /v1/search body. The load loop encodes its
// bodies before the window opens, so the caller's JSON encoding is not
// part of what it times.
func (t *httpTarget) searchRequest(q []float64) []byte {
	b, err := json.Marshal(searchBody{Q: q, K: queryK, Ratio: queryC, Budget: t.budget})
	if err != nil {
		panic(err) // finite floats always encode
	}
	return b
}

func (t *httpTarget) searchEncoded(body []byte) ([]metrics.Neighbor, error) {
	var reply struct {
		Results []struct {
			ID   int32   `json:"id"`
			Dist float64 `json:"dist"`
		} `json:"results"`
	}
	if err := t.call(http.MethodPost, "/v1/search", body, &reply); err != nil {
		return nil, err
	}
	out := make([]metrics.Neighbor, len(reply.Results))
	for i, r := range reply.Results {
		out[i] = metrics.Neighbor{ID: r.ID, Dist: r.Dist}
	}
	return out, nil
}

func (t *httpTarget) search(q []float64) ([]metrics.Neighbor, error) {
	return t.searchEncoded(t.searchRequest(q))
}

func (t *httpTarget) insert(p []float64) (int32, error) {
	body, err := json.Marshal(struct {
		P []float64 `json:"p"`
	}{p})
	if err != nil {
		return 0, err
	}
	var reply struct {
		ID int32 `json:"id"`
	}
	err = t.call(http.MethodPost, "/v1/insert", body, &reply)
	return reply.ID, err
}

func (t *httpTarget) remove(id int32) error {
	return t.call(http.MethodPost, "/v1/delete", fmt.Appendf(nil, `{"id":%d}`, id), nil)
}

func (t *httpTarget) compact() error {
	return t.call(http.MethodPost, "/v1/compact", nil, nil)
}

func (t *httpTarget) live() (int, error) {
	var reply struct {
		Live int `json:"live"`
	}
	err := t.call(http.MethodGet, "/v1/info", nil, &reply)
	return reply.Live, err
}
