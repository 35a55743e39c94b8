package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
)

// statusClientClosed is the de-facto-standard (nginx) code for "client
// closed the connection before the response": the reply is never seen,
// the code exists so metrics and logs can tell abandonment from
// server-side failure.
const statusClientClosed = 499

// queryOptions are the per-request knobs shared by every query
// endpoint, mapping one-to-one onto the request API's functional
// options (WithRatio, WithAlpha1, WithBudget) plus a per-request
// deadline.
type queryOptions struct {
	// Ratio is the approximation ratio c (0 = the default 1.5).
	Ratio float64 `json:"ratio,omitempty"`
	// Alpha1 overrides the confidence-interval width α1 (0 = index
	// default).
	Alpha1 float64 `json:"alpha1,omitempty"`
	// Budget caps the number of verified candidates (0 = derived βn+k).
	Budget int `json:"budget,omitempty"`
	// TimeoutMS is this request's deadline in milliseconds (0 = none).
	// An expired deadline answers 504 with the context error.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (o queryOptions) core() core.SearchOptions {
	return core.SearchOptions{C: o.Ratio, Alpha1: o.Alpha1, Budget: o.Budget}
}

// maxTimeoutMS is the longest deadline a time.Duration holds: a
// millisecond more and the product wraps negative, a context born
// expired.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// requestContext derives the query context: the inbound request's
// context (so a disconnecting client cancels engine work) plus the
// requested deadline.
func (o queryOptions) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	if o.TimeoutMS < 0 || o.TimeoutMS > maxTimeoutMS {
		return nil, nil, fmt.Errorf("timeout_ms must be in [0, %d], got %d", maxTimeoutMS, o.TimeoutMS)
	}
	if o.TimeoutMS == 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), time.Duration(o.TimeoutMS)*time.Millisecond)
	return ctx, cancel, nil
}

type neighborJSON struct {
	ID   int32   `json:"id"`
	Dist float64 `json:"dist"`
}

type pairJSON struct {
	I    int32   `json:"i"`
	J    int32   `json:"j"`
	Dist float64 `json:"dist"`
}

type queryStatsJSON struct {
	Rounds             int     `json:"rounds"`
	Verified           int     `json:"verified"`
	Screened           int     `json:"screened"`
	ProjectedDistComps int64   `json:"projected_dist_comps"`
	FinalRadius        float64 `json:"final_radius"`
}

type pairStatsJSON struct {
	Rounds             int   `json:"rounds"`
	Enumerated         int   `json:"enumerated"`
	Verified           int   `json:"verified"`
	Screened           int   `json:"screened"`
	ProjectedDistComps int64 `json:"projected_dist_comps"`
}

func toNeighbors(res []core.Result) []neighborJSON {
	out := make([]neighborJSON, len(res))
	for i, r := range res {
		out[i] = neighborJSON{ID: r.ID, Dist: r.Dist}
	}
	return out
}

func toQueryStats(st core.QueryStats) queryStatsJSON {
	return queryStatsJSON{
		Rounds:             st.Rounds,
		Verified:           st.Verified,
		Screened:           st.Screened,
		ProjectedDistComps: st.ProjectedDistComps,
		FinalRadius:        st.FinalRadius,
	}
}

// observeQuery feeds the per-query work histograms.
func (s *Server) observeQuery(st core.QueryStats) {
	s.pdcHist.Observe(float64(st.ProjectedDistComps))
	s.screenedHist.Observe(float64(st.Screened))
}

// decode reads one JSON request body into dst: unknown fields are
// rejected, bodies over the configured cap answer 413, and trailing
// garbage after the value is an error.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("request body has trailing data after the JSON value")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type errorJSON struct {
	Error string `json:"error"`
}

// failDecode maps a request-decoding error to its status: 413 for an
// oversized body, 400 for everything else (syntax, type mismatches,
// unknown fields, trailing data, empty body).
func failDecode(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorJSON{Error: err.Error()})
		return
	}
	if errors.Is(err, io.EOF) {
		err = fmt.Errorf("request body must be a JSON object")
	}
	writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
}

// failQuery maps an engine error to its status: the request's own
// context expiring (504), the client going away (499), a mutation the
// write-ahead log could not take (503 — the one error here that is the
// server's, not the caller's: a full disk or a poisoned log must not
// read as a bad request, to the client or to pmlsh_http_errors_total),
// and request validation for everything else (400). Queries perform no
// I/O and never reach the 503.
func failQuery(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, errorJSON{Error: err.Error()})
	case errors.Is(err, context.Canceled):
		writeJSON(w, statusClientClosed, errorJSON{Error: err.Error()})
	case errors.Is(err, core.ErrDurability):
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
	}
}

type searchRequest struct {
	Q []float64 `json:"q"`
	K int       `json:"k"`
	queryOptions
}

type searchResponse struct {
	Results []neighborJSON `json:"results"`
	Stats   queryStatsJSON `json:"stats"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if err := s.decode(w, r, &req); err != nil {
		failDecode(w, err)
		return
	}
	ctx, cancel, err := req.requestContext(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
		return
	}
	defer cancel()
	o := req.core()
	var st core.QueryStats
	o.Stats = &st
	res, err := s.eng.Search(ctx, req.Q, req.K, o)
	if err != nil {
		failQuery(w, err)
		return
	}
	s.observeQuery(st)
	writeJSON(w, http.StatusOK, searchResponse{Results: toNeighbors(res), Stats: toQueryStats(st)})
}

type searchBatchRequest struct {
	Qs [][]float64 `json:"qs"`
	K  int         `json:"k"`
	queryOptions
}

type searchBatchResponse struct {
	Results [][]neighborJSON `json:"results"`
	Stats   []queryStatsJSON `json:"stats"`
}

func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	var req searchBatchRequest
	if err := s.decode(w, r, &req); err != nil {
		failDecode(w, err)
		return
	}
	ctx, cancel, err := req.requestContext(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
		return
	}
	defer cancel()
	o := req.core()
	sts := make([]core.QueryStats, len(req.Qs))
	o.BatchStats = sts
	res, err := s.eng.SearchBatch(ctx, req.Qs, req.K, o)
	if err != nil {
		failQuery(w, err)
		return
	}
	out := searchBatchResponse{
		Results: make([][]neighborJSON, len(res)),
		Stats:   make([]queryStatsJSON, len(res)),
	}
	for i, rs := range res {
		out.Results[i] = toNeighbors(rs)
		out.Stats[i] = toQueryStats(sts[i])
		s.observeQuery(sts[i])
	}
	writeJSON(w, http.StatusOK, out)
}

type pairsRequest struct {
	K int `json:"k"`
	queryOptions
}

type pairsResponse struct {
	Pairs []pairJSON    `json:"pairs"`
	Stats pairStatsJSON `json:"stats"`
}

func (s *Server) handlePairs(w http.ResponseWriter, r *http.Request) {
	var req pairsRequest
	if err := s.decode(w, r, &req); err != nil {
		failDecode(w, err)
		return
	}
	ctx, cancel, err := req.requestContext(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
		return
	}
	defer cancel()
	o := req.core()
	var st core.CPStats
	o.PairStats = &st
	pairs, err := s.eng.SearchPairs(ctx, req.K, o)
	if err != nil {
		failQuery(w, err)
		return
	}
	s.pdcHist.Observe(float64(st.ProjectedDistComps))
	s.screenedHist.Observe(float64(st.Screened))
	out := pairsResponse{Pairs: make([]pairJSON, len(pairs)), Stats: pairStatsJSON{
		Rounds:             st.Rounds,
		Enumerated:         st.Enumerated,
		Verified:           st.Verified,
		Screened:           st.Screened,
		ProjectedDistComps: st.ProjectedDistComps,
	}}
	for i, p := range pairs {
		out.Pairs[i] = pairJSON{I: p.I, J: p.J, Dist: p.Dist}
	}
	writeJSON(w, http.StatusOK, out)
}

type ballRequest struct {
	Q []float64 `json:"q"`
	R float64   `json:"r"`
	queryOptions
}

type ballResponse struct {
	// Result is null when no point lies within c·r.
	Result *neighborJSON  `json:"result"`
	Stats  queryStatsJSON `json:"stats"`
}

func (s *Server) handleBall(w http.ResponseWriter, r *http.Request) {
	var req ballRequest
	if err := s.decode(w, r, &req); err != nil {
		failDecode(w, err)
		return
	}
	ctx, cancel, err := req.requestContext(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
		return
	}
	defer cancel()
	o := req.core()
	var st core.QueryStats
	o.Stats = &st
	res, err := s.eng.SearchBall(ctx, req.Q, req.R, o)
	if err != nil {
		failQuery(w, err)
		return
	}
	s.observeQuery(st)
	out := ballResponse{Stats: toQueryStats(st)}
	if res != nil {
		out.Result = &neighborJSON{ID: res.ID, Dist: res.Dist}
	}
	writeJSON(w, http.StatusOK, out)
}

type insertRequest struct {
	P []float64 `json:"p"`
}

type insertResponse struct {
	ID int32 `json:"id"`
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req insertRequest
	if err := s.decode(w, r, &req); err != nil {
		failDecode(w, err)
		return
	}
	id, err := s.eng.Insert(req.P)
	if err != nil {
		failQuery(w, err)
		return
	}
	writeJSON(w, http.StatusOK, insertResponse{ID: id})
}

type deleteRequest struct {
	ID int32 `json:"id"`
}

type deleteResponse struct {
	ID int32 `json:"id"`
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req deleteRequest
	if err := s.decode(w, r, &req); err != nil {
		failDecode(w, err)
		return
	}
	if err := s.eng.Delete(req.ID); err != nil {
		failQuery(w, err)
		return
	}
	writeJSON(w, http.StatusOK, deleteResponse{ID: req.ID})
}

type compactResponse struct {
	Live       int     `json:"live"`
	DurationMS float64 `json:"duration_ms"`
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	// An empty body is fine for an argument-less operation; anything
	// else must still be well-formed (and field-free) JSON.
	var req struct{}
	if err := s.decode(w, r, &req); err != nil && !errors.Is(err, io.EOF) {
		failDecode(w, err)
		return
	}
	start := time.Now()
	if err := s.eng.Compact(); err != nil {
		failQuery(w, err)
		return
	}
	writeJSON(w, http.StatusOK, compactResponse{
		Live:       s.eng.Info().Live,
		DurationMS: float64(time.Since(start).Microseconds()) / 1000,
	})
}

type infoResponse struct {
	Dim         int    `json:"dim"`
	M           int    `json:"m"`
	Shards      int    `json:"shards"`
	IDs         int    `json:"ids"`
	Live        int    `json:"live"`
	Dead        int    `json:"dead"`
	Quantize    string `json:"quantize"`
	Metric      string `json:"metric"`
	Compactions int64  `json:"compactions"`
	Draining    bool   `json:"draining"`
	// TailFraction and DeadFraction have one element per shard.
	TailFraction []float64 `json:"tail_fraction"`
	DeadFraction []float64 `json:"dead_fraction"`
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	info := s.eng.Info()
	writeJSON(w, http.StatusOK, infoResponse{
		Dim:         info.Dim,
		M:           info.M,
		Shards:      info.Shards,
		IDs:         info.IDs,
		Live:        info.Live,
		Dead:        info.Dead,
		Quantize:    info.Quantize.String(),
		Metric:      info.Metric.String(),
		Compactions: info.Compactions,
		Draining:    s.Draining(),

		TailFraction: info.TailFraction,
		DeadFraction: info.DeadFraction,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ready\n")
}

// routeList is the canonical route set, used by tests and docs to stay
// in sync with the mux registration in New.
var routeList = strings.Fields(`
	/v1/search /v1/search/batch /v1/pairs /v1/ball
	/v1/insert /v1/delete /v1/compact /v1/info
	/healthz /readyz /metrics`)
