package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unsafe"

	"blameit/internal/active"
	"blameit/internal/ingest"
	"blameit/internal/metrics"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
	"blameit/internal/trace"
)

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("POST /v1/aggregates", s.handleAggregates)
	s.mux.HandleFunc("POST /v1/seal", s.handleSeal)
	s.mux.HandleFunc("GET /v1/verdicts", s.handleVerdicts)
	s.mux.HandleFunc("GET /v1/reports", s.handleReports)
	s.mux.HandleFunc("GET /v1/reports/{bucket}", s.handleReport)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// writeJSON renders one response body. Encoding failures at this point can
// only be programming errors; the status line has already been sent.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
}

// retryAfterSeconds derives a 429 Retry-After hint from how full the
// admission budget is: an almost-drained queue invites a quick retry, a
// full one backs clients off harder. Linear in occupancy, clamped to
// [1, 8] seconds; a full queue answers 5.
func retryAfterSeconds(occupied, max int) string {
	if max <= 0 {
		return "1"
	}
	ra := 1 + 4*occupied/max
	if ra > 8 {
		ra = 8
	}
	return strconv.Itoa(ra)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxPooledBytes bounds a buffer an ingest request returns to its pool: a
// rare huge body is read into a buffer the collector takes back, rather
// than one every later request keeps pinned.
const maxPooledBytes = 4 << 20

// poolable reports whether s is small enough to recycle.
func poolable[T any](s []T) bool {
	return uintptr(cap(s))*unsafe.Sizeof(*new(T)) <= maxPooledBytes
}

// bodyBufs recycles request-body buffers across ingest requests.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// recordBufs recycles one record type's decode destinations across ingest
// requests. It holds pointers, so putting a slice back allocates nothing.
type recordBufs[T any] struct{ p sync.Pool }

var (
	obsBufs  recordBufs[trace.Observation]
	cellBufs recordBufs[ingest.AggCell]
)

func (rb *recordBufs[T]) get() *[]T {
	if v, ok := rb.p.Get().(*[]T); ok {
		return v
	}
	return new([]T)
}

func (rb *recordBufs[T]) put(v *[]T) {
	if !poolable(*v) {
		return
	}
	*v = (*v)[:0]
	rb.p.Put(v)
}

// readBatch reads one request body bounded by limit (a *http.MaxBytesError
// beyond it) into buf, sized once from the declared Content-Length; an
// undeclared length grows the buffer as io.ReadAll would. A declared
// length beyond the limit is refused before anything is sized or read.
// Nothing keeps a view into the bytes: decoded records hold numbers, and
// the quarantine copies a bounded prefix of each salvaged line.
func readBatch(w http.ResponseWriter, r *http.Request, limit int64, buf *bytes.Buffer) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	buf.Reset()
	if n := r.ContentLength; n > 0 {
		// MinRead of slack lets ReadFrom see the EOF without growing.
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// admitBatch is the front half the two ingestion handlers share: refuse
// while draining (503), read the bounded body (413 beyond MaxBatchBytes),
// decode it — one undecodable line fails the whole batch with 400 unless
// ?mode=salvage routes such lines to the ingestion quarantine — and push the
// records into the queue, atomically and in body order (429 with
// Retry-After when it is full, so clients back off). The body buffer and
// the decode destination are borrowed from pools and returned once push
// has returned, so push must copy what it keeps. Unless ok it has answered
// the request; n counts the records pushed, rejected the feed's refused
// bodies.
func admitBatch[T any](s *Server, w http.ResponseWriter, r *http.Request, rejected *metrics.Counter, bufs *recordBufs[T],
	decode func(body []byte, buf []T, onBad func(line []byte)) ([]T, error),
	push func([]T) error) (n, salvaged int, ok bool) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining: ingestion is closed")
		return 0, 0, false
	}
	bb := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		if bb.Cap() <= maxPooledBytes {
			bodyBufs.Put(bb)
		}
	}()
	body, err := readBatch(w, r, s.cfg.MaxBatchBytes, bb)
	if err != nil {
		rejected.Inc()
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.mOversized.Inc()
			writeError(w, http.StatusRequestEntityTooLarge, "batch exceeds %d bytes", tooLarge.Limit)
			return 0, 0, false
		}
		writeError(w, http.StatusBadRequest, "reading batch: %v", err)
		return 0, 0, false
	}
	var onBad func([]byte)
	if r.URL.Query().Get("mode") == "salvage" {
		at := s.q.Watermark()
		onBad = func(line []byte) {
			salvaged++
			s.frontMu.Lock()
			s.frontQuar.RejectLine(line, at)
			s.frontMu.Unlock()
		}
	}
	recs := bufs.get()
	defer bufs.put(recs)
	// The pooled destination grows as the decoder appends: past the first
	// requests it holds a batch's records without growing again.
	*recs, err = decode(body, *recs, onBad)
	if err != nil {
		rejected.Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
		return 0, 0, false
	}
	err = push(*recs)
	pending, _ := s.q.Depth()
	switch {
	case errors.Is(err, ErrBackpressure):
		s.mBackpress.Inc()
		w.Header().Set("Retry-After", retryAfterSeconds(pending, s.cfg.MaxPendingRecords))
		writeError(w, http.StatusTooManyRequests, "ingest queue full (%d records pending); retry after the backend drains", s.cfg.MaxPendingRecords)
		return 0, 0, false
	case err != nil:
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return 0, 0, false
	}
	s.gQueueDepth.Set(int64(pending))
	return len(*recs), salvaged, true
}

// ingestResponse summarizes one accepted batch.
type ingestResponse struct {
	Accepted int `json:"accepted"`
	// Rejected counts salvage-mode lines diverted to the quarantine.
	Rejected int `json:"rejected,omitempty"`
}

// handleIngest accepts one JSONL observation batch (see admitBatch).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	n, salvaged, ok := admitBatch(s, w, r, s.mRejected, &obsBufs, ingest.DecodeBatch, s.q.Push)
	if !ok {
		return
	}
	s.mBatches.Inc()
	s.mRecords.Add(int64(n))
	writeJSON(w, http.StatusAccepted, ingestResponse{Accepted: n, Rejected: salvaged})
}

// aggResponse summarizes one accepted aggregate batch.
type aggResponse struct {
	Cells    int `json:"cells"`
	Partials int `json:"partials"`
	// Deduped counts partials dropped as redeliveries of an identity still
	// pending in the queue.
	Deduped int `json:"deduped,omitempty"`
	// Rejected counts salvage-mode lines diverted to the quarantine.
	Rejected int `json:"rejected,omitempty"`
}

// handleAggregates accepts one JSONL aggregate-cell batch from an
// edge-aggregating fleet (see admitBatch). A record here is a partial's
// cell, not a raw observation; the queue takes the batch as one run per
// (agent, epoch, seq) partial, which must therefore arrive whole — one
// partial's cells within one batch.
func (s *Server) handleAggregates(w http.ResponseWriter, r *http.Request) {
	var adm cellAdmission
	n, salvaged, ok := admitBatch(s, w, r, s.mAggRejected, &cellBufs, ingest.DecodeAggBatch, func(cells []ingest.AggCell) (err error) {
		adm, err = s.q.PushCells(cells)
		return err
	})
	if !ok {
		return
	}
	s.mAggBatches.Inc()
	s.mAggCells.Add(int64(n))
	s.mAggPartials.Add(int64(adm.partials))
	s.mAggDeduped.Add(int64(adm.deduped))
	s.mAggFlushed.Add(int64(adm.records))
	writeJSON(w, http.StatusAccepted, aggResponse{
		Cells: n, Partials: adm.partials, Deduped: adm.deduped, Rejected: salvaged,
	})
}

// sealRequest advances the seal watermark: every bucket <= Through becomes
// readable by the backend. The loadgen sends it after the final batch; a
// deployment whose collectors seal on wall-clock posts it on a timer.
type sealRequest struct {
	Through netmodel.Bucket `json:"through"`
}

type sealResponse struct {
	// Watermark is the lowest unsealed bucket after the seal.
	Watermark netmodel.Bucket `json:"watermark"`
}

func (s *Server) handleSeal(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading seal request: %v", err)
		return
	}
	var req sealRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding seal request: %v", err)
		return
	}
	if req.Through < 0 {
		writeError(w, http.StatusBadRequest, "seal through %d must be >= 0", req.Through)
		return
	}
	s.q.SealThrough(req.Through)
	s.mSeals.Inc()
	writeJSON(w, http.StatusAccepted, sealResponse{Watermark: s.q.Watermark()})
}

// verdictWindow is one report's active-phase verdicts with its window.
type verdictWindow struct {
	From     netmodel.Bucket  `json:"from"`
	To       netmodel.Bucket  `json:"to"`
	Verdicts []active.Verdict `json:"verdicts"`
}

// handleVerdicts returns the AS-level localizations of every retained
// report, oldest first, a window without verdicts holding [] rather than
// null. The windows are gathered under the report log's lock and rendered
// after it, by the canonical report's own verdict encoder, so they read
// exactly as in /v1/reports/{bucket}. ?since=BUCKET keeps only windows
// ending at or after the bucket.
func (s *Server) handleVerdicts(w http.ResponseWriter, r *http.Request) {
	since := netmodel.Bucket(-1)
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad since bucket %q", v)
			return
		}
		since = netmodel.Bucket(n)
	}
	var wins []verdictWindow
	s.reports.each(func(sr *storedReport) {
		if sr.to >= since {
			wins = append(wins, verdictWindow{From: sr.from, To: sr.to, Verdicts: sr.verdicts})
		}
	})
	bp := verdictBufs.Get().(*[]byte)
	defer func() {
		if cap(*bp) <= maxPooledBytes {
			verdictBufs.Put(bp)
		}
	}()
	body := append((*bp)[:0], '[')
	var err error
	for i, win := range wins {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendInt(append(body, `{"from":`...), int64(win.From), 10)
		body = strconv.AppendInt(append(body, `,"to":`...), int64(win.To), 10)
		if win.Verdicts == nil {
			win.Verdicts = []active.Verdict{}
		}
		if body, err = pipeline.AppendVerdictsJSON(append(body, `,"verdicts":`...), win.Verdicts); err != nil {
			// Unreachable: a retained report was rendered canonically,
			// so its floats are finite.
			writeError(w, http.StatusInternalServerError, "rendering verdicts: %v", err)
			return
		}
		body = append(body, '}')
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	*bp = append(body, "]\n"...)
	_, _ = w.Write(*bp)
}

// verdictBufs recycles GET /v1/verdicts response bodies: a client that
// polls verdicts asks for one beside every report, and a body built fresh
// each time is garbage enough to lift the daemon's peak RSS.
var verdictBufs = sync.Pool{New: func() any { return new([]byte) }}

// reportSummary is one retained report's index entry.
type reportSummary struct {
	Seq      int64           `json:"seq"`
	From     netmodel.Bucket `json:"from"`
	To       netmodel.Bucket `json:"to"`
	Results  int             `json:"results"`
	Verdicts int             `json:"verdicts"`
	Tickets  int             `json:"tickets"`
}

func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	out := []reportSummary{}
	s.reports.each(func(sr *storedReport) {
		out = append(out, reportSummary{
			Seq: sr.seq, From: sr.from, To: sr.to,
			Results: sr.results, Verdicts: len(sr.verdicts), Tickets: sr.tickets,
		})
	})
	writeJSON(w, http.StatusOK, out)
}

// handleReport serves the canonical JSON of the report whose job window
// covers the requested bucket — the same bytes the batch CLI's replay
// equivalence is graded on.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("bucket")
	n, err := strconv.Atoi(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad bucket %q", raw)
		return
	}
	sr, ok := s.reports.byBucket(netmodel.Bucket(n))
	if !ok {
		writeError(w, http.StatusNotFound, "no retained report covers bucket %d", n)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sr.canonical)
	_, _ = w.Write([]byte{'\n'})
}

// healthResponse is the service's liveness/data-plane summary. Status
// follows the latest report's Health grade (the transport's state, not the
// verdicts'): ok, degraded, or dark; "failed" when the backend died.
type healthResponse struct {
	Status       string           `json:"status"`
	Backend      string           `json:"backend"`
	Reports      int64            `json:"reports"`
	QueueDepth   int              `json:"queue_depth"`
	Ingested     int64            `json:"ingested"`
	Watermark    netmodel.Bucket  `json:"watermark"`
	LastWindowTo *netmodel.Bucket `json:"last_window_to,omitempty"`
	Health       *pipeline.Health `json:"health,omitempty"`
	FrontQuar    int64            `json:"frontend_quarantined,omitempty"`
	// WAL is present only when the daemon runs with a data directory, so
	// durability-free deployments keep their exact response shape.
	WAL *WALHealth `json:"wal,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{Status: "ok", Backend: "running"}
	select {
	case <-s.done:
		if err := s.Err(); err != nil {
			resp.Backend = "failed: " + err.Error()
		} else {
			resp.Backend = "stopped"
		}
	default:
		if s.draining.Load() {
			resp.Backend = "draining"
		}
	}
	resp.QueueDepth, resp.Ingested = s.q.Depth()
	resp.Watermark = s.q.Watermark()
	resp.Reports = s.reports.count()
	if s.wal != nil {
		resp.WAL = s.wal.health()
	}
	s.frontMu.Lock()
	resp.FrontQuar = s.frontQuar.Total()
	s.frontMu.Unlock()
	if sr, ok := s.reports.latest(); ok {
		h := sr.health
		to := sr.to
		resp.Health = &h
		resp.LastWindowTo = &to
		switch {
		case h.Source == pipeline.Dark || h.Prober == pipeline.Dark:
			resp.Status = "dark"
		case h.Source == pipeline.Degraded || h.Prober == pipeline.Degraded:
			resp.Status = "degraded"
		}
	}
	status := http.StatusOK
	if resp.Status == "dark" || s.Err() != nil {
		resp.Status = "dark"
		if s.Err() != nil {
			resp.Status = "failed"
		}
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// handleMetrics serves the pipeline registry's deterministic JSON
// snapshot — every counter, gauge, and histogram of the ingestion, job,
// probing, and serving layers.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err := s.reg.Snapshot().WriteJSON(w); err != nil {
		// The status line is gone; nothing useful to do but drop the conn.
		return
	}
}
