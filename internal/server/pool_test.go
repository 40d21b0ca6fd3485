package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"blameit/internal/ingest"
	"blameit/internal/netmodel"
	"blameit/internal/trace"
)

// frontendOnly is a server with the HTTP frontend and the ingest queue and
// no backend: the test reads the queue itself, as the pipeline would.
// Buckets seal only through SealThrough.
func frontendOnly() *Server {
	s := &Server{
		cfg:       Config{MaxBatchBytes: DefaultMaxBatchBytes},
		q:         newIngestQueue(0, true, nil, nil),
		frontQuar: ingest.NewQuarantine(1<<20, 16),
		mux:       http.NewServeMux(),
	}
	s.routes()
	return s
}

// serveLocal runs one request through the handler without a connection.
func serveLocal(t *testing.T, h http.Handler, path string, body []byte) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if w.Code != http.StatusAccepted {
		t.Errorf("POST %s = %d (%s), want 202", path, w.Code, w.Body)
	}
}

// TestRecycledBuffersNeverAlias posts raw and aggregate bodies of varying
// sizes from four goroutines while the test, as the backend, seals and
// reads each bucket once its bodies are in. Request buffers are recycled
// between the posts, and every read must still return each bucket exactly
// as it was posted: the raw bodies in arrival order, then the aggregate
// partials in PartialID order (here, their posting order).
func TestRecycledBuffersNeverAlias(t *testing.T) {
	s := frontendOnly()
	h := s.Handler()
	const buckets, posters = 48, 4
	r := rand.New(rand.NewSource(5))
	rtt := func() float64 { return 10 + 200*r.Float64() } // 17 significant digits, mostly
	var raws, aggs [buckets][][]byte
	var want [buckets][]trace.Observation
	for b := range want {
		for i := 0; i < 1+r.Intn(3); i++ {
			obs := make([]trace.Observation, 1+r.Intn(3000))
			for j := range obs {
				obs[j] = trace.Observation{Prefix: netmodel.PrefixID(r.Intn(5000)), Cloud: netmodel.CloudID(r.Intn(8)),
					Device: netmodel.DeviceClass(r.Intn(netmodel.NumDeviceClasses)), Bucket: netmodel.Bucket(b),
					Samples: r.Intn(100), MeanRTT: rtt(), Clients: r.Intn(50)}
			}
			raws[b] = append(raws[b], jsonlBody(t, obs))
			want[b] = append(want[b], obs...)
		}
		for seq := 0; seq < r.Intn(3); seq++ {
			cells := make([]ingest.AggCell, 1+r.Intn(2000))
			for j := range cells {
				cells[j] = ingest.AggCell{Agent: 1, Seq: int64(seq), Bucket: netmodel.Bucket(b),
					Prefix: netmodel.PrefixID(r.Intn(5000)), Cloud: netmodel.CloudID(r.Intn(8)),
					Device:  netmodel.DeviceClass(r.Intn(netmodel.NumDeviceClasses)),
					Samples: r.Intn(100), MeanRTT: rtt(), Clients: r.Intn(50)}
				want[b] = append(want[b], cells[j].Observation())
			}
			aggs[b] = append(aggs[b], cellBody(t, cells))
		}
	}

	var posted [buckets]chan struct{}
	for b := range posted {
		posted[b] = make(chan struct{})
	}
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := p; b < buckets; b += posters {
				for _, body := range raws[b] {
					serveLocal(t, h, "/v1/ingest", body)
				}
				for _, body := range aggs[b] {
					serveLocal(t, h, "/v1/aggregates", body)
				}
				close(posted[b])
			}
		}(p)
	}
	var got []trace.Observation
	for b := range want {
		<-posted[b]
		s.q.SealThrough(netmodel.Bucket(b))
		var err error
		if got, err = s.q.ObservationsAt(context.Background(), netmodel.Bucket(b), got[:0]); err != nil {
			t.Fatalf("bucket %d: %v", b, err)
		}
		if len(got) != len(want[b]) {
			t.Fatalf("bucket %d: read %d records, posted %d", b, len(got), len(want[b]))
		}
		for i := range got {
			if got[i] != want[b][i] {
				t.Fatalf("bucket %d record %d: read %+v, posted %+v", b, i, got[i], want[b][i])
			}
		}
	}
	wg.Wait()
}

// TestSalvagedLinesSurviveBufferReuse: a salvage-mode line the frontend
// quarantined keeps its bytes after later requests reuse the body buffer
// it was read into.
func TestSalvagedLinesSurviveBufferReuse(t *testing.T) {
	s := frontendOnly()
	h := s.Handler()
	good := `{"prefix":1,"cloud":0,"device":0,"bucket":0,"samples":20,"mean_rtt_ms":40.5,"clients":9}` + "\n"
	serveLocal(t, h, "/v1/ingest?mode=salvage", []byte(good+"{not json at all}\n"+good+`{"prefix":"x"}`+"\n"))
	before := s.frontQuar.Recent()
	if len(before) != 2 {
		t.Fatalf("quarantined %d lines, want 2", len(before))
	}
	junk := []byte(strings.Repeat("#", 300) + "\n")
	for i := 0; i < 50; i++ {
		serveLocal(t, h, "/v1/ingest", []byte(strings.Repeat(good, i)))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(junk)))
	}
	after := s.frontQuar.Recent()
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("quarantined line %d changed from %q to %q", i, before[i].Line, after[i].Line)
		}
	}
}

// TestIngestDeclaredLengthBeyondLimit: a body declaring more than
// MaxBatchBytes is refused with 413 before any buffer is sized from the
// declaration, so a one-byte body claiming a terabyte costs next to
// nothing.
func TestIngestDeclaredLengthBeyondLimit(t *testing.T) {
	s := frontendOnly()
	h := s.Handler()
	r := httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader("{"))
	r.ContentLength = 1 << 40
	w := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(w, r)
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST declaring 2^40 bytes = %d (%s), want 413", w.Code, w.Body)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("the refused request allocated %d bytes, want under 1 MiB", n)
	}
}

// ingestAllocsCeiling is the gate on heap allocations per record through
// handleIngest — body read, decode, queue copy, response — over one
// 1 650-record body posted again and again. It measures 0.0061 to 0.0067:
// ten or eleven per request, none of them per record (the response and the recorder's
// headers, the query string, the body's MaxBytesReader, the queue's
// amortised growth of the bucket's slice). The benchmark's traced
// server.handle_ingest_allocs_per_record was 0.017 while every request
// allocated its body buffer and decode destination. The count is
// deterministic: find the new allocation before raising the ceiling.
const ingestAllocsCeiling = 0.0070

// TestIngestAllocsPerRecord ratchets the allocations handleIngest makes
// per record. The pooled decode destination grows by appending on the
// first request — about a dozen doublings for this body — and is reused
// after it; AllocsPerRun's warm-up call is that first request, so the
// ceiling counts the steady state only.
func TestIngestAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := frontendOnly()
	const records, runs = 1650, 40
	var body bytes.Buffer
	for i := 0; i < records; i++ {
		fmt.Fprintf(&body, `{"prefix":%d,"cloud":%d,"device":%d,"bucket":7,"samples":%d,"mean_rtt_ms":%v,"clients":%d}`+"\n",
			i, i%8, i%netmodel.NumDeviceClasses, 10+i%90, 20+float64(i)/7, 1+i%40)
	}
	reqs := make([]*http.Request, runs+1)
	ws := make([]*httptest.ResponseRecorder, runs+1)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body.Bytes()))
		ws[i] = httptest.NewRecorder()
	}
	i := 0
	perRequest := testing.AllocsPerRun(runs, func() {
		s.handleIngest(ws[i], reqs[i])
		i++
	})
	for _, w := range ws {
		if w.Code != http.StatusAccepted {
			t.Fatalf("POST = %d (%s), want 202", w.Code, w.Body)
		}
	}
	perRecord := perRequest / records
	t.Logf("%.1f allocations per request of %d records: %.4f per record", perRequest, records, perRecord)
	if perRecord > ingestAllocsCeiling {
		t.Errorf("handleIngest allocates %.4f times per record, ceiling %.4f", perRecord, ingestAllocsCeiling)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool
