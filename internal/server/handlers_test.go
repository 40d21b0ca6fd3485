package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"blameit/internal/active"
	"blameit/internal/ingest"
	"blameit/internal/netmodel"
	"blameit/internal/quartet"
	"blameit/internal/trace"
)

// TestIngestValidBatch: a well-formed JSONL batch is accepted atomically
// and accounted in the serving metrics and health snapshot.
func TestIngestValidBatch(t *testing.T) {
	e := newTestEnv(t, nil)
	obs := e.bucketObs(0)
	if len(obs) == 0 {
		t.Fatal("bucket 0 generated no observations")
	}
	status, body := e.post(t, "/v1/ingest", jsonlBody(t, obs))
	if status != http.StatusAccepted {
		t.Fatalf("POST /v1/ingest = %d (%s), want 202", status, body)
	}
	var ir ingestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatalf("decoding ingest response: %v", err)
	}
	if ir.Accepted != len(obs) || ir.Rejected != 0 {
		t.Fatalf("ingest response = %+v, want accepted=%d rejected=0", ir, len(obs))
	}
	counters, _ := e.metricsSnapshot(t)
	if got := counters["server.ingest.batches"]; got != 1 {
		t.Errorf("server.ingest.batches = %d, want 1", got)
	}
	if got := counters["server.ingest.records"]; got != int64(len(obs)) {
		t.Errorf("server.ingest.records = %d, want %d", got, len(obs))
	}
	hs, h := e.health(t)
	if hs != http.StatusOK || h.Status != "ok" || h.Backend != "running" {
		t.Errorf("healthz = %d %q/%q, want 200 ok/running", hs, h.Status, h.Backend)
	}
	// Bucket 0 is unsealed (no later record arrived), so everything is
	// still queued.
	if h.QueueDepth != len(obs) || h.Ingested != int64(len(obs)) {
		t.Errorf("healthz queue_depth=%d ingested=%d, want %d/%d", h.QueueDepth, h.Ingested, len(obs), len(obs))
	}
}

// TestIngestMethodNotAllowed: the method-scoped routes answer 405, not a
// panic or a 404.
func TestIngestMethodNotAllowed(t *testing.T) {
	e := newTestEnv(t, nil)
	status, _ := e.get(t, "/v1/ingest")
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/ingest = %d, want 405", status)
	}
	resp, err := e.ts.Client().Post(e.ts.URL+"/v1/verdicts", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/verdicts = %d, want 405", resp.StatusCode)
	}
}

// TestIngestMalformedStrict: one undecodable line fails the whole batch
// with 400 and nothing is enqueued — strict mode is atomic.
func TestIngestMalformedStrict(t *testing.T) {
	e := newTestEnv(t, nil)
	good := jsonlBody(t, e.bucketObs(0)[:1])
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"garbage line", append(append([]byte{}, good...), []byte("not json at all\n")...)},
		{"truncated record", []byte(`{"prefix":1,"cloud":0,"device":0,"bucket":0,"sam`)},
		{"nan rtt", []byte(`{"prefix":1,"cloud":0,"device":0,"bucket":0,"samples":9,"mean_rtt_ms":NaN,"clients":3}` + "\n")},
		{"binary junk", []byte{0xff, 0xfe, 0x00, 0x01, '\n'}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, body := e.post(t, "/v1/ingest", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("POST = %d (%s), want 400", status, body)
			}
		})
	}
	counters, _ := e.metricsSnapshot(t)
	if got := counters["server.ingest.rejected_batches"]; got != 4 {
		t.Errorf("server.ingest.rejected_batches = %d, want 4", got)
	}
	_, h := e.health(t)
	if h.QueueDepth != 0 || h.Ingested != 0 {
		t.Errorf("queue after strict rejections: depth=%d ingested=%d, want 0/0", h.QueueDepth, h.Ingested)
	}
}

// TestIngestSalvageMode: ?mode=salvage diverts undecodable lines to the
// ingestion quarantine and keeps the decodable remainder.
func TestIngestSalvageMode(t *testing.T) {
	e := newTestEnv(t, nil)
	obs := e.bucketObs(0)
	var body bytes.Buffer
	body.Write(jsonlBody(t, obs[:1]))
	body.WriteString("### corrupted by the collector ###\n")
	body.Write(jsonlBody(t, obs[1:2]))
	body.WriteString(`{"prefix":1,"cloud":0,"device":0,"bucket":0,"trunc`)

	status, resp := e.post(t, "/v1/ingest?mode=salvage", body.Bytes())
	if status != http.StatusAccepted {
		t.Fatalf("POST salvage = %d (%s), want 202", status, resp)
	}
	var ir ingestResponse
	if err := json.Unmarshal(resp, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 2 || ir.Rejected != 2 {
		t.Fatalf("salvage response = %+v, want accepted=2 rejected=2", ir)
	}
	counters, _ := e.metricsSnapshot(t)
	if got := counters["ingest.quarantine.malformed"]; got != 2 {
		t.Errorf("ingest.quarantine.malformed = %d, want 2", got)
	}
	_, h := e.health(t)
	if h.FrontQuar != 2 {
		t.Errorf("healthz frontend_quarantined = %d, want 2", h.FrontQuar)
	}
	if h.QueueDepth != 2 {
		t.Errorf("healthz queue_depth = %d, want 2", h.QueueDepth)
	}
}

// TestIngestOversizedBatch: bodies beyond MaxBatchBytes answer 413.
func TestIngestOversizedBatch(t *testing.T) {
	e := newTestEnv(t, func(c *Config) { c.MaxBatchBytes = 256 })
	obs := e.bucketObs(0)
	body := jsonlBody(t, obs)
	if len(body) <= 256 {
		t.Fatalf("bucket 0 body is %d bytes; need > 256 to exercise the limit", len(body))
	}
	status, resp := e.post(t, "/v1/ingest", body)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST = %d (%s), want 413", status, resp)
	}
	counters, _ := e.metricsSnapshot(t)
	if got := counters["server.ingest.oversized"]; got != 1 {
		t.Errorf("server.ingest.oversized = %d, want 1", got)
	}
	_, h := e.health(t)
	if h.QueueDepth != 0 {
		t.Errorf("queue_depth = %d after a 413, want 0", h.QueueDepth)
	}
}

// TestReadBatchSizing: the body lands in one buffer sized from the declared
// length — never from a length beyond the limit — and an undeclared or
// understated length still yields every byte.
func TestReadBatchSizing(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 1<<12) // 64 KiB
	read := func(declared, limit int64) ([]byte, error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/ingest", io.NopCloser(bytes.NewReader(body)))
		r.ContentLength = declared
		return readBatch(httptest.NewRecorder(), r, limit, new(bytes.Buffer))
	}
	for _, declared := range []int64{int64(len(body)), -1, 100} {
		got, err := read(declared, 1<<20)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("declared %d: read %d bytes, err %v; want all %d", declared, len(got), err, len(body))
		}
		// One allocation, rounded up to a size class — not a doubling.
		if declared == int64(len(body)) && cap(got) >= 3*len(body)/2 {
			t.Errorf("declared %d: buffer grew to %d", declared, cap(got))
		}
	}
	var tooLarge *http.MaxBytesError
	got, err := read(1<<40, 1024) // a declared terabyte must not be believed
	if !errors.As(err, &tooLarge) || cap(got) > 1024+2*bytes.MinRead {
		t.Fatalf("over the limit: err %v with a %d-byte buffer, want MaxBytesError and about 1 KiB", err, cap(got))
	}
}

// TestIngestBackpressure: a batch that would overflow MaxPendingRecords
// answers 429 with Retry-After, enqueues nothing, and leaves the earlier
// batch intact — whole-batch admission.
func TestIngestBackpressure(t *testing.T) {
	e := newTestEnv(t, func(c *Config) {
		c.MaxPendingRecords = 4
		c.ManualSeal = true // the backend never consumes: the queue stays full
	})
	obs := e.bucketObs(0)
	if len(obs) < 6 {
		t.Fatalf("bucket 0 has %d observations; need >= 6", len(obs))
	}
	if status, body := e.post(t, "/v1/ingest", jsonlBody(t, obs[:3])); status != http.StatusAccepted {
		t.Fatalf("first POST = %d (%s), want 202", status, body)
	}
	resp, err := e.ts.Client().Post(e.ts.URL+"/v1/ingest", "application/x-ndjson", bytes.NewReader(jsonlBody(t, obs[3:6])))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow POST = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response carries no Retry-After header")
	}
	counters, _ := e.metricsSnapshot(t)
	if got := counters["server.ingest.backpressure"]; got != 1 {
		t.Errorf("server.ingest.backpressure = %d, want 1", got)
	}
	_, h := e.health(t)
	if h.QueueDepth != 3 {
		t.Errorf("queue_depth = %d after the refused batch, want 3", h.QueueDepth)
	}
}

// TestIngestCorruptRecordsQuarantined: records that decode but carry
// values no collector can emit — the chaos corruption shapes, and a device
// class outside the enum on either feed — pass the frontend and are
// quarantined as corrupt by the backend at step time, without failing the
// step or fabricating an error.
func TestIngestCorruptRecordsQuarantined(t *testing.T) {
	e := newTestEnv(t, nil)
	obs := e.bucketObs(0)
	if len(obs) < 6 {
		t.Fatalf("bucket 0 has %d observations; need >= 6", len(obs))
	}
	numPrefixes := netmodel.PrefixID(len(e.feed.World.Prefixes))
	corrupt := []trace.Observation{obs[0], obs[1], obs[2], obs[3], obs[4]}
	corrupt[0].MeanRTT = -5                                             // negative RTT
	corrupt[1].Samples = -1                                             // negative sample count
	corrupt[2].Clients = -3                                             // negative client count
	corrupt[3].Prefix = numPrefixes                                     // prefix outside the world
	corrupt[4].Device = netmodel.DeviceClass(netmodel.NumDeviceClasses) // device class outside the enum
	batch := append(append([]trace.Observation{}, obs...), corrupt...)

	if status, body := e.post(t, "/v1/ingest", jsonlBody(t, batch)); status != http.StatusAccepted {
		t.Fatalf("POST = %d (%s), want 202", status, body)
	}
	cell := ingest.AggCell{Agent: 1, Bucket: 0, Prefix: obs[5].Prefix, Cloud: obs[5].Cloud, Device: -1,
		Samples: obs[5].Samples, MeanRTT: obs[5].MeanRTT, Clients: obs[5].Clients}
	if status, body := e.post(t, "/v1/aggregates", cellBody(t, []ingest.AggCell{cell})); status != http.StatusAccepted {
		t.Fatalf("POST /v1/aggregates = %d (%s), want 202", status, body)
	}
	e.seal(t, 0)
	e.shutdown(t) // drains: bucket 0 is stepped and the window flushed

	counters, _ := e.metricsSnapshot(t)
	if got := counters["ingest.quarantine.corrupt"]; got != 6 {
		t.Errorf("ingest.quarantine.corrupt = %d, want 6", got)
	}
	if q := e.srv.Pipeline().Quarantine(); q.Total() != 6 {
		t.Errorf("pipeline quarantine total = %d (%s), want 6", q.Total(), q)
	}
	if status, _ := e.get(t, "/v1/reports/0"); status != http.StatusOK {
		t.Errorf("GET /v1/reports/0 after drain = %d, want 200", status)
	}
}

// TestIngestLateRecordsQuarantined: records arriving for a bucket the
// backend already consumed are delivered with the next read and rejected
// as late — the chaos late-delivery path, over HTTP.
func TestIngestLateRecordsQuarantined(t *testing.T) {
	e := newTestEnv(t, nil)
	obs0, obs1 := e.bucketObs(0), e.bucketObs(1)
	var first bytes.Buffer
	first.Write(jsonlBody(t, obs0))
	first.Write(jsonlBody(t, obs1))
	if status, body := e.post(t, "/v1/ingest", first.Bytes()); status != http.StatusAccepted {
		t.Fatalf("POST = %d (%s), want 202", status, body)
	}
	// The bucket-1 arrivals sealed bucket 0; wait until the backend has
	// consumed it, leaving exactly bucket 1 pending.
	waitFor(t, "backend to consume bucket 0", func() bool {
		_, h := e.health(t)
		return h.QueueDepth == len(obs1)
	})
	// Now bucket 0 is behind the frontier: these records are late.
	if status, body := e.post(t, "/v1/ingest", jsonlBody(t, obs0)); status != http.StatusAccepted {
		t.Fatalf("late POST = %d (%s), want 202", status, body)
	}
	e.seal(t, 1)
	e.shutdown(t)

	counters, _ := e.metricsSnapshot(t)
	if got := counters["ingest.quarantine.late"]; got != int64(len(obs0)) {
		t.Errorf("ingest.quarantine.late = %d, want %d", got, len(obs0))
	}
}

// TestReadEndpointErrors: malformed read requests get 400/404 JSON
// errors, never a panic.
func TestReadEndpointErrors(t *testing.T) {
	e := newTestEnv(t, nil)
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/reports/abc", http.StatusBadRequest},
		{"/v1/reports/12345", http.StatusNotFound},
		{"/v1/verdicts?since=zzz", http.StatusBadRequest},
		{"/v1/verdicts", http.StatusOK},
		{"/v1/reports", http.StatusOK},
	} {
		if status, body := e.get(t, tc.path); status != tc.want {
			t.Errorf("GET %s = %d (%s), want %d", tc.path, status, body, tc.want)
		}
	}
	for _, body := range []string{`{bad json`, `{"through":-3}`, ``} {
		if status, resp := e.post(t, "/v1/seal", []byte(body)); status != http.StatusBadRequest {
			t.Errorf("POST /v1/seal %q = %d (%s), want 400", body, status, resp)
		}
	}
}

// TestVerdictsMatchEncodingJSON holds GET /v1/verdicts, appended by the
// canonical report's verdict encoder, to the bytes a json.Encoder writes
// for the same windows — every retained report's, and a ?since= subset —
// over half a day of a faulted world, which makes verdicts of every kind.
func TestVerdictsMatchEncodingJSON(t *testing.T) {
	e := newTestEnv(t, nil)
	var batch bytes.Buffer
	for b := netmodel.Bucket(0); b < netmodel.BucketsPerDay/2; b++ {
		batch.Write(jsonlBody(t, e.bucketObs(b)))
	}
	e.mustPost(t, "/v1/ingest", batch.Bytes())
	e.seal(t, netmodel.BucketsPerDay/2-1)
	e.shutdown(t)

	for _, since := range []netmodel.Bucket{-1, netmodel.BucketsPerDay / 4} {
		want := []verdictWindow{}
		verdicts := 0
		e.srv.reports.each(func(sr *storedReport) {
			if sr.to < since {
				return
			}
			vs := sr.verdicts
			if vs == nil {
				vs = []active.Verdict{}
			}
			want = append(want, verdictWindow{From: sr.from, To: sr.to, Verdicts: vs})
			verdicts += len(vs)
		})
		var wantBody bytes.Buffer
		if err := json.NewEncoder(&wantBody).Encode(want); err != nil {
			t.Fatal(err)
		}
		path := "/v1/verdicts"
		if since >= 0 {
			path = fmt.Sprintf("/v1/verdicts?since=%d", since)
		}
		status, body := e.get(t, path)
		switch {
		case status != http.StatusOK:
			t.Fatalf("GET %s = %d (%s)", path, status, body)
		case verdicts == 0:
			t.Fatalf("GET %s: no verdicts in %d windows; the check needs some", path, len(want))
		case !bytes.Equal(body, wantBody.Bytes()):
			t.Fatalf("GET %s served\n%s\nencoding/json writes\n%s", path, body, wantBody.Bytes())
		}
	}
}

// TestVerdictsSinceFilter: ?since= keeps only windows ending at or after
// the bucket.
func TestVerdictsSinceFilter(t *testing.T) {
	e := newTestEnv(t, nil)
	var batch bytes.Buffer
	for b := netmodel.Bucket(0); b <= 6; b++ {
		batch.Write(jsonlBody(t, e.bucketObs(b)))
	}
	if status, body := e.post(t, "/v1/ingest", batch.Bytes()); status != http.StatusAccepted {
		t.Fatalf("POST = %d (%s), want 202", status, body)
	}
	e.seal(t, 6)
	e.shutdown(t) // reports at buckets 2 and 5, plus the flushed [6,6]

	var all, since []verdictWindow
	_, body := e.get(t, "/v1/verdicts")
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("verdict windows = %d, want 3 (buckets 0-2, 3-5, 6)", len(all))
	}
	_, body = e.get(t, fmt.Sprintf("/v1/verdicts?since=%d", 5))
	if err := json.Unmarshal(body, &since); err != nil {
		t.Fatal(err)
	}
	if len(since) != 2 || since[0].To != 5 {
		t.Fatalf("since=5 windows = %+v, want the 3-5 and 6-6 windows", since)
	}
}

// TestAggregateCellsCountAsQueueDepth: cells accepted on /v1/aggregates
// wait in the one ingest queue, so /healthz queue_depth and the
// server.ingest.queue_depth gauge count them while they wait and read zero
// once the backend has consumed them.
func TestAggregateCellsCountAsQueueDepth(t *testing.T) {
	e := newTestEnv(t, func(c *Config) { c.ManualSeal = true })
	obs := e.bucketObs(0)
	half := len(obs) / 2
	e.mustPost(t, "/v1/aggregates", aggBody(t,
		partialOf(quartet.PartialID{Agent: 0, Seq: 1}, 0, obs[:half]),
		partialOf(quartet.PartialID{Agent: 1, Seq: 1}, 0, obs[half:])))
	depth := func() (health int, gauge int64) {
		_, h := e.health(t)
		_, gauges := e.metricsSnapshot(t)
		return h.QueueDepth, gauges["server.ingest.queue_depth"]
	}
	if h, g := depth(); h != len(obs) || g != int64(len(obs)) {
		t.Fatalf("with %d cells waiting: healthz queue_depth = %d, gauge = %d", len(obs), h, g)
	}
	e.seal(t, 0)
	waitFor(t, "the backend to consume bucket 0", func() bool {
		h, g := depth()
		return h == 0 && g == 0
	})
}

// TestBackpressureOnlyOnRefusedPosts pins the admission contract: the two
// feeds share one budget, server.ingest.backpressure counts exactly the
// 429s answered to ingest and aggregates POSTs, an accepted batch never
// counts, and POST /v1/seal — which moves a watermark and queues nothing —
// is never refused, full queue or not.
func TestBackpressureOnlyOnRefusedPosts(t *testing.T) {
	e := newTestEnv(t, func(c *Config) {
		c.ManualSeal = true // nothing drains before the seal
		c.MaxPendingRecords = 10
	})
	obs := e.bucketObs(0)
	if len(obs) < 12 {
		t.Fatalf("bucket 0 has %d observations; need >= 12", len(obs))
	}
	partial := func(agent int, obs []trace.Observation) []byte {
		return aggBody(t, partialOf(quartet.PartialID{Agent: agent, Seq: 1}, 0, obs))
	}
	refused := 0
	for i, step := range []struct {
		path string
		body []byte
		want int
	}{
		{"/v1/aggregates", partial(0, obs[:4]), http.StatusAccepted},
		{"/v1/ingest", jsonlBody(t, obs[4:10]), http.StatusAccepted}, // the queue is now exactly full
		{"/v1/aggregates", partial(1, obs[10:11]), http.StatusTooManyRequests},
		{"/v1/ingest", jsonlBody(t, obs[10:11]), http.StatusTooManyRequests},
		{"/v1/seal", []byte(`{"through":0}`), http.StatusAccepted},
	} {
		status, body := e.post(t, step.path, step.body)
		if status != step.want {
			t.Fatalf("step %d: POST %s = %d (%s), want %d", i, step.path, status, body, step.want)
		}
		if status == http.StatusTooManyRequests {
			refused++
		}
	}
	counters, _ := e.metricsSnapshot(t)
	if got := counters["server.ingest.backpressure"]; got != int64(refused) {
		t.Errorf("server.ingest.backpressure = %d after %d refused POSTs", got, refused)
	}
}
