package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"parimg/internal/fault/leakcheck"
	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/seq"
)

// pgmBytes encodes im as a P5 PGM for posting.
func pgmBytes(t *testing.T, im *image.Image) []byte {
	t.Helper()
	maxVal := 1
	for _, v := range im.Pix {
		if int(v) > maxVal {
			maxVal = int(v)
		}
	}
	var buf bytes.Buffer
	if err := im.WritePGM(&buf, maxVal); err != nil {
		t.Fatalf("WritePGM: %v", err)
	}
	return buf.Bytes()
}

func startHTTP(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	return s, ts
}

func post(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "image/x-portable-graymap", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

// TestHTTPLabelJSON posts a grey PGM and checks the JSON response carries
// the exact seq.LabelBFS labeling, the right component count, and a
// census consistent with the labels.
func TestHTTPLabelJSON(t *testing.T) {
	leakcheck.Check(t)
	s, ts := startHTTP(t, Config{Engines: 2, EngineWorkers: 1})
	defer ts.Close()
	defer s.Close()

	im := image.RandomGrey(64, 8, 3)
	want := seq.LabelBFS(im, image.Conn8, seq.Grey)
	// The retired algo and merge parameters are ignored like any unknown
	// parameter, so old clients still get the identical labeling.
	resp := post(t, ts.URL+"/label?mode=grey&census=1&labels=1&algo=bfs&merge=sv", pgmBytes(t, im))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var lr LabelResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if lr.N != im.N {
		t.Fatalf("n = %d, want %d", lr.N, im.N)
	}
	if len(lr.Labels) != len(want.Lab) {
		t.Fatalf("got %d labels, want %d", len(lr.Labels), len(want.Lab))
	}
	for i := range want.Lab {
		if lr.Labels[i] != want.Lab[i] {
			t.Fatalf("pixel %d: got %d, want %d", i, lr.Labels[i], want.Lab[i])
		}
	}
	if lr.Components != len(lr.Census) {
		t.Fatalf("components=%d but census has %d entries", lr.Components, len(lr.Census))
	}
	var pixels int
	for _, c := range lr.Census {
		pixels += c.Size
	}
	if fg := im.CountForeground(); pixels != fg {
		t.Fatalf("census sizes sum to %d, want foreground count %d", pixels, fg)
	}
}

// TestHTTPLabelPGM posts a binary pattern asking for PGM output and
// checks the returned plane is the dense row-major renumbering of the
// reference labeling (same partition, first-seen order).
func TestHTTPLabelPGM(t *testing.T) {
	s, ts := startHTTP(t, Config{Engines: 1, EngineWorkers: 1})
	defer ts.Close()
	defer s.Close()

	im := image.Generate(image.FourSquares, 32)
	want := seq.LabelBFS(im, image.Conn8, seq.Binary)
	resp := post(t, ts.URL+"/label?out=pgm", pgmBytes(t, im))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	got, err := image.ReadPGM(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("response is not a valid PGM: %v", err)
	}
	// Build the expected dense renumbering from the reference labeling.
	remap := make(map[uint32]uint32)
	var next uint32
	for i, lab := range want.Lab {
		wantVal := uint32(0)
		if lab != 0 {
			id, ok := remap[lab]
			if !ok {
				next++
				id = next
				remap[lab] = id
			}
			wantVal = id
		}
		if got.Pix[i] != wantVal {
			t.Fatalf("pixel %d: got %d, want %d", i, got.Pix[i], wantVal)
		}
	}
}

// TestHTTPLabelPGMSkipsCensus checks that census=1 applies only to JSON
// bodies: an out=pgm request with census=1 computes no census (its metrics
// document has no census phase) and returns the same bytes as one without.
func TestHTTPLabelPGMSkipsCensus(t *testing.T) {
	s, ts := startHTTP(t, Config{Engines: 1, EngineWorkers: 1})
	defer ts.Close()
	defer s.Close()

	body := pgmBytes(t, image.RandomGrey(64, 8, 5))
	// request posts body and returns the response bytes and the request's
	// metrics document, the newest in the history ring.
	request := func(query string) ([]byte, *obs.Metrics) {
		t.Helper()
		resp := post(t, ts.URL+"/label?mode=grey&"+query, body)
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v: %s", query, resp.StatusCode, err, b)
		}
		docs := s.MetricsDocs()
		return b, docs[len(docs)-1]
	}
	hasCensus := func(m *obs.Metrics) bool {
		for _, ph := range m.Phases {
			if ph.Name == "census" {
				return true
			}
		}
		return false
	}

	if _, m := request("census=1"); !hasCensus(m) {
		t.Fatal("census=1 with a JSON body recorded no census phase")
	}
	withCensus, m := request("census=1&out=pgm")
	if hasCensus(m) {
		t.Error("census=1&out=pgm computed a census the PGM body drops")
	}
	plain, _ := request("out=pgm")
	if !bytes.Equal(withCensus, plain) {
		t.Error("census=1 changed the out=pgm body")
	}
}

// TestHTTP429Saturated saturates a one-runner, one-slot server and checks
// the over-capacity request is rejected with 429 and a Retry-After hint.
func TestHTTP429Saturated(t *testing.T) {
	s, ts := startHTTP(t, Config{Engines: 1, EngineWorkers: 2, QueueDepth: 1})
	defer ts.Close()
	defer s.Close()
	blocked := blockServer(t, s, 500*time.Millisecond)

	im := image.Generate(image.Cross, 32)
	body := pgmBytes(t, im)
	fillerDone := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), Job{Image: im, Name: "filler"})
		fillerDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.sched.depthNow() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("filler never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp := post(t, ts.URL+"/label", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if err := <-blocked; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	if err := <-fillerDone; err != nil {
		t.Fatalf("filler: %v", err)
	}
}

// TestHTTP504Deadline queues a request with a deadline behind a blocked
// runner: the deadline expires in the queue and the response must be 504.
func TestHTTP504Deadline(t *testing.T) {
	s, ts := startHTTP(t, Config{Engines: 1, EngineWorkers: 2, QueueDepth: 4})
	defer ts.Close()
	defer s.Close()
	blocked := blockServer(t, s, 400*time.Millisecond)

	resp := post(t, ts.URL+"/label?deadline_ms=20", pgmBytes(t, image.Generate(image.Cross, 32)))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, b)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
		t.Fatalf("504 body not a JSON error: %v %q", err, er.Error)
	}
	if err := <-blocked; err != nil {
		t.Fatalf("blocker: %v", err)
	}
}

// TestHTTPBadRequests walks the 400 paths: malformed body, bad params.
func TestHTTPBadRequests(t *testing.T) {
	s, ts := startHTTP(t, Config{Engines: 1, EngineWorkers: 1})
	defer ts.Close()
	defer s.Close()
	good := pgmBytes(t, image.Generate(image.Cross, 16))
	for _, tc := range []struct {
		name, url string
		body      []byte
	}{
		{"garbage body", "/label", []byte("not a pgm")},
		{"bad mode", "/label?mode=sepia", good},
		{"bad conn", "/label?conn=6", good},
		{"bad out", "/label?out=bmp", good},
		{"bad deadline", "/label?deadline_ms=soon", good},
		{"negative deadline", "/label?deadline_ms=-1", good},
		// Regression: these used to pass the parse and overflow the
		// Duration multiply to a negative value, silently disabling the
		// deadline instead of rejecting the request.
		{"overflowing deadline", "/label?deadline_ms=9223372036854776", good},
		{"unparseable deadline", "/label?deadline_ms=9300000000000000000", good},
	} {
		resp := post(t, ts.URL+tc.url, tc.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestHTTPHealthzAndMetrics checks the probe endpoint answers ok and that
// /metrics serves a JSON array whose every document passes the schema
// validator, aggregate first.
func TestHTTPHealthzAndMetrics(t *testing.T) {
	s, ts := startHTTP(t, Config{Engines: 2, EngineWorkers: 1})
	defer ts.Close()
	defer s.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d: %s", resp.StatusCode, b)
	}
	var hz map[string]string
	if err := json.Unmarshal(b, &hz); err != nil || hz["status"] != "ok" {
		t.Fatalf("healthz body %q (%v)", b, err)
	}

	post(t, ts.URL+"/label?census=1", pgmBytes(t, image.Generate(image.DualSpiral, 32))).Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var docs []*obs.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&docs); err != nil {
		t.Fatalf("metrics not a JSON array of documents: %v", err)
	}
	if len(docs) < 3 { // aggregate + healthz probe + the label request
		t.Fatalf("got %d docs, want >= 3", len(docs))
	}
	for i, m := range docs {
		if err := m.Validate(); err != nil {
			t.Fatalf("doc %d fails schema validation: %v", i, err)
		}
	}
	if docs[0].Image != "aggregate" {
		t.Fatalf("first doc is %q, want the aggregate", docs[0].Image)
	}
	if docs[0].Counters["documents"] < 2 {
		t.Fatalf("aggregate documents = %d, want >= 2", docs[0].Counters["documents"])
	}
	// The per-request tail must include the upload with its phase split.
	var sawUpload bool
	for _, m := range docs[1:] {
		if m.Image == "upload" && m.WallPhaseNS("queue_wait") >= 0 && len(m.Phases) > 0 {
			sawUpload = true
		}
	}
	if !sawUpload {
		t.Fatal("no per-request document for the upload")
	}
}

// TestHTTPMethodRouting checks the mux rejects wrong methods.
func TestHTTPMethodRouting(t *testing.T) {
	s, ts := startHTTP(t, Config{Engines: 1, EngineWorkers: 1})
	defer ts.Close()
	defer s.Close()
	resp, err := http.Get(ts.URL + "/label")
	if err != nil {
		t.Fatalf("GET /label: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /label status %d, want 405", resp.StatusCode)
	}
}

// TestHTTPLabelPGM16BitRoundTrip drives the renderer into its two-byte
// sample width (more than 255 components) and feeds the response back
// through image.ReadPGM — the reader used to reject maxval above 255, so
// the service's own 16-bit output could not be re-ingested.
func TestHTTPLabelPGM16BitRoundTrip(t *testing.T) {
	s, ts := startHTTP(t, Config{Engines: 1, EngineWorkers: 1})
	defer ts.Close()
	defer s.Close()

	const n = 32 // conn4 checkerboard: n*n/2 = 512 isolated components
	im := image.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if (i+j)%2 == 0 {
				im.Set(i, j, 1)
			}
		}
	}
	want := seq.LabelBFS(im, image.Conn4, seq.Binary)
	resp := post(t, ts.URL+"/label?conn=4&out=pgm", pgmBytes(t, im))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	if !bytes.HasPrefix(body, []byte("P5\n32 32\n512\n")) {
		t.Fatalf("16-bit label PGM header = %q", body[:min(len(body), 16)])
	}
	got, err := image.ReadPGM(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("16-bit label PGM does not round-trip through ReadPGM: %v", err)
	}
	remap := make(map[uint32]uint32)
	var next uint32
	for i, lab := range want.Lab {
		wantVal := uint32(0)
		if lab != 0 {
			id, ok := remap[lab]
			if !ok {
				next++
				id = next
				remap[lab] = id
			}
			wantVal = id
		}
		if got.Pix[i] != wantVal {
			t.Fatalf("pixel %d: got %d, want %d", i, got.Pix[i], wantVal)
		}
	}
}

// TestHTTPLabelPGMTooManyComponents posts a 400×400 Conn4 checkerboard
// (80,000 single-pixel components, past the label PGM's 16-bit sample
// ceiling) with out=pgm: the answer is a 422 with a JSON error body, and
// not a byte of PGM.
func TestHTTPLabelPGMTooManyComponents(t *testing.T) {
	s, ts := startHTTP(t, Config{Engines: 1, EngineWorkers: 1})
	defer ts.Close()
	defer s.Close()

	const n = 400
	im := image.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if (i+j)%2 == 0 {
				im.Set(i, j, 1)
			}
		}
	}
	resp := post(t, ts.URL+"/label?conn=4&out=pgm", pgmBytes(t, im))
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %.80q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("body is not a JSON error (%v): %.80q", err, body)
	}
	if bytes.Contains(body, []byte("P5")) {
		t.Fatalf("422 body carries PGM bytes: %.80q", body)
	}
}
