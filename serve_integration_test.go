package parimg

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"parimg/internal/serve"
)

// The end-to-end contract of the labeling service on the benchmark scene:
// POSTing darpa_before.pgm must return the exact census of the sequential
// reference labeling, byte-for-byte stable across runs (census order is
// size-descending with label tie-breaks, and the JSON field order is
// fixed), so the golden file doubles as the CI serve-smoke expectation.

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

const serveCensusGolden = "testdata/serve_darpa_census.json"

// TestServeDarpaCensusGolden drives the full HTTP path — PGM decode,
// scheduler, pooled engine, census — on the DARPA benchmark image and pins
// the response body against the committed golden. Regenerate with
// `go test -run TestServeDarpaCensusGolden -update .` after an intentional
// census or response-format change.
func TestServeDarpaCensusGolden(t *testing.T) {
	pgm, err := os.ReadFile("darpa_before.pgm")
	if err != nil {
		t.Fatalf("reading benchmark image: %v", err)
	}

	s, err := serve.New(serve.Config{Engines: 2, EngineWorkers: 1, Oversubscribe: 64})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/label?mode=grey&census=1", "image/x-portable-graymap", bytes.NewReader(pgm))
	if err != nil {
		t.Fatalf("POST /label: %v", err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body.Bytes())
	}

	// Semantic check first: the served census must equal the census of the
	// sequential reference labeling, independent of the golden's freshness.
	var lr serve.LabelResponse
	if err := json.Unmarshal(body.Bytes(), &lr); err != nil {
		t.Fatalf("response is not LabelResponse JSON: %v", err)
	}
	im, err := ReadPGM(bytes.NewReader(pgm))
	if err != nil {
		t.Fatalf("re-reading benchmark image: %v", err)
	}
	want, err := Census(must(LabelSequential(im, Conn8, Grey)), im)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Components != len(want) {
		t.Fatalf("components = %d, want %d", lr.Components, len(want))
	}
	if len(lr.Census) != len(want) {
		t.Fatalf("census has %d entries, want %d", len(lr.Census), len(want))
	}
	for i := range want {
		if lr.Census[i] != want[i] {
			t.Fatalf("census[%d] = %+v, want %+v", i, lr.Census[i], want[i])
		}
	}

	if *updateGolden {
		if err := os.WriteFile(serveCensusGolden, body.Bytes(), 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
		t.Logf("rewrote %s (%d bytes)", serveCensusGolden, body.Len())
		return
	}
	golden, err := os.ReadFile(serveCensusGolden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	if !bytes.Equal(body.Bytes(), golden) {
		t.Fatalf("response differs from %s (%d vs %d bytes); rerun with -update if the change is intentional",
			serveCensusGolden, body.Len(), len(golden))
	}
}
