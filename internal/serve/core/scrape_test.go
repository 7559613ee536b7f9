package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The golden scrape pins every mvgserve_* line of GET /metrics: family
// order, HELP and TYPE text, label names and order, series order and
// value formatting. Dashboards and alert rules key on these bytes, so a
// change here must be deliberate. Regenerate only for an intended scrape
// change:
//
//	go test ./internal/serve/core -run TestScrapeGolden -update-scrape

var updateScrape = flag.Bool("update-scrape", false, "rewrite testdata/scrape_*.golden from current output")

// TestScrapeGolden renders the scrape of a fresh engine, then again after
// a call sequence that reaches every family: an in-flight request, routes
// and codes out of sort order, the pre-seeded eviction and flush reasons,
// an alert gauge back at 0, and histogram observations exactly on a
// bucket bound and past the last bound.
func TestScrapeGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Register("demo", testModel(t), "")
	e, err := NewEngine(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	checkScrape(t, "scrape_empty.golden", m)

	inFlight := m.RequestStarted()
	m.RequestStarted()("predict", 429, 12) // past the last bound (10 s)
	m.RequestStarted()("predict", 200, 0.001)
	m.RequestStarted()("batch", 200, 0.003)
	m.RequestStarted()("predict", 200, 0.0001)
	m.RequestStarted()("grpc_stream", 503, 0.5)

	m.ObserveBatch(3, FlushWindow)
	m.ObserveBatch(8, FlushIdle)   // exactly on a bound
	m.ObserveBatch(300, FlushFull) // past the last bound (256)
	m.ObserveBatch(1, FlushIdle)   // FlushClose stays at its pre-seeded 0

	m.Shed()
	m.Shed()
	m.RequestTimeout()
	m.StreamEvicted(EvictSlowReader)

	m.AlertStreamStarted("spike")
	m.AlertTransition("spike", "OK", "PENDING")
	m.AlertTransition("spike", "PENDING", "FIRING")
	m.AlertStreamStarted("flip")
	m.AlertStreamEnded("flip", "OK") // back at 0, the series stays

	d, err := e.OpenDialogue(DialogueConfig{Model: "demo", Hop: 1, Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	checkScrape(t, "scrape_populated.golden", m)
	d.Close()
	inFlight("predict", 200, 0.002)
}

// checkScrape compares m's scrape with testdata/name, or rewrites the file
// under -update-scrape.
func checkScrape(t *testing.T, name string, m *Metrics) {
	t.Helper()
	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	path := filepath.Join("testdata", name)
	if *updateScrape {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden scrape (run with -update-scrape to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s: scrape differs from the golden file\n--- got ---\n%s--- want ---\n%s", name, buf.Bytes(), want)
	}
}
