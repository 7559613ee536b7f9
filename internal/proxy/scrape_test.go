package proxy

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The golden scrape pins every mvgproxy_* line of the proxy's /metrics:
// family order, HELP and TYPE text, label names, series order and value
// formatting. Regenerate only for an intended scrape change:
//
//	go test ./internal/proxy -run TestScrapeGolden -update-scrape

var updateScrape = flag.Bool("update-scrape", false, "rewrite testdata/scrape_*.golden from current output")

// TestScrapeGolden renders the proxy scrape empty, then after a call
// sequence that reaches every family: status codes and backends out of
// sort order, and a backend that went up and back down.
func TestScrapeGolden(t *testing.T) {
	m := newMetrics()
	checkScrape(t, "scrape_empty.golden", m)

	for _, code := range []int{503, 200, 429, 200, 200} {
		m.Request(code)
	}
	m.Retry()
	m.Shed()
	m.Shed()
	m.SetBackendUp("replica-b:8080", true)
	m.SetBackendUp("replica-a:8080", true)
	m.SetBackendUp("replica-c:8080", true)
	m.SetBackendUp("replica-c:8080", false)
	checkScrape(t, "scrape_populated.golden", m)
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
