package core

import (
	"sync"
	"testing"
)

// newSlotEngine builds an engine serving the shared test model under the
// given stream limits.
func newSlotEngine(t *testing.T, maxStreams, maxPerTenant int) *Engine {
	t.Helper()
	reg := NewRegistry()
	reg.Register("demo", testModel(t), "")
	e, err := NewEngine(Config{Registry: reg, MaxStreams: maxStreams, MaxStreamsPerTenant: maxPerTenant})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func openStream(e *Engine, tenant string) (*Dialogue, error) {
	return e.OpenDialogue(DialogueConfig{Model: "demo", Hop: 1, Tenant: tenant})
}

// requireRejected checks that err is the typed rejection st with exactly
// the text clients see.
func requireRejected(t *testing.T, err error, st Status, text string) {
	t.Helper()
	if err == nil {
		t.Fatalf("open succeeded, want %q", text)
	}
	if got := StatusOf(err); got != st {
		t.Fatalf("status = %+v, want %+v (%v)", got, st, err)
	}
	if err.Error() != text {
		t.Fatalf("error = %q, want %q", err, text)
	}
}

// TestStreamSlotAccounting pins the ceiling and quota checks: the global
// ceiling is checked before the tenant quota, rejections are counted as
// sheds, Close is idempotent and freed slots are reusable.
func TestStreamSlotAccounting(t *testing.T) {
	e := newSlotEngine(t, 4, 2)
	open := func(tenant string) *Dialogue {
		t.Helper()
		d, err := openStream(e, tenant)
		if err != nil {
			t.Fatalf("open for tenant %s: %v", tenant, err)
		}
		return d
	}
	a1, a2 := open("a"), open("a")
	_, err := openStream(e, "a")
	requireRejected(t, err, StatusShed, `session: tenant stream quota reached (tenant "a" has 2 open): try again in 1s`)
	b1, b2 := open("b"), open("b")
	_, err = openStream(e, "c")
	requireRejected(t, err, StatusShed, "session: server stream limit reached (4 open): try again in 1s")
	// Tenant a is over its quota too, but the server limit answers first.
	_, err = openStream(e, "a")
	requireRejected(t, err, StatusShed, "session: server stream limit reached (4 open): try again in 1s")
	if got := e.HealthSnapshot().Streams; got != 4 {
		t.Fatalf("healthz streams = %d, want 4", got)
	}
	if got := e.Metrics().ShedTotal(); got != 3 {
		t.Fatalf("shed total = %d, want 3", got)
	}

	a1.Close()
	a1.Close() // idempotent
	if got := e.Metrics().ActiveStreams(); got != 3 {
		t.Fatalf("active streams after close = %d, want 3", got)
	}
	// The freed slot is reusable, for the same tenant and globally.
	a3 := open("a")
	for _, d := range []*Dialogue{a2, a3, b1, b2} {
		d.Close()
	}
	if got := e.Metrics().ActiveStreams(); got != 0 {
		t.Fatalf("active streams after all closes = %d, want 0", got)
	}
}

// TestStreamSlotsNegativeLimitsUnbounded: negative limits switch both
// checks off, past both defaults.
func TestStreamSlotsNegativeLimitsUnbounded(t *testing.T) {
	e := newSlotEngine(t, -1, -1)
	for i := 0; i < DefaultMaxStreams+1; i++ {
		if _, err := openStream(e, "t"); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
}

// TestDrainStreamsBroadcast: a drain closes every live dialogue's Done
// and rejects new opens with 503, while the open dialogues stay counted
// until their owners close them.
func TestDrainStreamsBroadcast(t *testing.T) {
	e := newSlotEngine(t, 0, 0)
	d1, err := openStream(e, "a")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := openStream(e, "b")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-d1.Done():
		t.Fatal("Done closed before DrainStreams")
	default:
	}
	e.DrainStreams()
	e.DrainStreams() // idempotent
	for _, d := range []*Dialogue{d1, d2} {
		select {
		case <-d.Done():
		default:
			t.Fatal("Done not closed by DrainStreams")
		}
	}
	_, err = openStream(e, "c")
	requireRejected(t, err, StatusUnavailable, "session: server draining")
	if got := StatusOf(err).HTTP; got != 503 {
		t.Fatalf("draining open maps to HTTP %d, want 503", got)
	}
	if got := e.HealthSnapshot().Streams; got != 2 {
		t.Fatalf("healthz streams after drain = %d, want 2", got)
	}
	d1.Close()
	d2.Close()
	if got := e.Metrics().ActiveStreams(); got != 0 {
		t.Fatalf("active streams after closes = %d, want 0", got)
	}
	if got := e.Metrics().ShedTotal(); got != 0 {
		t.Fatalf("a draining rejection counted as a shed: shed total = %d", got)
	}
}

// TestStreamSlotsConcurrentChurn opens and closes dialogues from many
// goroutines, and the first worker to reach halfway drains; run with
// -race. No open may exceed the ceiling, and the accounting ends at zero.
func TestStreamSlotsConcurrentChurn(t *testing.T) {
	const maxStreams = 8
	e := newSlotEngine(t, maxStreams, 4)
	var wg sync.WaitGroup
	var drain sync.Once
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if i == 100 {
					drain.Do(e.DrainStreams)
				}
				d, err := openStream(e, tenant)
				if err != nil {
					continue
				}
				if n := e.Metrics().ActiveStreams(); n > maxStreams {
					t.Errorf("%d streams open, ceiling %d", n, maxStreams)
				}
				d.Close()
			}
		}(string(rune('a' + w%2)))
	}
	wg.Wait()
	if got := e.Metrics().ActiveStreams(); got != 0 {
		t.Fatalf("active streams = %d after churn, want 0", got)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.tenantStreams) != 0 {
		t.Fatalf("tenant counts left after churn: %v", e.tenantStreams)
	}
}
