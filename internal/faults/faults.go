// Package faults is the repo's fault-injection surface: a registry of
// named fault points that production code consults on its failure-prone
// paths (model predicts, sink deliveries, stream writes) and that chaos
// tests arm with delays and errors.
//
// The design constraint is zero cost when disarmed: a nil *Injector is a
// valid receiver whose Fire is a single pointer comparison, so wiring a
// fault point into a hot-ish path costs nothing in production builds —
// there is no build tag to forget and no interface call. Points are plain
// strings owned by the code that fires them (see PointPredict and
// friends for the serving layer's names); tests arm them by name.
//
// Firing semantics: a point may carry a delay, a block, an error, or any
// mix. The delay is applied first, then the block (both bounded by the
// context — a cancelled context cuts the wait short and returns
// ctx.Err()), then the error, if any, is returned. An armed error may be
// bounded with FailN so the first n calls fail and later calls succeed —
// the shape of a dependency that recovers. A block holds every Fire until
// the test releases it, for a path that must stay busy exactly as long as
// the test needs.
package faults

import (
	"context"
	"sync"
	"time"
)

// Fault point names used by the serving layer. Owning them here keeps the
// chaos suite and the firing sites from drifting apart.
const (
	// PointPredict fires before every single-series predict enters its
	// model's coalescer.
	PointPredict = "serve.predict"
	// PointCoalescedBatch fires inside every coalesced batch, at flush
	// time, before the batch resolves its model. Blocking it keeps the
	// model busy, so later requests queue behind the held batch.
	PointCoalescedBatch = "serve.coalesced_batch"
	// PointBatchPredict fires before every batch-form handler prediction.
	PointBatchPredict = "serve.predict_batch"
	// PointStreamPredict fires before every per-hop stream prediction.
	PointStreamPredict = "serve.stream_predict"
)

// Fault point names used by the bulk extraction runner (internal/bulk).
// The crash-recovery suite arms these to kill a run at every interesting
// boundary — before a chunk extracts, after it extracts but before its
// shard lands, and after the shard lands but before the manifest
// checkpoint — and asserts a resumed run converges to a byte-identical
// store (docs/bulk.md).
const (
	// PointBulkChunkExtract fires before each chunk's feature extraction.
	PointBulkChunkExtract = "bulk.extract_chunk"
	// PointBulkShardWrite fires after extraction, before the chunk's shard
	// file is written.
	PointBulkShardWrite = "bulk.write_shard"
	// PointBulkManifestWrite fires after the shard landed, before the
	// manifest checkpoint that records it.
	PointBulkManifestWrite = "bulk.write_manifest"
)

// Injector is a concurrency-safe registry of armed fault points. The zero
// value and the nil pointer are both valid, permanently-disarmed
// injectors.
type Injector struct {
	mu     sync.Mutex
	points map[string]*rule
}

type rule struct {
	delay     time.Duration
	err       error
	remaining int // calls left to fail; -1 = unbounded
	fired     uint64
	gate      chan struct{} // set by Block; closed by its release
}

// New returns an empty (disarmed) Injector.
func New() *Injector { return &Injector{} }

func (in *Injector) rule(point string) *rule {
	if in.points == nil {
		in.points = make(map[string]*rule)
	}
	r, ok := in.points[point]
	if !ok {
		r = &rule{remaining: -1}
		in.points[point] = r
	}
	return r
}

// Delay arms point with a sleep applied on every Fire until Clear.
func (in *Injector) Delay(point string, d time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rule(point).delay = d
}

// Fail arms point to return err on every Fire until Clear.
func (in *Injector) Fail(point string, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.rule(point)
	r.err = err
	r.remaining = -1
}

// FailN arms point to return err on the next n Fires, then succeed — the
// shape of a dependency that recovers after a bounded outage.
func (in *Injector) FailN(point string, n int, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.rule(point)
	r.err = err
	r.remaining = n
}

// Block arms point so every Fire waits until release is called or its
// context is done. release lets every waiting Fire go on and disarms the
// block; calling it again is a no-op. Clear and Reset stop later Fires
// from blocking, but only release frees the ones already waiting.
func (in *Injector) Block(point string) (release func()) {
	in.mu.Lock()
	defer in.mu.Unlock()
	gate := make(chan struct{})
	in.rule(point).gate = gate
	var once sync.Once
	return func() {
		once.Do(func() {
			in.mu.Lock()
			if r, ok := in.points[point]; ok && r.gate == gate {
				r.gate = nil
			}
			in.mu.Unlock()
			close(gate)
		})
	}
}

// Clear disarms one point; its fire count is preserved.
func (in *Injector) Clear(point string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if r, ok := in.points[point]; ok {
		r.delay, r.err, r.remaining, r.gate = 0, nil, -1, nil
	}
}

// Reset disarms every point and zeroes all fire counts.
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.points = nil
}

// Count reports how many times point has fired (armed or not, a Fire on a
// known point counts; an unarmed, never-armed point reports zero).
func (in *Injector) Count(point string) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if r, ok := in.points[point]; ok {
		return r.fired
	}
	return 0
}

// Fire consults point: it sleeps through an armed delay and waits out an
// armed block (either cut short by ctx, whose error is then returned) and
// returns the armed error, if any. On a nil Injector or an unarmed point
// it returns nil immediately.
func (in *Injector) Fire(ctx context.Context, point string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	r, ok := in.points[point]
	if !ok {
		in.mu.Unlock()
		return nil
	}
	r.fired++
	delay, gate := r.delay, r.gate
	var err error
	if r.err != nil && r.remaining != 0 {
		err = r.err
		if r.remaining > 0 {
			r.remaining--
		}
	}
	in.mu.Unlock()

	if delay > 0 {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return err
}
