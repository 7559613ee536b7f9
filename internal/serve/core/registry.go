// Package core is the transport-agnostic half of the serving layer: a
// named registry of trained mvg models, a request coalescer that merges
// concurrent single-series predictions into batches for the parallel
// extraction engine, stream slots, metrics, and the Engine that ties them
// together behind typed request/response values. The Engine owns every
// per-request serving decision:
//
//   - the Admitted scope: request deadline, admission (queue or 429 shed)
//     and the 503 mapping of the server's own deadline;
//   - Predict: empty-batch and length validation, the fault points, and
//     the coalescer or direct batch prediction;
//   - RunDialogue: the stream loop, with a write deadline before every
//     write and slow-reader eviction when one expires.
//
// The HTTP and gRPC codecs (internal/serve/httpapi, internal/serve/grpcapi)
// only decode, call the engine and encode, which is what keeps the two
// transports byte-identical: every decision that affects a response value
// — status mapping, validation, coalescing, shed and eviction accounting —
// is made here, exactly once. See docs/serving.md for the layer diagram.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mvg"
)

// ModelExt is the filename extension Registry.LoadDir recognises; the
// model's registry name is the filename without it.
const ModelExt = ".mvg"

// Registry is a named collection of live models. Lookups are lock-free on
// the hot path: each name maps to an atomic pointer, so Reload swaps a new
// model in while concurrent PredictBatch callers keep the snapshot they
// started with — no request ever observes a half-loaded model.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*registryEntry
}

type registryEntry struct {
	name  string
	path  string // source file; empty for models registered in-process
	model atomic.Pointer[mvg.Model]
}

// ModelInfo is the metadata returned by GET /v1/models for one model.
type ModelInfo struct {
	Name         string   `json:"name"`
	Classes      int      `json:"classes"`
	SeriesLen    int      `json:"series_len"`
	Features     int      `json:"features"`
	FeatureNames []string `json:"feature_names"`
	Workers      int      `json:"workers"`
	Source       string   `json:"source,omitempty"`
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*registryEntry)}
}

// Register adds (or replaces) a model under the given name. path may be
// empty for models that have no backing file; such models cannot be
// reloaded.
func (r *Registry) Register(name string, m *mvg.Model, path string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		e = &registryEntry{name: name, path: path}
		r.entries[name] = e
	}
	e.path = path
	e.model.Store(m)
}

// LoadDir loads every *.mvg file in dir into the registry (name = filename
// without extension) and returns the loaded names. A file that fails to
// decode aborts the load with an error naming it.
func (r *Registry) LoadDir(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*"+ModelExt))
	if err != nil {
		return nil, fmt.Errorf("serve: scan %s: %w", dir, err)
	}
	if len(files) == 0 {
		if _, err := os.Stat(dir); err != nil {
			return nil, fmt.Errorf("serve: model dir: %w", err)
		}
		return nil, fmt.Errorf("serve: no %s files in %s", ModelExt, dir)
	}
	sort.Strings(files)
	names := make([]string, 0, len(files))
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ModelExt)
		m, err := mvg.LoadModelFile(path)
		if err != nil {
			return nil, fmt.Errorf("serve: load %q: %w", name, err)
		}
		r.Register(name, m, path)
		names = append(names, name)
	}
	return names, nil
}

// Get returns the current model registered under name. The returned model
// is a stable snapshot: it keeps serving the caller even if a Reload swaps
// the registry entry mid-request.
func (r *Registry) Get(name string) (*mvg.Model, bool) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return e.model.Load(), true
}

// Reload re-reads the model's backing file and atomically swaps it in,
// carrying the previous model's worker setting over so a reload never
// silently changes serving parallelism. In-flight predictions complete on
// the old model; requests that start after Reload returns see the new one.
func (r *Registry) Reload(name string) error {
	// Copy the path out under the lock: Register may rewrite e.path for an
	// existing entry, and reading it unlocked would race that write.
	r.mu.RLock()
	e, ok := r.entries[name]
	var path string
	if ok {
		path = e.path
	}
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("serve: unknown model %q", name)
	}
	if path == "" {
		return fmt.Errorf("serve: model %q has no backing file", name)
	}
	m, err := mvg.LoadModelFile(path)
	if err != nil {
		return fmt.Errorf("serve: reload %q: %w", name, err)
	}
	if old := e.model.Load(); old != nil {
		m.SetWorkers(old.Workers())
	}
	e.model.Store(m)
	return nil
}

// Names returns the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// List returns metadata for every registered model, sorted by name.
func (r *Registry) List() []ModelInfo {
	names := r.Names()
	out := make([]ModelInfo, 0, len(names))
	for _, name := range names {
		m, ok := r.Get(name)
		if !ok || m == nil {
			continue
		}
		r.mu.RLock()
		path := r.entries[name].path
		r.mu.RUnlock()
		featNames := m.FeatureNames()
		out = append(out, ModelInfo{
			Name:         name,
			Classes:      m.Classes(),
			SeriesLen:    m.SeriesLen(),
			Features:     len(featNames),
			FeatureNames: featNames,
			Workers:      m.Workers(),
			Source:       path,
		})
	}
	return out
}

// SetWorkers applies a worker cap to every registered model (mvgserve's
// -workers flag).
func (r *Registry) SetWorkers(workers int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.entries {
		if m := e.model.Load(); m != nil {
			m.SetWorkers(workers)
		}
	}
}
