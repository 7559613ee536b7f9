package xgb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"testing"
	"time"

	"mvg/internal/ml/mltest"
)

func TestMarshalRoundTrip(t *testing.T) {
	X, y := mltest.Blobs(100, 3, 4, 1.0, 7)
	m := New(Params{NumRounds: 10, MaxDepth: 3, Seed: 1})
	if err := m.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	raw, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &Model{}
	if err := restored.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	p1, _ := m.PredictProba(X)
	p2, err := restored.PredictProba(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		for j := range p1[i] {
			if p1[i][j] != p2[i][j] {
				t.Fatalf("prediction drift at [%d][%d]", i, j)
			}
		}
	}
	imp1, imp2 := m.FeatureImportance(), restored.FeatureImportance()
	for i := range imp1 {
		if imp1[i] != imp2[i] {
			t.Fatal("importance drift")
		}
	}
}

func TestMarshalUnfitted(t *testing.T) {
	if _, err := New(Params{}).MarshalBinary(); err == nil {
		t.Error("marshal of unfitted model should fail")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	m := &Model{}
	if err := m.UnmarshalBinary([]byte("garbage")); err == nil {
		t.Error("garbage should fail")
	}
	if err := m.UnmarshalBinary(nil); err == nil {
		t.Error("empty should fail")
	}
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	// Craft a valid-gob but semantically broken snapshot: node children
	// out of range.
	X, y := mltest.Blobs(60, 2, 3, 1.0, 3)
	m := New(Params{NumRounds: 2, MaxDepth: 2, Seed: 1})
	if err := m.Fit(X, y, 2); err != nil {
		t.Fatal(err)
	}
	raw, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt by truncating: decoder must error, not panic.
	for _, cut := range []int{1, len(raw) / 2, len(raw) - 1} {
		bad := &Model{}
		if err := bad.UnmarshalBinary(raw[:cut]); err == nil {
			t.Errorf("truncated payload (%d bytes) should fail", cut)
		}
	}
}

// encodeSnapshot gob-encodes a hand-built snapshot.
func encodeSnapshot(t testing.TB, snap modelSnapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestUnmarshalRejectsCraftedTrees(t *testing.T) {
	leaf := nodeSnapshot{Feature: -1, Weight: 0.1}
	split := func(feature, left, right int32) nodeSnapshot {
		return nodeSnapshot{Feature: feature, Threshold: 0.5, Left: left, Right: right}
	}
	// Two classes over three features; every case but "valid" breaks one
	// tree. Before validation each of these decoded, and PredictProba then
	// spun forever (a cycle) or panicked (a bad index, an empty tree).
	cases := []struct {
		name  string
		nodes []nodeSnapshot
		ok    bool
	}{
		{"valid", []nodeSnapshot{split(2, 1, 2), leaf, leaf}, true},
		{"empty tree", nil, false},
		{"self child", []nodeSnapshot{split(0, 0, 1), leaf}, false},
		{"child before node", []nodeSnapshot{split(0, 1, 2), split(1, 0, 2), leaf}, false},
		{"child beyond tree", []nodeSnapshot{split(0, 1, 3), leaf, leaf}, false},
		{"negative child", []nodeSnapshot{split(0, -1, 1), leaf}, false},
		{"feature at width", []nodeSnapshot{split(3, 1, 2), leaf, leaf}, false},
		{"feature beyond width", []nodeSnapshot{split(1<<30, 1, 2), leaf, leaf}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			snap := modelSnapshot{
				Params:  Params{NumRounds: 1},
				Classes: 2,
				Trees:   [][][]nodeSnapshot{{{leaf}, c.nodes}},
				Gain:    []float64{0, 0, 1},
			}
			m := &Model{}
			err := m.UnmarshalBinary(encodeSnapshot(t, snap))
			if c.ok {
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.PredictProba([][]float64{{0, 0, 0}, {1, 1, 1}}); err != nil {
					t.Fatal(err)
				}
				return
			}
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("UnmarshalBinary = %v, want an ErrMalformed error", err)
			}
		})
	}
}

// FuzzXGBUnmarshalBinary holds UnmarshalBinary to its contract on any
// bytes: it returns an ErrMalformed error, or a model whose PredictProba
// returns a probability vector per row without panicking or hanging.
func FuzzXGBUnmarshalBinary(f *testing.F) {
	X, y := mltest.Blobs(40, 3, 4, 1.0, 5)
	m := New(Params{NumRounds: 3, MaxDepth: 3, Seed: 1})
	if err := m.Fit(X, y, 3); err != nil {
		f.Fatal(err)
	}
	raw, err := m.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Model
		if err := m.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		classes, width := m.Dims()
		rows := [][]float64{make([]float64, width), make([]float64, width)}
		for j := range rows[1] {
			rows[1][j] = float64(j) - 1
		}
		done := make(chan error, 1)
		go func() {
			proba, err := m.PredictProba(rows)
			if err == nil && (len(proba) != len(rows) || len(proba[0]) != classes) {
				err = fmt.Errorf("got %d rows of %d classes", len(proba), len(proba[0]))
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("accepted model: PredictProba: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("accepted model: PredictProba did not return")
		}
	})
}
