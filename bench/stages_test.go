package main

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mvg"
	"mvg/internal/synth"
)

// TestStageReplayMatchesExtract pins the stage replay to the pipeline: the
// replayed stages must reassemble Pipeline.Extract's feature vector bit
// for bit, or the per-stage times describe some other computation.
func TestStageReplayMatchesExtract(t *testing.T) {
	inputs := map[string][][]float64{}
	for _, f := range synth.Suite() {
		train, _ := f.Generate(7)
		inputs[f.Name] = train.Series[:3]
	}
	rng := rand.New(rand.NewSource(7))
	inputs["fBm512"], _ = fbmSet(512, 3, rng)
	inputs["fBm2048"], _ = fbmSet(2048, 3, rng)

	configs := map[string]mvg.Config{
		"default":     {},
		"unprocessed": {NoDetrend: true, NoZNormalize: true},
	}
	for cname, cfg := range configs {
		p, err := mvg.NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		replay, err := newStageReplay(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, series := range inputs {
			want, err := p.Extract(context.Background(), series)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range series {
				got, st, err := replay.extract(s)
				if err != nil {
					t.Fatalf("%s/%s[%d]: %v", cname, name, i, err)
				}
				if len(got) != len(want[i]) {
					t.Fatalf("%s/%s[%d]: %d features, want %d", cname, name, i, len(got), len(want[i]))
				}
				for k := range got {
					if math.Float64bits(got[k]) != math.Float64bits(want[i][k]) {
						t.Fatalf("%s/%s[%d]: feature %d = %v, want %v", cname, name, i, k, got[k], want[i][k])
					}
				}
				if st.vgEdges < st.hvgEdges || st.hvgEdges < len(s)-1 {
					t.Fatalf("%s/%s[%d]: implausible edge counts vg=%d hvg=%d", cname, name, i, st.vgEdges, st.hvgEdges)
				}
			}
		}
	}
}
