package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"mvg/internal/ucr"
)

// The suite's golden test pins the SHA-256 of the float64 bits of every
// family's Generate(1) train and test splits, labels included, and of
// EmitRows(64, 1, …). The benchmark fixtures, `tsgen`, the experiments
// and the examples all train on these series, so a generator may get
// faster but its bits may not change. Regenerate only when a family is
// added or meant to change, never to absorb a difference:
//
//	go test ./internal/synth -run TestSuiteGoldenBits -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/suite_golden.json from current output")

// bitsHash accumulates labels and series as little-endian 64-bit words.
type bitsHash struct {
	h   hash.Hash
	buf [8]byte
}

func (b *bitsHash) word(u uint64) {
	binary.LittleEndian.PutUint64(b.buf[:], u)
	b.h.Write(b.buf[:])
}

func (b *bitsHash) series(label uint64, s []float64) {
	b.word(label)
	b.word(uint64(len(s)))
	for _, v := range s {
		b.word(math.Float64bits(v))
	}
}

func (b *bitsHash) sum() string { return hex.EncodeToString(b.h.Sum(nil)) }

func newBitsHash() *bitsHash { return &bitsHash{h: sha256.New()} }

func splitHash(d *ucr.Dataset) string {
	h := newBitsHash()
	for i, s := range d.Series {
		h.series(uint64(d.Labels[i]), s)
	}
	return h.sum()
}

// suiteHashes returns each family's split and row-stream hashes, keyed
// "<family>/train", "<family>/test" and "<family>/rows".
func suiteHashes(t *testing.T) map[string]string {
	got := map[string]string{}
	for _, f := range Suite() {
		train, test := f.Generate(1)
		got[f.Name+"/train"] = splitHash(train)
		got[f.Name+"/test"] = splitHash(test)
		h := newBitsHash()
		err := f.EmitRows(64, 1, func(label string, s []float64) error {
			h.h.Write([]byte(label))
			h.series(0, s)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		got[f.Name+"/rows"] = h.sum()
	}
	return got
}

func TestSuiteGoldenBits(t *testing.T) {
	// math.Exp, math.Pow and the trigonometric functions take FMA paths
	// on some architectures, and the compiler fuses multiply-adds off
	// amd64, so the pinned bits are amd64's.
	if runtime.GOARCH != "amd64" && !*updateGolden {
		t.Skip("suite bit hashes are pinned on amd64")
	}
	path := filepath.Join("testdata", "suite_golden.json")
	got := suiteHashes(t)
	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want[k] != got[k] {
			t.Errorf("%s: bits hash %s, pinned %s", k, got[k], want[k])
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d hashes, suite has %d", len(want), len(got))
	}
}
