package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"mvg/internal/grpcx"
)

// scriptedIO is a DialogueIO whose writes fail on cue. It logs every
// call in order, so a test can check what RunDialogue did around a failed
// write: which deadlines it set, and what it wrote after.
type scriptedIO struct {
	samples chan Samples
	failAt  int   // the write (1-based, Emit and EmitDone alike) that fails
	failErr error // the error it fails with

	writes       int
	failedAt     time.Time // when the failing write ran
	calls        []string
	lastDeadline time.Time
	farewell     error // what EmitError received
}

// newScriptedIO queues values as one chunk, then a clean end of stream.
func newScriptedIO(values []float64, failAt int, failErr error) *scriptedIO {
	io := &scriptedIO{samples: make(chan Samples, 1), failAt: failAt, failErr: failErr}
	io.samples <- Samples{Values: values}
	close(io.samples)
	return io
}

func (io *scriptedIO) Samples() <-chan Samples { return io.samples }

func (io *scriptedIO) write(call string) error {
	io.writes++
	io.calls = append(io.calls, call)
	if io.writes == io.failAt {
		io.failedAt = time.Now()
		return io.failErr
	}
	return nil
}

func (io *scriptedIO) Emit(StreamEvent) error    { return io.write("emit") }
func (io *scriptedIO) EmitDone(StreamDone) error { return io.write("done") }
func (io *scriptedIO) EmitError(err error) {
	io.calls = append(io.calls, "error")
	io.farewell = err
}
func (io *scriptedIO) SetWriteDeadline(t time.Time) error {
	io.calls = append(io.calls, "deadline")
	io.lastDeadline = t
	return nil
}

// runScripted runs one hop-1 dialogue over io on a fresh engine with a
// 10s write deadline and returns the engine.
func runScripted(t *testing.T, io *scriptedIO) *Engine {
	t.Helper()
	reg := NewRegistry()
	reg.Register("demo", testModel(t), "")
	e, err := NewEngine(Config{Registry: reg, StreamWriteTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.OpenDialogue(DialogueConfig{Model: "demo", Hop: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.RunDialogue(context.Background(), d, io)
	if got := e.Metrics().ActiveStreams(); got != 0 {
		t.Fatalf("active streams after the dialogue = %d, want 0", got)
	}
	return e
}

// TestRunDialogueSlowReaderEviction: a write that dies on the write
// deadline evicts the stream once, for both event and done writes. The
// eviction is counted under slow_reader and reported through EmitError
// as a StatusEvicted error with the text both transports carry, under a
// deadline set after the failed write; nothing is written after it.
func TestRunDialogueSlowReaderEviction(t *testing.T) {
	deadlineErr := fmt.Errorf("write tcp 127.0.0.1: %w", os.ErrDeadlineExceeded)
	window := testInputs(1, 60)[0]
	cases := []struct {
		name   string
		values []float64
		want   string // the call log
	}{
		// A full window plus three samples: four predictions at hop 1;
		// the second write fails.
		{"event", append(append([]float64{}, window...), window[:3]...),
			"deadline emit deadline emit deadline error"},
		// Short of a window: no prediction, so the done write is the
		// first write and fails.
		{"done", window[:testSeriesLen-1], "deadline done deadline error"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			failAt := strings.Count(tc.want, "emit") + strings.Count(tc.want, "done")
			io := newScriptedIO(tc.values, failAt, deadlineErr)
			e := runScripted(t, io)

			if got := strings.Join(io.calls, " "); got != tc.want {
				t.Fatalf("calls = %q, want %q", got, tc.want)
			}
			if got := e.Metrics().StreamEvictedTotal(EvictSlowReader); got != 1 {
				t.Fatalf("stream_evicted_total{slow_reader} = %d, want 1", got)
			}
			if got := e.Metrics().StreamEvictedTotal(EvictIdle); got != 0 {
				t.Fatalf("stream_evicted_total{idle} = %d, want 0", got)
			}
			// The deadline right before EmitError is fresh: set after the
			// failed write, a full write timeout ahead.
			if fresh := io.failedAt.Add(10 * time.Second); io.lastDeadline.Before(fresh) {
				t.Fatalf("farewell deadline %v is not fresh (failed write at %v)", io.lastDeadline, io.failedAt)
			}
			err := io.farewell
			if got := StatusOf(err); got != StatusEvicted || got.HTTP != 408 || got.GRPC != grpcx.DeadlineExceeded {
				t.Fatalf("EmitError status = %+v, want StatusEvicted (408, DEADLINE_EXCEEDED)", got)
			}
			if want := "stream evicted: slow reader (no progress within 10s write deadline)"; err.Error() != want {
				t.Fatalf("EmitError text = %q, want %q", err, want)
			}
		})
	}
}

// TestRunDialogueWriteErrorEndsSilently: any other write error is the
// client disconnecting. The dialogue ends with no eviction count and no
// EmitError.
func TestRunDialogueWriteErrorEndsSilently(t *testing.T) {
	window := testInputs(1, 61)[0]
	io := newScriptedIO(append(append([]float64{}, window...), window[:3]...), 2, errors.New("write: connection reset by peer"))
	e := runScripted(t, io)

	if got, want := strings.Join(io.calls, " "), "deadline emit deadline emit"; got != want {
		t.Fatalf("calls = %q, want %q", got, want)
	}
	if got := e.Metrics().StreamEvictedTotal(EvictSlowReader); got != 0 {
		t.Fatalf("stream_evicted_total{slow_reader} = %d, want 0", got)
	}
}
