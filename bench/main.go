// Command bench is the repository's end-to-end serving benchmark. It
// trains its fixture models from a seed, saves and reloads them, brings
// up an mvgserve replica (HTTP and gRPC over one engine) behind an
// mvgproxy in-process on loopback listeners, drives one workload from the
// same process, checks every answer against an independently loaded copy
// of each model, and prints one JSON result as its last line. See
// README.md for the workloads, the metrics and how layers map to them.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload online_fleet --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload online_fleet --seed 1 --seconds 15 --trace 1
//	bash bench/run.sh --workload batch_long --seconds 15 --repeat 5
//
// With --trace 1 the run records spans at every layer boundary, replays
// the workload's inputs through each layer alone, writes
// <spans>/<workload>.spans.jsonl and <workload>.layers.json, and reports
// the per-layer metrics instead of the end-to-end ones.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mvg"
)

// options are one run's settings. Everything but the flags keeps the
// benchmark's fixed values outside tests.
type options struct {
	workload string
	seed     int64
	seconds  float64 // measured phase
	warmup   float64
	trace    bool
	spansDir string
	workDir  string
	setups   int     // set-ups timed per run; setup_s is their median
	scale    float64 // multiplies open-loop rates and the stream count
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errInvalid marks a run whose load was not the one the workload states:
// the generator fell behind its schedule or opened extra connections.
var errInvalid = errors.New("invalid run")

// Units of the reported metrics; BENCHMARK.json names the same ones.
var (
	endToEndUnits = map[string]string{
		"setup_s":        "s",
		"latency_p50_ms": "ms",
		"series_per_s":   "series/s",
		"rss_peak_mb":    "MB",
	}
	perLayerUnits = map[string]string{
		"transport.self_ms":           "ms",
		"grpcapi.serve_ms":            "ms",
		"serve_core.wait_ms":          "ms",
		"loadgen.lag_p99_ms":          "ms",
		"loadgen.lag_max_ms":          "ms",
		"loadgen.latency_p90_ms":      "ms",
		"loadgen.latency_p99_ms":      "ms",
		"mvgpb.decode_us":             "us",
		"mvgpb.encode_us":             "us",
		"json.decode_us":              "us",
		"json.encode_us":              "us",
		"timeseries.preprocess_us":    "us",
		"timeseries.pyramid_us":       "us",
		"visibility.vg_us":            "us",
		"visibility.hvg_us":           "us",
		"visibility.vg_edges":         "count",
		"visibility.hvg_edges":        "count",
		"graph.csr_us":                "us",
		"motif.count_us":              "us",
		"graph.stats_us":              "us",
		"core.extract_us":             "us",
		"core.stage_coverage":         "ratio",
		"ml.classify_us":              "us",
		"visibility.push_ns":          "ns",
		"stream.features_us":          "us",
		"stream.predict_us":           "us",
		"serve_core.dialogue_push_us": "us",
	}
)

func main() {
	opt := options{warmup: 3, setups: 5, scale: 1}
	flag.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&opt.seconds, "seconds", 20, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&opt.spansDir, "spans", filepath.Join(".bench_build", "trace"), "directory a traced run writes its spans and layer table to")
	flag.StringVar(&opt.workDir, "workdir", filepath.Join(".bench_build", "work"), "directory for the saved fixture models")
	repeat := flag.Int("repeat", 0, "run the workload this many times with seeds seed, seed+1, ... in fresh processes and print each metric's spread")
	flag.Parse()
	opt.trace = *trace == 1
	if findWorkload(opt.workload) == nil || (*trace != 0 && *trace != 1) || opt.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *repeat > 0 {
		os.Exit(repeatRuns(opt, *repeat, os.Stdout))
	}
	res, err := execute(context.Background(), opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if errors.Is(err, errInvalid) {
			os.Exit(3)
		}
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run is the state of one workload execution.
type run struct {
	opt options
	tr  *tracer
	st  *stack
	rpc *client               // the generator's gRPC connection
	js  *client               // and its JSON connection
	ref map[string]*mvg.Model // independently loaded copies: the oracle

	attempted, failed atomic.Int64
	errMu             sync.Mutex
	errs              []string

	lat       []sample        // measured latencies in ms, at when each was due
	latSpan   time.Duration   // the measured window's length
	lags      []time.Duration // lateness of every scheduled send
	served    int             // series answered in the measured window
	servedFor time.Duration   // from the window's start to its last answer
	replay    replaySpec      // inputs for the traced run's stage replay

	rss             []sample      // resident set in MB, at from the end of the warm-up
	rssSpan         time.Duration // the load phase's length after its warm-up
	rssStop, rssEnd chan struct{}
}

// sample is one value at an offset into its phase.
type sample struct {
	at time.Duration
	v  float64
}

// rssEvery is how often the load phase samples the resident set.
const rssEvery = 50 * time.Millisecond

// startLoad begins a workload's load phase: garbage from set-up and from
// computing the oracle's answers goes back to the OS, and the resident set
// is sampled until stopLoad, so rss_peak_mb is the memory serving needs.
func (r *run) startLoad() {
	debug.FreeOSMemory()
	r.rssStop, r.rssEnd = make(chan struct{}), make(chan struct{})
	warmEnd := time.Now().Add(secs(r.opt.warmup))
	go func() {
		defer close(r.rssEnd)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			r.rss = append(r.rss, sample{time.Since(warmEnd), residentMB()})
			select {
			case <-r.rssStop:
				r.rssSpan = time.Since(warmEnd)
				return
			case <-t.C:
			}
		}
	}()
}

func (r *run) stopLoad() {
	if r.rssStop != nil {
		close(r.rssStop)
		<-r.rssEnd
		r.rssStop = nil
	}
}

// rssPeak is the median over the parts of the load after its warm-up of
// each part's highest sampled resident set.
func (r *run) rssPeak() float64 { return windowed(r.rss, r.rssSpan, slices.Max) }

// check counts one attempted request and, when err is set, its failure.
func (r *run) check(err error) {
	r.attempted.Add(1)
	if err == nil {
		return
	}
	r.failed.Add(1)
	r.errMu.Lock()
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
	r.errMu.Unlock()
}

// measure records one answered request of the measured window.
func (r *run) measure(at, lat time.Duration) {
	r.lat = append(r.lat, sample{at, ms(lat)})
}

// windows is how many equal parts a phase is cut into. A windowed number
// of a phase is the median of its parts' numbers, so a burst of outside
// noise moves at most one part.
const windows = 5

// windowed cuts samples spread over [0, span) into equal parts and returns
// the median over the non-empty parts of f of each part's values; samples
// outside the span are dropped.
func windowed(xs []sample, span time.Duration, f func([]float64) float64) float64 {
	parts := make([][]float64, windows)
	for _, x := range xs {
		if x.at >= 0 && x.at < span {
			k := int(x.at * windows / span)
			parts[k] = append(parts[k], x.v)
		}
	}
	var vs []float64
	for _, p := range parts {
		if len(p) > 0 {
			vs = append(vs, f(p))
		}
	}
	return median(vs)
}

// latencyP50 is the median of the measured window's parts' p50s.
func (r *run) latencyP50() float64 {
	return windowed(r.lat, r.latSpan, median)
}

func (r *run) clientSpan(id int64, start, end time.Time) {
	if r.tr != nil {
		r.tr.add(span{Req: id, Name: "client", Start: r.tr.at(start), End: r.tr.at(end)})
	}
}

// execute runs one workload and returns its result; progress and the
// machine fingerprint go to out.
func execute(ctx context.Context, opt options, out io.Writer) (*result, error) {
	w := findWorkload(opt.workload)
	r := &run{opt: opt, ref: map[string]*mvg.Model{}}
	if opt.trace {
		r.tr = newTracer()
	}
	fp := fingerprint()
	fpLine, _ := json.Marshal(fp)
	fmt.Fprintf(out, "fingerprint %s\n", fpLine)

	if err := os.MkdirAll(opt.workDir, 0o755); err != nil {
		return nil, err
	}
	var setupTimes []float64
	var hashes map[string]string
	var dir string
	// The first set-up is not timed: it pays the process's one-time
	// costs, which swing more from run to run than the set-up itself.
	for i := 0; i <= opt.setups; i++ {
		// Only the last set-up serves the load; earlier ones are torn down
		// before the next starts its clock.
		if r.st != nil {
			r.st.close()
			os.RemoveAll(dir)
		}
		d, err := os.MkdirTemp(opt.workDir, "models-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		h, err := trainFixtures(ctx, d, w.models)
		if err != nil {
			return nil, err
		}
		st, err := startStack(d, r.tr)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			setupTimes = append(setupTimes, time.Since(start).Seconds())
		}
		if hashes == nil {
			hashes = h
		} else if !maps.Equal(hashes, h) {
			r.check(fmt.Errorf("saved model bytes differ between set-ups: %v vs %v", hashes, h))
		}
		r.st, dir = st, d
	}
	defer os.RemoveAll(dir)
	defer r.st.close()
	fmt.Fprintf(out, "models %v\n", hashes)

	for _, name := range w.models {
		m, err := loadReference(dir, name)
		if err != nil {
			return nil, err
		}
		defer m.Pipeline().Close()
		r.ref[name] = m
	}
	front := r.st.grpcAddr
	frontConns := r.st.grpcConns
	if w.viaProxy {
		front, frontConns = r.st.proxyAddr, r.st.proxyConns
	}
	setupConns := frontConns.Load() // the set-up's own health check
	r.rpc, r.js = newClient(front), newClient(front)
	defer r.rpc.close()
	defer r.js.close()
	if err := r.rpc.prime(ctx); err != nil {
		return nil, err
	}

	err := w.drive(ctx, r)
	r.stopLoad()
	if err != nil {
		return nil, err
	}

	res := &result{Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "bench: failure:", e)
	}
	late := 0
	lagMs := make([]float64, len(r.lags))
	for i, l := range r.lags {
		lagMs[i] = ms(l)
		if l > lateLimit {
			late++
		}
	}
	if len(r.lags) > 0 && float64(late) > lateShare*float64(len(r.lags)) {
		return nil, fmt.Errorf("%w: %d of %d sends left more than %v late", errInvalid, late, len(r.lags), lateLimit)
	}
	genConns := frontConns.Load() - setupConns
	if genConns > 2 {
		return nil, fmt.Errorf("%w: the generator opened %d connections", errInvalid, genConns)
	}

	if !opt.trace {
		e2e := map[string]float64{
			"setup_s":        median(setupTimes),
			"latency_p50_ms": r.latencyP50(),
			"series_per_s":   float64(r.served) / r.servedFor.Seconds(),
			"rss_peak_mb":    r.rssPeak(),
		}
		for name, v := range e2e {
			res.Metrics[name] = metric{Value: v, Unit: endToEndUnits[name]}
		}
		lat := values(r.lat)
		fmt.Fprintf(out, "setup_s %.4f (median of %d set-ups)\n", e2e["setup_s"], len(setupTimes))
		fmt.Fprintf(out, "latency p50 %.4f ms (median of %d windows), p90 %.4f ms, p99 %.4f ms (n=%d)\n",
			e2e["latency_p50_ms"], windows, quantile(lat, 0.9), quantile(lat, 0.99), len(lat))
		fmt.Fprintf(out, "series_per_s %.2f (%d series in %v)\n", e2e["series_per_s"], r.served, r.servedFor.Round(time.Millisecond))
		fmt.Fprintf(out, "rss_peak_mb %.2f (median of %d windows' peaks, %d samples)\n", e2e["rss_peak_mb"], windows, len(r.rss))
		fmt.Fprintf(out, "send lag p99 %.4f ms, max %.4f ms (n=%d, %d over %v)\n",
			quantile(lagMs, 0.99), slices.Max(append(lagMs, 0)), len(lagMs), late, lateLimit)
		return res, nil
	}

	layers, extra, err := r.layers(ctx, lagMs)
	if err != nil {
		return nil, err
	}
	extra["loadgen.conns"] = float64(genConns)
	for name, v := range layers {
		res.Metrics[name] = metric{Value: v, Unit: perLayerUnits[name]}
	}
	if err := writeLayers(opt, fp, res.Metrics, extra); err != nil {
		return nil, err
	}
	if err := r.tr.write(filepath.Join(opt.spansDir, opt.workload+".spans.jsonl")); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(extra))
	for name := range extra {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "%s %.4f\n", name, extra[name])
	}
	return res, nil
}

// writeLayers stores the traced run's per-layer numbers, those outside
// BENCHMARK.json included, next to its spans.
func writeLayers(opt options, fp map[string]any, metrics map[string]metric, extra map[string]float64) error {
	if err := os.MkdirAll(opt.spansDir, 0o755); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(map[string]any{
		"workload": opt.workload, "seed": opt.seed, "fingerprint": fp,
		"per_layer": metrics, "extra": extra,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(opt.spansDir, opt.workload+".layers.json"), append(doc, '\n'), 0o644)
}

// fingerprint identifies the machine a result was measured on.
func fingerprint() map[string]any {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "cpu": cpu,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
}

func values(xs []sample) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.v
	}
	return out
}

// residentMB reads the process's resident set (VmRSS).
func residentMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
