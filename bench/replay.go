package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"mvg/internal/grpcx"
	"mvg/internal/serve/core"
)

// codecCount is how many of the replay inputs the codec replay encodes,
// and replayHops how many hops the stream replay times.
const (
	codecCount = 8
	replayHops = 32
)

// replaySpec is what a workload hands the traced run's replay: inputs
// taken from its own measured requests.
type replaySpec struct {
	inputs []replayInput // series whose extraction is replayed stage by stage
	codecs []codec       // request and response messages of the workload
	// compute times the model work of the measured requests alone, one
	// call at a time: what serve_core.wait_ms is measured against.
	compute func(ctx context.Context) ([]time.Duration, error)
	// streamSamples are pushed through Model.NewStream of streamModel.
	streamModel   string
	streamSamples []float64
}

type replayInput struct {
	model  string
	series []float64
}

// codec is one request and response of the workload in both wire
// formats.
type codec struct {
	pbReq      []byte
	newPbReq   func() grpcx.Message
	pbResp     grpcx.Message
	jsonReq    []byte
	newJSONReq func() any
	jsonResp   any
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// perCall times fn call after call, doubling the repetitions until the
// total is long enough for the clock to resolve, and returns the mean.
func perCall(fn func() error) (time.Duration, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	for reps := 1; ; reps *= 2 {
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		if d := time.Since(start); d >= 50*time.Microsecond || reps >= 1<<16 {
			return d / time.Duration(reps), nil
		}
	}
}

// layers derives the per-layer metrics of a traced run: wire numbers from
// its spans and counters, stage numbers from replaying its inputs through
// each layer alone on this goroutine. extra holds the numbers that exist
// on some workloads only.
func (r *run) layers(ctx context.Context, lagMs []float64) (out, extra map[string]float64, err error) {
	out, extra = map[string]float64{}, map[string]float64{}
	wire := r.tr.wire(findWorkload(r.opt.workload).viaProxy)
	out["transport.self_ms"] = median(wire.transportSelf)
	out["grpcapi.serve_ms"] = median(wire.grpcapi)
	out["loadgen.lag_p99_ms"] = quantile(lagMs, 0.99)
	out["loadgen.lag_max_ms"] = slices.Max(lagMs)
	lat := values(r.lat)
	out["loadgen.latency_p90_ms"] = quantile(lat, 0.9)
	out["loadgen.latency_p99_ms"] = quantile(lat, 0.99)
	extra["latency_p50_ms"] = r.latencyP50()
	extra["spans.linked_frac"] = float64(wire.linked) / float64(wire.requests)
	if len(wire.proxySelf) > 0 {
		extra["proxy.self_ms"] = median(wire.proxySelf)
	}
	if len(wire.httpapi) > 0 {
		extra["httpapi.serve_ms"] = median(wire.httpapi)
	}
	if err := r.counters(extra); err != nil {
		return nil, nil, err
	}

	runtime.GC()
	spec := r.replay
	compute, err := spec.compute(ctx)
	if err != nil {
		return nil, nil, err
	}
	out["serve_core.wait_ms"] = median(wire.replica) - median(msAll(compute))
	if err := r.replayStages(ctx, spec.inputs, out); err != nil {
		return nil, nil, err
	}
	if err := replayCodecs(spec.codecs, out); err != nil {
		return nil, nil, err
	}
	if err := r.replayStream(ctx, spec.streamModel, spec.streamSamples, out); err != nil {
		return nil, nil, err
	}
	for name, v := range out {
		if math.IsNaN(v) { // a layer the workload never reached
			return nil, nil, fmt.Errorf("per-layer metric %s has no samples", name)
		}
	}
	return out, extra, nil
}

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// replayStages times, on each input, the extraction Pipeline.Extract runs
// per series and the stage replay of it, in turn on this goroutine so
// both see the same processor and the same noise; and the model's
// classifier on the extracted rows. The replayed stages must rebuild
// Pipeline.Extract's features, and the classifier the model's
// probabilities, bit for bit. Each number is the fastest of several
// passes.
func (r *run) replayStages(ctx context.Context, inputs []replayInput, out map[string]float64) error {
	var models []string
	byModel := map[string][][]float64{}
	for _, in := range inputs {
		if byModel[in.model] == nil {
			models = append(models, in.model)
		}
		byModel[in.model] = append(byModel[in.model], in.series)
	}
	var extract, classify time.Duration
	var stages [7]time.Duration // preprocess, pyramid, vg, hvg, csr, motif, stats, as in stageTimes
	var vgEdges, hvgEdges int
	for _, model := range models {
		m, series := r.ref[model], byModel[model]
		sr, err := newStageReplay(m.Pipeline().Config())
		if err != nil {
			return err
		}
		booster, err := loadBooster(filepath.Join(r.st.dir, model+core.ModelExt))
		if err != nil {
			return err
		}
		feats, err := m.Pipeline().Extract(ctx, series)
		if err != nil {
			return err
		}
		want, err := m.PredictProba(ctx, series)
		if err != nil {
			return err
		}
		var bestExtract, bestClassify time.Duration
		var bestStages [7]time.Duration
		// Pass 0 warms every buffer; timed passes repeat for at least three
		// and half a second.
		began := time.Now()
		for pass := 0; pass <= 3 || (pass <= 20 && time.Since(began) < time.Second/2); pass++ {
			var te time.Duration
			var sum [7]time.Duration
			for i, s := range series {
				start := time.Now()
				whole, err := sr.extractWhole(s)
				te += time.Since(start)
				if err != nil {
					return err
				}
				got, st, err := sr.extract(s)
				if err != nil {
					return err
				}
				if !sameBits(whole, feats[i]) || !sameBits(got, feats[i]) {
					return fmt.Errorf("stage replay diverged from Pipeline.Extract on a %s input", model)
				}
				for k, d := range []time.Duration{st.preprocess, st.pyramid, st.vg, st.hvg, st.csr, st.motif, st.stats} {
					sum[k] += d
				}
				if pass == 0 {
					vgEdges += st.vgEdges
					hvgEdges += st.hvgEdges
				}
			}
			start := time.Now()
			proba, err := booster.PredictProba(feats)
			tc := time.Since(start)
			if err != nil {
				return err
			}
			if pass == 0 {
				for i := range want {
					if !sameBits(proba[i], want[i]) {
						return fmt.Errorf("classifier replay diverged from Model.PredictProba on a %s input", model)
					}
				}
				continue
			}
			if pass == 1 || te < bestExtract {
				bestExtract = te
			}
			if pass == 1 || tc < bestClassify {
				bestClassify = tc
			}
			if pass == 1 || total(sum) < total(bestStages) {
				bestStages = sum
			}
		}
		extract += bestExtract
		classify += bestClassify
		for k := range stages {
			stages[k] += bestStages[k]
		}
	}
	n := float64(len(inputs))
	for k, name := range []string{"timeseries.preprocess_us", "timeseries.pyramid_us", "visibility.vg_us",
		"visibility.hvg_us", "graph.csr_us", "motif.count_us", "graph.stats_us"} {
		out[name] = us(stages[k]) / n
	}
	out["visibility.vg_edges"] = float64(vgEdges) / n
	out["visibility.hvg_edges"] = float64(hvgEdges) / n
	out["core.extract_us"] = us(extract) / n
	out["core.stage_coverage"] = float64(total(stages)) / float64(extract)
	out["ml.classify_us"] = us(classify) / n
	return nil
}

func total(ds [7]time.Duration) (t time.Duration) {
	for _, d := range ds {
		t += d
	}
	return t
}

// replayCodecs times decoding each request and encoding each response in
// protobuf and in JSON (DisallowUnknownFields, as the HTTP codec decodes).
func replayCodecs(codecs []codec, out map[string]float64) error {
	var pbDec, pbEnc, jsDec, jsEnc []float64
	for _, c := range codecs {
		d, err := perCall(func() error { return c.newPbReq().Unmarshal(c.pbReq) })
		if err != nil {
			return err
		}
		pbDec = append(pbDec, us(d))
		d, _ = perCall(func() error { c.pbResp.Marshal(); return nil })
		pbEnc = append(pbEnc, us(d))
		d, err = perCall(func() error {
			dec := json.NewDecoder(bytes.NewReader(c.jsonReq))
			dec.DisallowUnknownFields()
			for {
				if err := dec.Decode(c.newJSONReq()); err != nil {
					if errors.Is(err, io.EOF) {
						return nil
					}
					return err
				}
			}
		})
		if err != nil {
			return err
		}
		jsDec = append(jsDec, us(d))
		var buf bytes.Buffer
		d, err = perCall(func() error { buf.Reset(); return json.NewEncoder(&buf).Encode(c.jsonResp) })
		if err != nil {
			return err
		}
		jsEnc = append(jsEnc, us(d))
	}
	out["mvgpb.decode_us"] = median(pbDec)
	out["mvgpb.encode_us"] = median(pbEnc)
	out["json.decode_us"] = median(jsDec)
	out["json.encode_us"] = median(jsEnc)
	return nil
}

// replayStream pushes samples through Model.NewStream of the model and
// through a dialogue opened on the live engine, timing Stream.Push per
// sample and, per hop, Stream.Features, Stream.Predict and the dialogue's
// pushes of that hop.
func (r *run) replayStream(ctx context.Context, model string, samples []float64, out map[string]float64) error {
	st, err := r.ref[model].NewStream(streamFrame)
	if err != nil {
		return err
	}
	var push time.Duration
	var pushes int
	var feats, preds []float64
	for _, x := range samples {
		start := time.Now()
		hop, err := st.Push(x)
		push += time.Since(start)
		pushes++
		if err != nil {
			return err
		}
		if !hop {
			continue
		}
		start = time.Now()
		if _, err := st.Features(); err != nil {
			return err
		}
		feats = append(feats, us(time.Since(start)))
		start = time.Now()
		if _, _, err := st.Predict(ctx); err != nil {
			return err
		}
		preds = append(preds, us(time.Since(start)))
		if len(preds) == replayHops {
			break
		}
	}

	d, err := r.st.engine.OpenDialogue(core.DialogueConfig{Model: model, Hop: streamFrame, Tenant: "replay"})
	if err != nil {
		return err
	}
	defer d.Close()
	var dialogue []float64
	var acc time.Duration
	hops := 0
	for _, x := range samples {
		start := time.Now()
		events, err := d.Push(ctx, x)
		acc += time.Since(start)
		if err != nil {
			return err
		}
		if len(events) == 0 {
			continue
		}
		if hops > 0 { // the first hop's pushes include filling the window
			dialogue = append(dialogue, us(acc))
		}
		acc = 0
		if hops++; hops > replayHops {
			break
		}
	}
	out["visibility.push_ns"] = float64(push) / float64(pushes)
	out["stream.features_us"] = median(feats)
	out["stream.predict_us"] = median(preds)
	out["serve_core.dialogue_push_us"] = median(dialogue)
	return nil
}

// counters reads the shed, timeout, retry and batch counters through the
// engine's and proxy's getters and their /metrics endpoints.
func (r *run) counters(extra map[string]float64) error {
	m := r.st.engine.Metrics()
	extra["serve_core.shed"] = float64(m.ShedTotal())
	extra["serve_core.timeouts"] = float64(m.RequestTimeoutTotal())
	pm := r.st.proxy.Metrics()
	extra["proxy.retries"] = float64(pm.RetriesTotal())
	extra["proxy.shed"] = float64(pm.ShedTotal())

	replica, err := scrape(r.st.httpAddr)
	if err != nil {
		return err
	}
	if n := replica["mvgserve_batch_size_count"]; n > 0 {
		extra["serve_core.batch_mean"] = replica["mvgserve_batch_size_sum"] / n
	}
	proxied, err := scrape(r.st.proxyAddr)
	if err != nil {
		return err
	}
	if n := proxied["mvgproxy_requests_total"]; n > 0 {
		extra["proxy.retry_ratio"] = extra["proxy.retries"] / n
	}
	return nil
}

// scrape reads a Prometheus text endpoint, summing each family's samples
// over their labels.
func scrape(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %q: %w", addr, line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}
