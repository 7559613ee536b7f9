package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"mvg"
	"mvg/api/mvgpb"
	"mvg/internal/grpcx"
	"mvg/internal/serve/core"
	"mvg/internal/synth"
)

// workload is one traffic mix. See README.md for why each exists.
type workload struct {
	name     string
	models   []string // fixtures to train
	viaProxy bool     // the generator talks to mvgproxy instead of the replica
	drive    func(ctx context.Context, r *run) error
}

var workloads = []*workload{
	{name: "online_sparse", models: []string{"ecg"}, drive: driveSparse},
	{name: "online_fleet", models: []string{"ecg", "hurst"}, viaProxy: true, drive: driveFleet},
	{name: "batch_long", models: []string{"long"}, drive: driveBatch},
	{name: "stream_hop", models: []string{"stream"}, drive: driveStream},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// The offered load of each workload.
const (
	sparseRate    = 100 // requests/s
	fleetRate     = 800 // requests/s, about a third of what the fleet mix saturates at
	fleetECGShare = 0.7
	batchSize     = 8
	batchPool     = 768 // distinct series, so a run's mean graph size varies little by seed
	longLen       = 2048
	streamCount   = 16
	streamPeriod  = 128 * time.Millisecond // between a stream's frames: 62.5 samples/s
	streamFrame   = 8                      // samples per frame, and the hop

	poolSize    = 256 // distinct series per model; requests cycle through them
	replayCount = 64  // measured requests whose inputs the traced run replays
)

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// synthPool draws n series from a synthetic family.
func synthPool(family string, n int, seed int64) ([][]float64, error) {
	f, err := synth.ByName(family)
	if err != nil {
		return nil, err
	}
	var pool [][]float64
	err = f.EmitRows(n, seed, func(_ string, s []float64) error {
		pool = append(pool, s)
		return nil
	})
	return pool, err
}

// openPhase runs an open-loop Poisson phase at rate requests/s: a warm-up
// whose answers are checked but not timed, then the measured window. It
// returns the id of the first measured request and the measured count.
func (r *run) openPhase(ctx context.Context, rate float64, measure time.Duration, do call) (first, count int) {
	warm := secs(r.opt.warmup)
	rng := newRand(r.opt.seed, "arrivals")
	nWarm := int(rate * warm.Seconds())
	nMeasure := max(1, int(rate*measure.Seconds()))
	at := append(arrivals(rng, nWarm, 0, warm), arrivals(rng, nMeasure, warm, measure)...)
	start := time.Now()
	outs, lags := openLoop(ctx, start, at, do)
	r.lags = append(r.lags, lags...)
	var last time.Time
	for i, o := range outs {
		r.check(o.err)
		if i < nWarm || o.err != nil {
			continue
		}
		r.measure(at[i]-warm, o.lat())
		r.served++
		r.clientSpan(int64(i), start.Add(at[i]), o.done)
		if o.done.After(last) {
			last = o.done
		}
	}
	r.servedFor = last.Sub(start.Add(warm))
	r.latSpan = measure
	return nWarm, nMeasure
}

// unaryPool holds one model's request inputs, encoded ahead of the load in
// both wire formats, and the oracle's answers.
type unaryPool struct {
	model  string
	series [][]float64
	pb, js [][]byte // framed PredictRequest and JSON body per series
	proba  [][]float64
}

func (r *run) newUnaryPool(ctx context.Context, model, family string) (*unaryPool, error) {
	series, err := synthPool(family, poolSize, newRand(r.opt.seed, "pool/"+model).Int63())
	if err != nil {
		return nil, err
	}
	proba, err := r.ref[model].PredictProba(ctx, series)
	if err != nil {
		return nil, err
	}
	p := &unaryPool{model: model, series: series, proba: proba}
	for _, x := range series {
		p.pb = append(p.pb, frame(&mvgpb.PredictRequest{Model: model, Series: x}))
		p.js = append(p.js, mustJSON(jsonRequest{Series: x}))
	}
	return p, nil
}

func (p *unaryPool) predictGRPC(ctx context.Context, c *client, id, i int) error {
	var resp mvgpb.PredictProbaResponse
	err := c.unary(ctx, mvgpb.MvgMethodPredictProba, id, p.pb[i], &resp)
	return p.verify(i, resp.Proba, err)
}

func (p *unaryPool) predictJSON(ctx context.Context, c *client, id, i int) error {
	got, err := c.predictProbaJSON(ctx, id, p.model, p.js[i])
	return p.verify(i, got, err)
}

// verify checks one answered row against the oracle.
func (p *unaryPool) verify(i int, got []float64, err error) error {
	if err != nil {
		return err
	}
	if !sameBits(got, p.proba[i]) {
		return fmt.Errorf("%s input %d: proba %v, oracle %v", p.model, i, got, p.proba[i])
	}
	return nil
}

// online_sparse: every request rides alone through the coalescer.
func driveSparse(ctx context.Context, r *run) error {
	pool, err := r.newUnaryPool(ctx, "ecg", "SynthECG")
	if err != nil {
		return err
	}
	do := func(ctx context.Context, id int) error {
		return pool.predictGRPC(ctx, r.rpc, id, id%poolSize)
	}
	r.startLoad()
	first, _ := r.openPhase(ctx, sparseRate*r.opt.scale, secs(r.opt.seconds), do)
	r.replay = unarySpec(r, func(id int) (*unaryPool, int) { return pool, id % poolSize }, first, pool.model)
	return nil
}

// online_fleet: a 70/30 two-model mix through the proxy, alternating JSON
// and gRPC.
func driveFleet(ctx context.Context, r *run) error {
	ecg, err := r.newUnaryPool(ctx, "ecg", "SynthECG")
	if err != nil {
		return err
	}
	hurst, err := r.newUnaryPool(ctx, "hurst", "HurstWalks")
	if err != nil {
		return err
	}
	mixRng := newRand(r.opt.seed, "fleet/mix")
	mix := make([]*unaryPool, 4096)
	for i := range mix {
		mix[i] = hurst
		if mixRng.Float64() < fleetECGShare {
			mix[i] = ecg
		}
	}
	pick := func(id int) (*unaryPool, int) { return mix[id%len(mix)], id % poolSize }
	do := func(ctx context.Context, id int) error {
		pool, i := pick(id)
		if id%2 == 0 {
			return pool.predictJSON(ctx, r.js, id, i)
		}
		return pool.predictGRPC(ctx, r.rpc, id, i)
	}
	r.startLoad()
	first, _ := r.openPhase(ctx, fleetRate*r.opt.scale, secs(r.opt.seconds), do)
	r.replay = unarySpec(r, pick, first, ecg.model)
	return nil
}

// unarySpec builds the replay inputs of a single-series workload from its
// first measured requests; the stream replay pushes streamModel's inputs.
func unarySpec(r *run, pick func(id int) (*unaryPool, int), first int, streamModel string) replaySpec {
	spec := replaySpec{streamModel: streamModel}
	for id := first; id < first+replayCount; id++ {
		pool, i := pick(id)
		in := replayInput{model: pool.model, series: pool.series[i]}
		spec.inputs = append(spec.inputs, in)
		if len(spec.codecs) < codecCount {
			spec.codecs = append(spec.codecs, codec{
				pbReq:      pool.pb[i][grpcPrefix:],
				newPbReq:   func() grpcx.Message { return new(mvgpb.PredictRequest) },
				pbResp:     &mvgpb.PredictProbaResponse{Model: pool.model, Proba: pool.proba[i], Coalesced: true},
				jsonReq:    pool.js[i],
				newJSONReq: func() any { return new(jsonRequest) },
				jsonResp:   jsonProba{Model: pool.model, Proba: pool.proba[i], Coalesced: true},
			})
		}
	}
	spec.compute = func(ctx context.Context) ([]time.Duration, error) {
		var out []time.Duration
		for _, in := range spec.inputs {
			start := time.Now()
			if _, err := r.ref[in.model].PredictProba(ctx, [][]float64{in.series}); err != nil {
				return nil, err
			}
			out = append(out, time.Since(start))
		}
		return out, nil
	}
	for _, in := range spec.inputs {
		if in.model == spec.streamModel {
			spec.streamSamples = append(spec.streamSamples, in.series...)
		}
	}
	return spec
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed, finite request bodies are encoded
	}
	return b
}

// batch_long: one caller in a closed loop, each request a PredictBatch of
// eight 2048-point fBm series. A second caller's batches would share the
// same workers: latency would double, and vary with how the two overlap.
func driveBatch(ctx context.Context, r *run) error {
	series, _ := fbmSet(longLen, batchPool, newRand(r.opt.seed, "batch/series"))
	all, err := r.ref["long"].PredictBatch(ctx, series)
	if err != nil {
		return err
	}
	frames := make([][]byte, len(series)/batchSize)
	classes := make([][]int, len(frames))
	for b := range frames {
		classes[b] = all[b*batchSize : (b+1)*batchSize]
		req := &mvgpb.PredictBatchRequest{Model: "long"}
		for _, s := range series[b*batchSize : (b+1)*batchSize] {
			req.Batch = append(req.Batch, &mvgpb.Series{Values: s})
		}
		frames[b] = frame(req)
	}
	// The replay keeps copies of the first batches' series, so the pool's
	// series are garbage during the load and the resident set holds only
	// the encoded requests.
	r.replay = batchSpec(r, slices.Clone(series[:codecCount*batchSize]), frames, classes)
	do := func(ctx context.Context, id int) error {
		b := id % len(frames)
		var resp mvgpb.PredictBatchResponse
		if err := r.rpc.unary(ctx, mvgpb.MvgMethodPredictBatch, id, frames[b], &resp); err != nil {
			return err
		}
		for i, c := range resp.Classes {
			if i >= len(classes[b]) || int(c) != classes[b][i] {
				return fmt.Errorf("batch %d: classes %v, oracle %v", b, resp.Classes, classes[b])
			}
		}
		if len(resp.Classes) != len(classes[b]) {
			return fmt.Errorf("batch %d: %d classes, oracle %d", b, len(resp.Classes), len(classes[b]))
		}
		return nil
	}

	r.startLoad()
	start := time.Now()
	warmEnd := start.Add(secs(r.opt.warmup))
	outs, lags := closedLoop(ctx, warmEnd.Add(secs(r.opt.seconds)), do)
	r.lags = lags
	last := warmEnd
	for _, o := range outs {
		r.check(o.err)
		if o.sent.Before(warmEnd) || o.err != nil {
			continue
		}
		r.measure(o.sent.Sub(warmEnd), o.lat())
		r.served += batchSize
		r.clientSpan(int64(o.id), o.sent, o.done)
		if o.done.After(last) {
			last = o.done
		}
	}
	r.servedFor = last.Sub(warmEnd)
	r.latSpan = secs(r.opt.seconds)
	return nil
}

// batchSpec builds batch_long's replay inputs from the series of its first
// batches, in pool order, with those batches' frames and classes.
func batchSpec(r *run, series [][]float64, frames [][]byte, classes [][]int) replaySpec {
	spec := replaySpec{streamModel: "long"}
	for _, s := range series[:2*batchSize] {
		spec.inputs = append(spec.inputs, replayInput{model: "long", series: s})
		spec.streamSamples = append(spec.streamSamples, s...)
	}
	for b := 0; b < codecCount; b++ {
		resp := &mvgpb.PredictBatchResponse{Model: "long"}
		for _, c := range classes[b] {
			resp.Classes = append(resp.Classes, int32(c))
		}
		spec.codecs = append(spec.codecs, codec{
			pbReq:      frames[b][grpcPrefix:],
			newPbReq:   func() grpcx.Message { return new(mvgpb.PredictBatchRequest) },
			pbResp:     resp,
			jsonReq:    mustJSON(jsonRequest{Batch: series[b*batchSize : (b+1)*batchSize]}),
			newJSONReq: func() any { return new(jsonRequest) },
			jsonResp:   jsonClasses{Model: "long", Classes: classes[b]},
		})
	}
	spec.compute = func(ctx context.Context) ([]time.Duration, error) {
		var out []time.Duration
		for b := 0; b < 2; b++ {
			start := time.Now()
			if _, err := r.ref["long"].PredictBatch(ctx, series[b*batchSize:(b+1)*batchSize]); err != nil {
				return nil, err
			}
			out = append(out, time.Since(start))
		}
		return out, nil
	}
	return spec
}

// hopRef is the oracle's answer for one stream hop.
type hopRef struct {
	sample int64
	proba  []float64
}

// streamRefs replays every stream offline through Model.NewStream, one
// stream per CPU at a time.
func streamRefs(m *mvg.Model, samples [][]float64) ([][]hopRef, error) {
	refs := make([][]hopRef, len(samples))
	errs := make([]error, len(samples))
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for k := range samples {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			refs[k], errs[k] = replayStream(m, samples[k])
		}()
	}
	wg.Wait()
	return refs, errors.Join(errs...)
}

func replayStream(m *mvg.Model, samples []float64) ([]hopRef, error) {
	st, err := m.NewStream(streamFrame)
	if err != nil {
		return nil, err
	}
	var out []hopRef
	for _, x := range samples {
		hop, err := st.Push(x)
		if err != nil {
			return nil, err
		}
		if hop {
			_, proba, err := st.Predict(context.Background())
			if err != nil {
				return nil, err
			}
			out = append(out, hopRef{sample: int64(st.Pushed()), proba: proba})
		}
	}
	return out, nil
}

// stream_hop: sixteen StreamPredict dialogues on one connection. Each
// opens with a window of history less one hop, then sends a frame of
// eight samples every 128 ms, and every frame completes a hop. A hop's
// cost and its dialogue's scratch size depend on the window's realization
// (smoother paths make denser graphs), so each stream is a chain of
// independent half-window segments and a run samples many realizations.
func driveStream(ctx context.Context, r *run) error {
	m := r.ref["stream"]
	history := m.SeriesLen() - streamFrame
	n := max(1, int(streamCount*r.opt.scale))
	warm, measure := secs(r.opt.warmup), secs(r.opt.seconds)
	period := streamPeriod
	frames := int((warm + measure) / period)
	rng := newRand(r.opt.seed, "stream/samples")
	samples := make([][]float64, n)
	for k := range samples {
		samples[k] = fbmPath(history+frames*streamFrame, m.SeriesLen()/2, hursts[k%len(hursts)], rng)
	}
	refs, err := streamRefs(m, samples)
	if err != nil {
		return err
	}

	r.startLoad()
	start := time.Now()
	lags := make([][]time.Duration, n)
	outs := make([][]outcome, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			phase := period * time.Duration(k) / time.Duration(n)
			lags[k], outs[k] = r.dialogue(ctx, k, samples[k], history, refs[k], start.Add(phase), period)
		}()
	}
	wg.Wait()

	from, to := start.Add(warm), start.Add(warm+measure)
	last := from
	for k := range outs {
		r.lags = append(r.lags, lags[k]...)
		for j, o := range outs[k] {
			r.check(o.err)
			if o.err != nil || o.sent.Before(from) || !o.sent.Before(to) {
				continue
			}
			r.measure(o.sent.Sub(from), o.lat())
			r.served++
			r.clientSpan(hopID(k, j), o.sent, o.done)
			if o.done.After(last) {
				last = o.done
			}
		}
	}
	r.servedFor = last.Sub(from)
	r.latSpan = measure

	spec := replaySpec{streamModel: "stream", streamSamples: samples[0]}
	window := m.SeriesLen()
	for j := 0; j < replayCount && j < len(refs[0]); j++ {
		w := samples[0][j*streamFrame : j*streamFrame+window]
		spec.inputs = append(spec.inputs, replayInput{model: "stream", series: w})
		if len(spec.codecs) >= codecCount {
			continue
		}
		frame := samples[0][history+j*streamFrame : history+(j+1)*streamFrame]
		var lines strings.Builder
		for _, x := range frame {
			lines.Write(mustJSON(x))
			lines.WriteByte('\n')
		}
		pred := core.StreamPrediction{Sample: int(refs[0][j].sample), Class: core.Argmax(refs[0][j].proba), Proba: refs[0][j].proba}
		spec.codecs = append(spec.codecs, codec{
			pbReq:    (&mvgpb.StreamRequest{Samples: frame}).Marshal(),
			newPbReq: func() grpcx.Message { return new(mvgpb.StreamRequest) },
			pbResp: &mvgpb.StreamResponse{Prediction: &mvgpb.StreamPrediction{
				Sample: int64(pred.Sample), Class: int32(pred.Class), Proba: pred.Proba}},
			jsonReq:    []byte(lines.String()),
			newJSONReq: func() any { return new(float64) },
			jsonResp:   pred,
		})
	}
	spec.compute = func(ctx context.Context) ([]time.Duration, error) {
		return timedHops(ctx, m, samples[0], replayCount)
	}
	r.replay = spec
	return nil
}

// dialogue runs stream k: the open frame carries samples[:history], then
// frame f of the rest is due at start+f*period, sent whether or not
// earlier hops have answered. Frame f completes hop f. It returns each
// send's lateness and one outcome per hop, timed from its frame's due
// time.
func (r *run) dialogue(ctx context.Context, k int, samples []float64, history int, refs []hopRef, start time.Time, period time.Duration) ([]time.Duration, []outcome) {
	outs := make([]outcome, len(refs))
	for j := range outs {
		outs[j] = outcome{id: j, err: fmt.Errorf("stream %d hop %d: no prediction", k, j)}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	frames := make([][]byte, len(refs))
	for f := range frames {
		frames[f] = frame(&mvgpb.StreamRequest{Samples: samples[history+f*streamFrame : history+(f+1)*streamFrame]})
	}
	cs, err := r.rpc.stream(ctx, mvgpb.MvgMethodStreamPredict, k)
	if err == nil {
		defer cs.close()
		err = cs.send(frame(&mvgpb.StreamRequest{
			Open:    &mvgpb.StreamOpen{Model: "stream", Hop: streamFrame},
			Samples: samples[:history],
		}))
	}
	if err != nil {
		for j := range outs {
			outs[j].err = err
		}
		return nil, outs
	}

	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		defer cancel() // a dead dialogue must also stop the sender
		j := 0
		for {
			var resp mvgpb.StreamResponse
			if err := cs.recv(&resp); err != nil {
				if !errors.Is(err, io.EOF) && j < len(outs) {
					outs[j].err = fmt.Errorf("stream %d: %w", k, err)
				}
				return
			}
			now := time.Now()
			if p := resp.Prediction; p != nil && j < len(outs) {
				o := outcome{id: j, sent: start.Add(time.Duration(j) * period), done: now}
				if p.Sample != refs[j].sample || !sameBits(p.Proba, refs[j].proba) {
					o.err = fmt.Errorf("stream %d hop %d: sample %d proba %v, oracle sample %d proba %v",
						k, j, p.Sample, p.Proba, refs[j].sample, refs[j].proba)
				}
				outs[j] = o
				j++
			}
		}
	}()

	lags := make([]time.Duration, 0, len(frames))
	for f, fr := range frames {
		due := start.Add(time.Duration(f) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags = append(lags, time.Since(due))
		if err := cs.send(fr); err != nil {
			break
		}
	}
	_ = cs.closeSend()
	<-recvDone
	return lags, outs
}

// timedHops replays samples through a fresh Model.NewStream and times each
// of the first hops: pushing the hop's samples plus Predict.
func timedHops(ctx context.Context, m *mvg.Model, samples []float64, hops int) ([]time.Duration, error) {
	st, err := m.NewStream(streamFrame)
	if err != nil {
		return nil, err
	}
	var out []time.Duration
	start := time.Now()
	for _, x := range samples {
		if !st.Ready() {
			start = time.Now()
		}
		hop, err := st.Push(x)
		if err != nil {
			return nil, err
		}
		if !hop {
			continue
		}
		if _, _, err := st.Predict(ctx); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start))
		if len(out) == hops {
			break
		}
		start = time.Now()
	}
	return out, nil
}
