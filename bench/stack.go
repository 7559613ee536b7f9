package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mvg"
	"mvg/internal/grpcx"
	"mvg/internal/proxy"
	"mvg/internal/serve/core"
	"mvg/internal/serve/grpcapi"
	"mvg/internal/serve/httpapi"
	"mvg/internal/synth"
)

// fixture is one model the benchmark trains, saves and serves.
type fixture struct {
	cfg   mvg.Config
	train func(rng *rand.Rand) (series [][]float64, labels []int, classes int)
}

// fixtures are keyed by registry name. "long" and "stream" learn the
// Hurst class of benchmark-generated fBm; "stream" disables window-relative
// preprocessing so Model.NewStream runs the incremental ring path.
var fixtures = map[string]fixture{
	"ecg":    {train: synthTrain("SynthECG")},
	"hurst":  {train: synthTrain("HurstWalks")},
	"long":   {train: fbmTrain(2048, 24)},
	"stream": {cfg: mvg.Config{NoDetrend: true, NoZNormalize: true}, train: fbmTrain(512, 30)},
}

func synthTrain(family string) func(*rand.Rand) ([][]float64, []int, int) {
	return func(rng *rand.Rand) ([][]float64, []int, int) {
		f, err := synth.ByName(family)
		if err != nil {
			panic(err) // the family names above are fixed
		}
		train, _ := f.Generate(rng.Int63())
		return train.Series, train.Labels, f.Classes
	}
}

func fbmTrain(n, count int) func(*rand.Rand) ([][]float64, []int, int) {
	return func(rng *rand.Rand) ([][]float64, []int, int) {
		series, labels := fbmSet(n, count, rng)
		return series, labels, len(hursts)
	}
}

// fixtureSeed seeds the fixtures' training data. It is fixed, unlike the
// traffic's seed: every run serves the same models, so set-up does the same
// work each time and the saved bytes must hash identically across runs.
const fixtureSeed = 1

// trainFixtures trains the named fixtures and saves each to
// dir/<name>.mvg, returning the SHA-256 of every saved file.
func trainFixtures(ctx context.Context, dir string, names []string) (map[string]string, error) {
	hashes := make(map[string]string, len(names))
	for _, name := range names {
		fx := fixtures[name]
		series, labels, classes := fx.train(newRand(fixtureSeed, "train/"+name))
		p, err := mvg.NewPipeline(fx.cfg)
		if err != nil {
			return nil, err
		}
		m, err := p.Train(ctx, series, labels, classes)
		if err == nil {
			err = m.SaveFile(filepath.Join(dir, name+core.ModelExt))
		}
		p.Close()
		if err != nil {
			return nil, fmt.Errorf("fixture %s: %w", name, err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, name+core.ModelExt))
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(raw)
		hashes[name] = hex.EncodeToString(sum[:])
	}
	return hashes, nil
}

// stack is one in-process deployment: an mvgserve replica (HTTP and gRPC
// listeners over one engine) behind an mvgproxy, wired with the commands'
// default flag values, each on its own loopback listener.
type stack struct {
	dir      string
	registry *core.Registry
	engine   *core.Engine
	proxy    *proxy.Proxy
	servers  []*http.Server
	serving  sync.WaitGroup // one per Serve goroutine

	httpAddr, grpcAddr, proxyAddr string
	// grpcConns and proxyConns count connections accepted by the
	// generator-facing listeners.
	grpcConns, proxyConns *atomic.Int64
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

func listen() (net.Listener, *atomic.Int64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	n := new(atomic.Int64)
	return countingListener{ln, n}, n, nil
}

// startStack loads every model in dir and brings the stack up. It returns
// once the proxy's first health poll has seen the replica ready. Handlers
// are wrapped in spans when tr is non-nil.
func startStack(dir string, tr *tracer) (*stack, error) {
	logger := log.New(os.Stderr, "mvgserve: ", log.LstdFlags)
	s := &stack{dir: dir, registry: core.NewRegistry()}
	if _, err := s.registry.LoadDir(dir); err != nil {
		return nil, err
	}
	s.registry.SetWorkers(0)
	engine, err := core.NewEngine(core.Config{
		Registry:            s.registry,
		Window:              core.DefaultWindow,
		MaxBatch:            core.DefaultMaxBatch,
		Logger:              logger,
		MaxInFlight:         64,
		MaxQueue:            256,
		RequestTimeout:      30 * time.Second,
		RetryAfter:          time.Second,
		MaxStreams:          1024,
		MaxStreamsPerTenant: 64,
		StreamIdleTimeout:   5 * time.Minute,
		StreamWriteTimeout:  10 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	s.engine = engine

	serve := func(srv *http.Server, ln net.Listener) {
		srv.ReadHeaderTimeout = 5 * time.Second
		srv.IdleTimeout = 120 * time.Second
		s.servers = append(s.servers, srv)
		s.serving.Add(1)
		go func() {
			defer s.serving.Done()
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("serve: %v", err)
			}
		}()
	}
	httpLn, _, err := listen()
	if err != nil {
		return nil, err
	}
	grpcLn, grpcConns, err := listen()
	if err != nil {
		httpLn.Close()
		return nil, err
	}
	s.httpAddr, s.grpcAddr, s.grpcConns = httpLn.Addr().String(), grpcLn.Addr().String(), grpcConns
	httpSrv := &http.Server{Handler: tr.wrap("httpapi", httpapi.NewServer(engine))}
	httpSrv.RegisterOnShutdown(engine.DrainStreams)
	serve(httpSrv, httpLn)
	grpcSrv := grpcx.NewH2CServer("", tr.wrap("grpcapi", grpcapi.NewServer(engine)))
	grpcSrv.RegisterOnShutdown(engine.DrainStreams)
	serve(grpcSrv, grpcLn)

	p, err := proxy.New(proxy.Config{
		Backends:       []proxy.Backend{{HTTPAddr: s.httpAddr, GRPCAddr: s.grpcAddr}},
		HealthInterval: 2 * time.Second,
		RetryAfter:     time.Second,
		Logger:         log.New(os.Stderr, "mvgproxy: ", log.LstdFlags),
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.proxy = p
	proxyLn, proxyConns, err := listen()
	if err != nil {
		s.close()
		return nil, err
	}
	s.proxyAddr, s.proxyConns = proxyLn.Addr().String(), proxyConns
	serve(grpcx.NewH2CServer("", tr.wrap("proxy", p)), proxyLn)
	if err := proxyReady(s.proxyAddr); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// proxyReady asks the proxy's /healthz whether its first poll found the
// replica ready.
func proxyReady(addr string) error {
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var h struct {
		Ready bool `json:"ready"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return fmt.Errorf("proxy healthz: %w", err)
	}
	if !h.Ready {
		return errors.New("proxy reports no ready replica after its first poll")
	}
	return nil
}

// close drains the stack in mvgserve's order: listeners first, then the
// engine's coalescers, then the proxy's health checker and the models'
// worker pools.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(s.servers) - 1; i >= 0; i-- {
		_ = s.servers[i].Shutdown(ctx) // teardown: a drain that overruns needs no report
	}
	s.serving.Wait()
	if s.engine != nil {
		_ = s.engine.Shutdown(ctx)
	}
	if s.proxy != nil {
		s.proxy.Close()
	}
	for _, name := range s.registry.Names() {
		if m, ok := s.registry.Get(name); ok {
			m.Pipeline().Close()
		}
	}
}

// loadReference loads a second, independent copy of a saved model: the
// oracle's answers come from it, never from the serving instance.
func loadReference(dir, name string) (*mvg.Model, error) {
	return mvg.LoadModelFile(filepath.Join(dir, name+core.ModelExt))
}
