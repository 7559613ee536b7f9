// Serving walkthrough: train a small model, save it, stand up the HTTP
// serving layer (the same stack cmd/mvgserve runs), and drive it as a
// client — single predictions (coalesced), batch predictions, registry
// listing, hot reload, metrics, and graceful shutdown.
//
// Run with: go run ./examples/serving
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mvg"
	"mvg/internal/serve/core"
	"mvg/internal/serve/httpapi"
)

func main() {
	// ---- 1. Train and save a model (normally done offline; mvgcli -save) ----
	series, labels := dataset(1)
	fmt.Println("training a small sine-vs-noise classifier...")
	pipe, err := mvg.NewPipeline(mvg.Config{Folds: 2, Seed: 1})
	check(err)
	defer pipe.Close()
	model, err := pipe.Train(context.Background(), series, labels, 2)
	check(err)

	dir, err := os.MkdirTemp("", "mvgserve-demo")
	check(err)
	defer os.RemoveAll(dir)
	check(model.SaveFile(filepath.Join(dir, "demo"+core.ModelExt)))

	// ---- 2. Start the serving stack (what mvgserve -models <dir> does) ----
	registry := core.NewRegistry()
	names, err := registry.LoadDir(dir)
	check(err)
	fmt.Printf("registry loaded: %v\n", names)

	engine, err := core.NewEngine(core.Config{
		Registry: registry,
		Window:   2 * time.Millisecond, // longest wait behind a busy model
		MaxBatch: 64,
	})
	check(err)
	srv := httpapi.NewServer(engine)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n\n", base)

	// ---- 3. Single prediction: coalesced under the hood ----
	var out struct {
		Model     string `json:"model"`
		Class     *int   `json:"class"`
		Coalesced bool   `json:"coalesced"`
	}
	post(base+"/v1/models/demo/predict", map[string]any{"series": series[0]}, &out)
	fmt.Printf("single predict: class=%d (true label %d), coalesced=%v\n", *out.Class, labels[0], out.Coalesced)

	// ---- 4. Concurrent singles: the coalescer merges them into batches ----
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r struct {
				Class *int `json:"class"`
			}
			post(base+"/v1/models/demo/predict", map[string]any{"series": series[i%len(series)]}, &r)
		}()
	}
	wg.Wait()
	fmt.Println("16 concurrent singles served (check mvgserve_batch_size in /metrics)")

	// ---- 5. Batch prediction: one body, one engine pass ----
	var batchOut struct {
		Classes []int `json:"classes"`
	}
	post(base+"/v1/models/demo/predict", map[string]any{"batch": series[:6]}, &batchOut)
	fmt.Printf("batch predict: %v (true %v)\n", batchOut.Classes, labels[:6])

	// ---- 6. Probabilities ----
	var probaOut struct {
		Proba []float64 `json:"proba"`
	}
	post(base+"/v1/models/demo/predict_proba", map[string]any{"series": series[1]}, &probaOut)
	fmt.Printf("predict_proba: %.4f\n", probaOut.Proba)

	// ---- 7. Registry listing and hot reload ----
	listing := getBody(base + "/v1/models")
	fmt.Printf("models listing: %.120s...\n", listing)
	post(base+"/v1/models/demo/reload", nil, nil)
	fmt.Println("model hot-reloaded from disk (in-flight requests kept the old snapshot)")

	// ---- 8. Metrics ----
	metrics := getBody(base + "/metrics")
	fmt.Printf("\nmetrics excerpt:\n")
	for _, line := range bytes.Split([]byte(metrics), []byte("\n")) {
		if bytes.HasPrefix(line, []byte("mvgserve_coalesced")) || bytes.HasPrefix(line, []byte("mvgserve_in_flight")) {
			fmt.Printf("  %s\n", line)
		}
	}

	// ---- 9. Graceful shutdown: stop the listener, then drain coalescers ----
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	check(httpSrv.Shutdown(ctx))
	check(engine.Shutdown(ctx))
	fmt.Println("\ndrained and shut down cleanly")
}

func post(url string, body any, out any) {
	var r io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		check(err)
		r = bytes.NewReader(raw)
	}
	resp, err := http.Post(url, "application/json", r)
	check(err)
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	check(err)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST %s: %d: %s", url, resp.StatusCode, data)
	}
	if out != nil {
		check(json.Unmarshal(data, out))
	}
}

func getBody(url string) string {
	resp, err := http.Get(url)
	check(err)
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	check(err)
	return string(data)
}

// dataset generates a two-class toy problem: smooth sines vs noise bursts.
func dataset(seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	const perClass, length = 10, 128
	series := make([][]float64, 0, 2*perClass)
	labels := make([]int, 0, 2*perClass)
	for i := 0; i < perClass; i++ {
		smooth := make([]float64, length)
		phase := rng.Float64()
		for k := range smooth {
			smooth[k] = math.Sin(2*math.Pi*(float64(k)/16+phase)) + 0.05*rng.NormFloat64()
		}
		series = append(series, smooth)
		labels = append(labels, 0)

		noisy := make([]float64, length)
		for k := range noisy {
			noisy[k] = rng.NormFloat64()
		}
		series = append(series, noisy)
		labels = append(labels, 1)
	}
	return series, labels
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
