// Service-layer benchmark suite: spins up a loopback signer fleet plus a
// coordinator and measures the end-to-end signing paths a deployment
// actually exercises — DKG over HTTP, single-message fan-out latency,
// the cached and batched paths, parallel client throughput, and a
// proactive refresh round. The committed BENCH_service.json at the repo
// root is produced with:
//
//	benchtables -json-service BENCH_service.json
package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/client"
	"repro/service"
)

// loopbackFleet is a live in-process deployment: n keyless signer
// daemons and one keyless coordinator, each on its own 127.0.0.1
// listener, wired together exactly as tsigd processes would be.
type loopbackFleet struct {
	coordURL string
	servers  []*http.Server
}

func (f *loopbackFleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for _, srv := range f.servers {
		_ = srv.Shutdown(ctx)
	}
}

// serveLoopback starts handler on an ephemeral loopback port and
// returns its base URL.
func (f *loopbackFleet) serveLoopback(handler http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: handler}
	f.servers = append(f.servers, srv)
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

func startLoopbackFleet(n int) (*loopbackFleet, error) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	f := &loopbackFleet{}
	urls := make([]string, n)
	for i := 1; i <= n; i++ {
		sg, err := service.NewDaemonSigner(service.DaemonConfig{Index: i, Logger: quiet})
		if err != nil {
			f.close()
			return nil, err
		}
		if urls[i-1], err = f.serveLoopback(sg); err != nil {
			f.close()
			return nil, err
		}
	}
	coord, err := service.NewKeylessCoordinator(urls, service.CoordinatorConfig{Logger: quiet})
	if err != nil {
		f.close()
		return nil, err
	}
	if f.coordURL, err = f.serveLoopback(coord); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// writeServiceBenchJSON measures the coordinator's end-to-end signing
// flows over a loopback fleet and writes them in the same trajectory
// format as the core suite.
func writeServiceBenchJSON(path string) error {
	const n, t = 3, 1
	fleet, err := startLoopbackFleet(n)
	if err != nil {
		return err
	}
	defer fleet.close()
	cli := &client.Client{BaseURL: fleet.coordURL}
	ctx := context.Background()

	doc := newBenchDoc("service", n, t)
	record := func(name string, d time.Duration, iters int) {
		doc.Results = append(doc.Results, benchResult{
			Name: name, NsPerOp: float64(d.Nanoseconds()) / float64(iters), Iters: iters,
		})
	}

	msgID := 0
	nextMsg := func() []byte {
		msgID++
		return []byte(fmt.Sprintf("service bench message %d", msgID))
	}
	sign := func(msg []byte) error {
		_, _, err := cli.Sign(ctx, msg)
		return err
	}

	// Keying the fleet over the wire is itself a measured flow.
	start := time.Now()
	if _, _, err := cli.RunDKG(ctx, t, "bench/service"); err != nil {
		return fmt.Errorf("loopback DKG: %w", err)
	}
	record(fmt.Sprintf("DKGOverHTTP/n=%d", n), time.Since(start), 1)

	// Cold-path latency: distinct messages, full fan-out + combine each.
	const signIters = 5
	start = time.Now()
	for i := 0; i < signIters; i++ {
		if err := sign(nextMsg()); err != nil {
			return fmt.Errorf("loopback sign: %w", err)
		}
	}
	record("Sign", time.Since(start), signIters)

	// Cached path: a repeated message is answered from the coordinator's
	// signature LRU without touching the signers.
	warm := nextMsg()
	if err := sign(warm); err != nil {
		return fmt.Errorf("loopback sign (warm): %w", err)
	}
	const cachedIters = 20
	start = time.Now()
	for i := 0; i < cachedIters; i++ {
		if err := sign(warm); err != nil {
			return fmt.Errorf("loopback sign (cached): %w", err)
		}
	}
	record("Sign/cached", time.Since(start), cachedIters)

	// Batched path: 8 distinct messages per /v1/sign-batch round trip;
	// the figure is per signature, comparable with Sign above.
	const batchSize = 8
	msgs := make([][]byte, batchSize)
	for i := range msgs {
		msgs[i] = nextMsg()
	}
	start = time.Now()
	if _, _, err := cli.SignBatch(ctx, msgs); err != nil {
		return fmt.Errorf("loopback sign-batch: %w", err)
	}
	record(fmt.Sprintf("SignBatch/msgs=%d", batchSize), time.Since(start), batchSize)

	// Throughput: concurrent clients hammering distinct messages; the
	// figure is wall time per completed signature across the fleet.
	const workers, perWorker = 8, 2
	jobs := make([][]byte, workers*perWorker)
	for i := range jobs {
		jobs[i] = nextMsg()
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	start = time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := sign(jobs[w*perWorker+i]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("loopback parallel sign: %w", err)
		}
	}
	record(fmt.Sprintf("SignParallel/c=%d", workers), time.Since(start), workers*perWorker)

	// Proactive refresh over the wire, ending on a live re-keyed fleet.
	start = time.Now()
	if _, _, err := cli.RunRefresh(ctx); err != nil {
		return fmt.Errorf("loopback refresh: %w", err)
	}
	record(fmt.Sprintf("RefreshOverHTTP/n=%d", n), time.Since(start), 1)
	if err := sign(nextMsg()); err != nil {
		return fmt.Errorf("loopback sign after refresh: %w", err)
	}

	return writeBenchDoc(path, doc)
}
