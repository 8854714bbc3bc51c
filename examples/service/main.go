// Command service demonstrates the networked threshold-signing pipeline
// end to end on loopback: it runs Dist-Keygen for n=5 servers with
// threshold t=2, starts five signer daemons and a coordinator gateway as
// real HTTP servers, kills one signer and makes another Byzantine, and
// still obtains a verified signature with a single client request —
// because partial signing is non-interactive, the surviving t+1 = 3
// honest signers are all the coordinator needs.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	tsig "repro"
	"repro/client"
	"repro/service"
)

const (
	n = 5
	t = 2
)

func main() {
	fmt.Println("== Dist-Keygen among 5 servers (threshold 2) ==")
	scheme := tsig.NewScheme(tsig.WithDomain("example-service/v1"))
	group, members, err := scheme.Keygen(n, t)
	if err != nil {
		log.Fatalf("Dist-Keygen: %v", err)
	}

	fmt.Println("\n== Starting 5 signer daemons on loopback ==")
	urls := make([]string, n)
	for i := 1; i <= n; i++ {
		signer, err := service.NewSigner(members[i-1], service.SignerConfig{})
		if err != nil {
			log.Fatal(err)
		}
		var handler http.Handler = signer
		if i == 4 {
			handler = tampering(handler) // signer 4 lies
		}
		url, stop := serveLoopback(handler)
		defer stop()
		switch i {
		case 3:
			stop() // signer 3 is down
			fmt.Printf("signer %d: %s (then killed — simulates an outage)\n", i, url)
		case 4:
			fmt.Printf("signer %d: %s (Byzantine — signs the wrong message)\n", i, url)
		default:
			fmt.Printf("signer %d: %s\n", i, url)
		}
		urls[i-1] = url
	}

	coord, err := service.NewCoordinator(group, urls, service.CoordinatorConfig{
		SignerTimeout: 2 * time.Second,
		// Concurrent requests for distinct messages are collected for up
		// to 5ms and fanned out as ONE /v1/sign-batch round-trip per
		// signer, whose shares are then checked with one batched pairing.
		BatchWindow: 5 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	gatewayURL, stopGateway := serveLoopback(coord)
	defer stopGateway()
	fmt.Printf("coordinator gateway: %s\n", gatewayURL)

	fmt.Println("\n== One client request -> full threshold signature ==")
	cl := &client.Client{BaseURL: gatewayURL} // Transport defaults to http.DefaultClient
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	pk, _, err := cl.FetchPubkey(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if !pk.Equal(group.PK) {
		log.Fatal("coordinator advertises a different public key")
	}
	msg := []byte("pay 100 to alice, sequence 42")
	sig, resp, err := cl.Sign(ctx, msg)
	if err != nil {
		log.Fatalf("sign via coordinator: %v", err)
	}
	fmt.Printf("signature: %d bytes, combined from signers %v (1 down, 1 Byzantine tolerated)\n",
		len(sig.Marshal()), resp.Signers)
	if !group.Verify(msg, sig) {
		log.Fatal("verification failed")
	}
	fmt.Println("group.Verify(M, sigma) = true")

	fmt.Println("\n== 8 concurrent duplicate requests coalesce into one fan-out ==")
	var wg sync.WaitGroup
	var coalesced, cached int
	var mu sync.Mutex
	dup := []byte("burst message")
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, r, err := cl.Sign(ctx, dup)
			if err != nil {
				log.Fatal(err)
			}
			mu.Lock()
			if r.Coalesced {
				coalesced++
			}
			if r.Cached {
				cached++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	fmt.Printf("8 callers: %d coalesced onto an in-flight fan-out, %d served from cache\n", coalesced, cached)

	_, r, err := cl.Sign(ctx, dup)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repeat of the same message: cached=%v (deterministic signatures cache forever)\n", r.Cached)

	fmt.Println("\n== 16 messages in ONE batch request (1 down, 1 Byzantine tolerated) ==")
	msgs := make([][]byte, 16)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("invoice %04d: pay 5 to bob", i))
	}
	start := time.Now()
	sigs, batchResp, err := cl.SignBatch(ctx, msgs)
	if err != nil {
		log.Fatalf("sign-batch via coordinator: %v", err)
	}
	for i, sig := range sigs {
		if sig == nil {
			log.Fatalf("message %d failed: %s", i, batchResp.Results[i].Error)
		}
		if !group.Verify(msgs[i], sig) {
			log.Fatalf("message %d: invalid signature", i)
		}
	}
	fmt.Printf("16 verified signatures in %v: one HTTP request, one fan-out per signer,\n", time.Since(start).Round(time.Millisecond))
	fmt.Println("each signer's 16 shares checked with a single batched multi-pairing")
	fmt.Println("(the Byzantine signer's shares were pinpointed by bisection and discarded)")
}

// serveLoopback starts an HTTP server on 127.0.0.1 and returns its base
// URL plus a stop function.
func serveLoopback(h http.Handler) (string, func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = srv.Close() }
}

// tampering makes a signer Byzantine on both signing endpoints: it signs
// a different message than the one requested, producing well-formed but
// invalid shares that the coordinator's (batched) Share-Verify catches
// and discards.
func tampering(h http.Handler) http.Handler {
	replay := func(w http.ResponseWriter, r *http.Request, body []byte) {
		r2 := r.Clone(r.Context())
		r2.Body = io.NopCloser(bytes.NewReader(body))
		r2.ContentLength = int64(len(body))
		h.ServeHTTP(w, r2)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sign" {
			var req service.SignRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err == nil {
				req.Message = append(req.Message, []byte("::evil")...)
				body, _ := json.Marshal(req)
				replay(w, r, body)
				return
			}
		}
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sign-batch" {
			var req service.SignBatchRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err == nil {
				for j := range req.Messages {
					req.Messages[j] = append(req.Messages[j], []byte("::evil")...)
				}
				body, _ := json.Marshal(req)
				replay(w, r, body)
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}
