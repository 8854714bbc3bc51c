package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	tsig "repro"
	"repro/client"
	"repro/service"
)

// The fleet shape every workload runs on: the paper-table shape of
// BENCH_core.json.
const (
	fleetN      = 5
	fleetT      = 2
	fleetDomain = "bench/v1"
)

// fleet is a live in-process deployment — fleetN keyless signer daemons
// and one keyless coordinator, each on its own 127.0.0.1 listener at
// default configuration — keyed by a Dist-Keygen over HTTP. Everything
// the benchmark does to it goes through client.Client or plain HTTP.
type fleet struct {
	coordURL   string
	signerURLs []string
	servers    []*http.Server
	hc         *http.Client // the load generator's own connection pool
	cli        *client.Client
	group      *tsig.Group   // what the set-up Dist-Keygen returned
	dkgLat     time.Duration // client-observed latency of that RunDKG
	stale      *staleShare   // signer 1's replay middleware; nil on honest fleets
}

// staleShare is the sign_byzantine fault: an http.Handler wrapper that,
// once armed, answers POST /v1/sign immediately with a fixed, well-formed
// PartialResponse — the signer's own genuine partial on the set-up
// message, i.e. a replay. It arrives before any honest share, so whatever
// convicts it sits on the critical path of every request.
type staleShare struct {
	next http.Handler
	body atomic.Pointer[[]byte] // nil until armed
}

// intercepts reports whether r is a share request the armed fault acts on.
func (s *staleShare) intercepts(r *http.Request) bool {
	return s.body.Load() != nil && r.Method == http.MethodPost && r.URL.Path == "/v1/sign"
}

func (s *staleShare) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.intercepts(r) {
		_, _ = io.Copy(io.Discard, r.Body) // drain so the connection is reused
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(*s.body.Load())
		return
	}
	s.next.ServeHTTP(w, r)
}

// rushHeadStart is how long the honest signers of a Byzantine fleet hold
// a share request before working on it. "Immediately" is not "first" in
// one process on two cores: four CPU-bound Share-Signs starve the
// goroutines that carry the stale reply, and without the head start it
// lost the race in about one request in eight. The adversary of the model
// schedules the network, so it is allowed to rush; the 2 ms are the same
// on every commit and are part of sign_byzantine's latency.
const rushHeadStart = 2 * time.Millisecond

// heldBack wraps an honest signer of a Byzantine fleet.
type heldBack struct {
	next  http.Handler
	fault *staleShare
}

func (h *heldBack) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.fault.intercepts(r) {
		time.Sleep(rushHeadStart)
	}
	h.next.ServeHTTP(w, r)
}

// staleSetupMessage is the message whose partial the Byzantine signer
// replays forever.
var staleSetupMessage = []byte("bench set-up message: the share replayed by signer 1")

// startFleet brings the listeners up and runs the Dist-Keygen. With
// byzantine set, signer 1 is wrapped in the replay middleware (armed as
// soon as it holds key material) and the others are held back behind it.
func startFleet(ctx context.Context, byzantine bool) (*fleet, error) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	f := &fleet{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
	for i := 1; i <= fleetN; i++ {
		sg, err := service.NewDaemonSigner(service.DaemonConfig{Index: i, Logger: quiet})
		if err != nil {
			f.close()
			return nil, err
		}
		var h http.Handler = sg
		switch {
		case byzantine && i == 1:
			f.stale = &staleShare{next: sg}
			h = f.stale
		case byzantine:
			h = &heldBack{next: sg, fault: f.stale}
		}
		url, err := f.serve(h)
		if err != nil {
			f.close()
			return nil, err
		}
		f.signerURLs = append(f.signerURLs, url)
	}
	coord, err := service.NewKeylessCoordinator(f.signerURLs, service.CoordinatorConfig{Logger: quiet})
	if err != nil {
		f.close()
		return nil, err
	}
	if f.coordURL, err = f.serve(coord); err != nil {
		f.close()
		return nil, err
	}
	f.cli = &client.Client{BaseURL: f.coordURL, Transport: f.hc}
	start := time.Now()
	if f.group, _, err = f.cli.RunDKG(ctx, fleetT, fleetDomain); err != nil {
		f.close()
		return nil, fmt.Errorf("loopback Dist-Keygen: %w", err)
	}
	f.dkgLat = time.Since(start)
	if f.stale != nil {
		if err := f.armStaleShare(ctx); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	go func() { _ = srv.Serve(ln) }() // ends when close() shuts srv down
	return "http://" + ln.Addr().String(), nil
}

// close shuts every listener down and waits for the handlers to drain.
// The client sides hang up first: a connection the transport dialled
// speculatively and never used looks busy to Server.Shutdown for seconds.
func (f *fleet) close() {
	f.hc.CloseIdleConnections()
	// The coordinator at default config fans out over http.DefaultTransport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, srv := range f.servers {
		_ = srv.Shutdown(ctx)
	}
}

// directSign posts one message straight to signer index (1-based) and
// returns the decoded partial signature.
func (f *fleet) directSign(ctx context.Context, index int, msg []byte) (*tsig.PartialSignature, []byte, error) {
	body, err := json.Marshal(service.SignRequest{Message: msg})
	if err != nil {
		return nil, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.signerURLs[index-1]+"/v1/sign", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if rid := service.RequestIDFromContext(ctx); rid != "" {
		req.Header.Set(service.HeaderRequestID, rid)
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("signer %d: status %d: %s", index, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var pr service.PartialResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		return nil, nil, fmt.Errorf("signer %d: %w", index, err)
	}
	ps, err := tsig.UnmarshalPartialSignature(pr.Partial)
	if err != nil {
		return nil, nil, fmt.Errorf("signer %d: %w", index, err)
	}
	return ps, raw, nil
}

// armStaleShare captures signer 1's genuine answer on the set-up message
// and switches the middleware to replaying it.
func (f *fleet) armStaleShare(ctx context.Context) error {
	_, raw, err := f.directSign(ctx, 1, staleSetupMessage)
	if err != nil {
		return fmt.Errorf("capturing the stale share: %w", err)
	}
	f.stale.body.Store(&raw)
	return nil
}

// scrape reads every daemon's /metrics.
func (f *fleet) scrape(ctx context.Context) (fleetScrape, error) {
	coord, err := scrapeURLs(ctx, f.hc, []string{f.coordURL})
	if err != nil {
		return fleetScrape{}, err
	}
	signers, err := scrapeURLs(ctx, f.hc, f.signerURLs)
	if err != nil {
		return fleetScrape{}, err
	}
	return fleetScrape{coord: coord, signers: signers}, nil
}
