package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/service/metrics"
)

// logBuf is a concurrency-safe log sink for capturing slog output.
type logBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func debugLogger(sink *logBuf) *slog.Logger {
	return slog.New(slog.NewTextHandler(sink, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// startObservedFleet starts n keyless signer daemons and a keyless
// coordinator over loopback HTTP, with every daemon's slog output
// captured at Debug level.
func startObservedFleet(t *testing.T, n int, cfg CoordinatorConfig) (coordURL string, coord *Coordinator, signerURLs []string, signers []*Signer, coordLog, signerLog *logBuf) {
	t.Helper()
	coordLog, signerLog = &logBuf{}, &logBuf{}
	signerURLs = make([]string, n)
	signers = make([]*Signer, n+1)
	for i := 1; i <= n; i++ {
		s, err := NewDaemonSigner(DaemonConfig{Index: i, Logger: debugLogger(signerLog)})
		if err != nil {
			t.Fatal(err)
		}
		signers[i] = s
		srv := httptest.NewServer(s)
		t.Cleanup(srv.Close)
		signerURLs[i-1] = srv.URL
	}
	cfg.Logger = debugLogger(coordLog)
	coord, err := NewKeylessCoordinator(signerURLs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)
	t.Cleanup(srv.Close)
	return srv.URL, coord, signerURLs, signers, coordLog, signerLog
}

// scrapeMetrics fetches url/metrics, validates the exposition with the
// strict parser, and returns the body.
func scrapeMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content-type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := metrics.Lint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return buf.String()
}

// metricValue returns the value of the exactly-matching sample line
// (name plus rendered labels, e.g. `foo_total{group="default"}`).
func metricValue(t *testing.T, exposition, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("sample %q: bad value %q", sample, rest)
			}
			return v
		}
	}
	t.Fatalf("metric sample %q not found in exposition", sample)
	return 0
}

// TestObservabilityE2E drives a two-tenant fleet born over the wire and
// asserts that the signing and DKG counters advance on both daemons'
// /metrics, that both expositions parse, and that the per-tenant label
// set is exactly the registered groups.
func TestObservabilityE2E(t *testing.T) {
	coordURL, _, signerURLs, _, _, _ := startObservedFleet(t, 3, CoordinatorConfig{})

	runDKGOverHTTP(t, coordURL, "/v1", 1, "obs/default", false)
	runDKGOverHTTP(t, coordURL, "/v1/g/tenant-b", 1, "obs/b", false)

	signOverHTTP(t, coordURL, "/v1", []byte("observed message"))
	signOverHTTP(t, coordURL, "/v1", []byte("observed message")) // cache hit
	signOverHTTP(t, coordURL, "/v1/g/tenant-b", []byte("tenant-b message"))

	cm := scrapeMetrics(t, coordURL)
	if v := metricValue(t, cm, `tsig_coordinator_sign_requests_total{group="default"}`); v < 2 {
		t.Errorf("default sign counter = %v, want >= 2", v)
	}
	if v := metricValue(t, cm, `tsig_coordinator_sign_requests_total{group="tenant-b"}`); v < 1 {
		t.Errorf("tenant-b sign counter = %v, want >= 1", v)
	}
	if v := metricValue(t, cm, `tsig_proto_runs_total{proto="dkg",outcome="ok"}`); v != 2 {
		t.Errorf("dkg runs = %v, want 2", v)
	}
	if v := metricValue(t, cm, `tsig_coordinator_cache_hits_total`); v < 1 {
		t.Errorf("cache hits = %v, want >= 1", v)
	}
	if v := metricValue(t, cm, `tsig_coordinator_cache_entries`); v != 2 {
		t.Errorf("cache entries = %v, want 2 (one message per tenant)", v)
	}
	if v := metricValue(t, cm, `tsig_proto_run_rounds_total{proto="dkg"}`); v < 2 {
		t.Errorf("dkg rounds = %v, want >= 2", v)
	}
	if v := metricValue(t, cm, `tsig_proto_broadcast_messages_total{proto="dkg"}`); v < 1 {
		t.Errorf("dkg broadcast messages = %v, want >= 1", v)
	}
	if v := metricValue(t, cm, `tsig_registry_tenants`); v != 2 {
		t.Errorf("registry tenants = %v, want 2", v)
	}
	// Per-tenant cardinality is bounded by the registered group set: no
	// label value beyond the two live tenants (and no "_other" overflow).
	for _, line := range strings.Split(cm, "\n") {
		if strings.HasPrefix(line, "tsig_coordinator_sign_requests_total{") &&
			!strings.Contains(line, `group="default"`) && !strings.Contains(line, `group="tenant-b"`) {
			t.Errorf("unexpected tenant label: %s", line)
		}
	}

	// Quorum is 2 of 3, so any one signer may be canceled as a laggard
	// before its handler runs: each tenant's request is counted (the
	// sample exists) on at least two signers, not necessarily on the first.
	for _, gid := range []string{"default", "tenant-b"} {
		sample := `tsig_signer_requests_total{group="` + gid + `",endpoint="sign"} `
		saw := 0
		for _, u := range signerURLs {
			if strings.Contains(scrapeMetrics(t, u), sample) {
				saw++
			}
		}
		if saw < 2 {
			t.Errorf("%d signers counted a %s sign request, want >= 2", saw, gid)
		}
	}
	sm := scrapeMetrics(t, signerURLs[0])
	if v := metricValue(t, sm, `tsig_proto_sessions_finished_total{proto="dkg"}`); v != 2 {
		t.Errorf("signer dkg finishes = %v, want 2", v)
	}

	// /healthz carries the build identity on both daemons.
	for _, u := range []string{coordURL, signerURLs[0]} {
		status, raw := httpGet(t, u+"/healthz")
		if status != http.StatusOK {
			t.Fatalf("GET %s/healthz: status %d", u, status)
		}
		var hr HealthResponse
		if err := json.Unmarshal(raw, &hr); err != nil {
			t.Fatal(err)
		}
		if hr.GoVersion == "" {
			t.Errorf("healthz on %s missing go_version", u)
		}
	}
}

// TestRequestIDTracing asserts that one client-chosen X-Request-ID rides
// a signing request end to end: echoed in the coordinator's response
// header and body, and visible in BOTH the coordinator's and a signer's
// structured logs.
func TestRequestIDTracing(t *testing.T) {
	coordURL, _, _, _, coordLog, signerLog := startObservedFleet(t, 3, CoordinatorConfig{})
	runDKGOverHTTP(t, coordURL, "/v1", 1, "trace/v1", false)

	const rid = "trace-0123456789ab"
	body, _ := json.Marshal(SignRequest{Message: []byte("traced message")})
	req, err := http.NewRequest(http.MethodPost, coordURL+"/v1/sign", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderRequestID, rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sign: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderRequestID); got != rid {
		t.Errorf("response header %s = %q, want %q", HeaderRequestID, got, rid)
	}
	var sr SignatureResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.RequestID != rid {
		t.Errorf("response body request_id = %q, want %q", sr.RequestID, rid)
	}
	if !strings.Contains(coordLog.String(), "request_id="+rid) {
		t.Error("request id absent from the coordinator's logs")
	}
	if !strings.Contains(signerLog.String(), "request_id="+rid) {
		t.Error("request id absent from the signers' logs")
	}

	// A malformed inbound id is replaced, not echoed back.
	req2, _ := http.NewRequest(http.MethodPost, coordURL+"/v1/sign", bytes.NewReader(body))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set(HeaderRequestID, "bad id\twith junk")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	got := resp2.Header.Get(HeaderRequestID)
	if got == "" || strings.Contains(got, " ") || got == "bad id\twith junk" {
		t.Errorf("malformed inbound id echoed or dropped: %q", got)
	}
}

// TestBackendFloodGuard asserts that a signer backend's connection
// errors are logged once per outage transition — one "down" line no
// matter how many requests fail during the outage, one "recovered" line
// when it returns — while the error counter keeps counting.
func TestBackendFloodGuard(t *testing.T) {
	coordLog := &logBuf{}
	var down atomic.Bool
	n := 3
	urls := make([]string, n)
	for i := 1; i <= n; i++ {
		s, err := NewDaemonSigner(DaemonConfig{Index: i})
		if err != nil {
			t.Fatal(err)
		}
		h := http.Handler(s)
		if i == 2 {
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if down.Load() && strings.HasSuffix(r.URL.Path, "/sign") {
					// Kill the connection mid-request: the coordinator's
					// HTTP client sees a transport error, as with a daemon
					// that died.
					panic(http.ErrAbortHandler)
				}
				s.ServeHTTP(w, r)
			})
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		urls[i-1] = srv.URL
	}
	coord, err := NewKeylessCoordinator(urls, CoordinatorConfig{Logger: debugLogger(coordLog)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coord.RunDKG(t.Context(), 1, "flood/v1"); err != nil {
		t.Fatal(err)
	}

	sign := func(msg string) {
		t.Helper()
		if _, _, err := coord.Sign(t.Context(), []byte(msg)); err != nil {
			t.Fatalf("sign %q: %v", msg, err)
		}
	}
	sign("before outage")
	if got := strings.Count(coordLog.String(), "signer backend down"); got != 0 {
		t.Fatalf("%d down-edge logs before any outage", got)
	}

	down.Store(true)
	for i := 0; i < 4; i++ {
		sign(fmt.Sprintf("during outage %d", i))
	}
	if got := strings.Count(coordLog.String(), "signer backend down"); got != 1 {
		t.Errorf("down edge logged %d times across 4 failing requests, want exactly 1", got)
	}

	down.Store(false)
	// Quorum is 2 of 3, so a fan-out can settle on signers 1 and 3 and
	// cancel signer 2 before its answer is back; sign until one hears it.
	for i := 0; i < 50 && !strings.Contains(coordLog.String(), "signer backend recovered"); i++ {
		sign(fmt.Sprintf("after recovery %d", i))
	}
	if got := strings.Count(coordLog.String(), "signer backend recovered"); got != 1 {
		t.Errorf("recovery edge logged %d times, want exactly 1", got)
	}

	rec := httptest.NewRecorder()
	coord.Metrics().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	exp := rec.Body.String()
	if err := metrics.Lint(strings.NewReader(exp)); err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if v := metricValue(t, exp, `tsig_coordinator_backend_errors_total{signer="2"}`); v < 1 {
		t.Errorf("backend errors for signer 2 = %v, want >= 1", v)
	}
	if v := metricValue(t, exp, `tsig_coordinator_backend_up{signer="2"}`); v != 1 {
		t.Errorf("backend up gauge for signer 2 = %v after recovery, want 1", v)
	}
}
