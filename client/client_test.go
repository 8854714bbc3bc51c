package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	tsig "repro"
	"repro/service"
)

// The fixture: one in-process group (n=3, t=1), its signers, and a
// coordinator, all on httptest servers. Shared across tests (the DKG is
// the expensive part).
var (
	fixOnce  sync.Once
	fixErr   error
	fixGroup *tsig.Group
	fixMems  []*tsig.Member
)

func fixture(t *testing.T) (*tsig.Group, []*tsig.Member) {
	t.Helper()
	fixOnce.Do(func() {
		scheme := tsig.NewScheme(tsig.WithDomain("client-test/v1"))
		fixGroup, fixMems, fixErr = scheme.Keygen(3, 1)
	})
	if fixErr != nil {
		t.Fatalf("Keygen fixture: %v", fixErr)
	}
	return fixGroup, fixMems
}

// startService brings up signers plus a coordinator and returns the
// coordinator's base URL.
func startService(t *testing.T, cfg service.CoordinatorConfig) string {
	t.Helper()
	group, members := fixture(t)
	urls := make([]string, group.N)
	for i, m := range members {
		s, err := service.NewSigner(m, service.SignerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(s)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	coord, err := service.NewCoordinator(group, urls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestClientSignEndToEnd: the public client against a real coordinator,
// verified against the locally trusted group.
func TestClientSignEndToEnd(t *testing.T) {
	group, _ := fixture(t)
	c := &Client{BaseURL: startService(t, service.CoordinatorConfig{})}
	ctx := context.Background()

	msg := []byte("client end to end")
	sig, receipt, err := c.Sign(ctx, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !group.Verify(msg, sig) {
		t.Fatal("signature from coordinator does not verify")
	}
	if len(receipt.Signers) != group.T+1 {
		t.Fatalf("receipt lists %d signers, want %d", len(receipt.Signers), group.T+1)
	}

	pk, info, err := c.FetchPubkey(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.N != group.N || info.T != group.T || !pk.Equal(group.PK) {
		t.Fatal("FetchPubkey returned a different group")
	}

	hr, err := c.Health(ctx)
	if err != nil || hr.Status != "ok" {
		t.Fatalf("health: %v %+v", err, hr)
	}
}

// TestClientSignBatch: batch round-trip with per-message results.
func TestClientSignBatch(t *testing.T) {
	group, _ := fixture(t)
	c := &Client{BaseURL: startService(t, service.CoordinatorConfig{})}
	msgs := [][]byte{[]byte("batch a"), []byte("batch b"), []byte("batch c")}
	sigs, _, err := c.SignBatch(context.Background(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	for j, sig := range sigs {
		if sig == nil || !group.Verify(msgs[j], sig) {
			t.Fatalf("message %d: missing or invalid signature", j)
		}
	}
}

// TestClientTypedErrors: wire codes map back onto the tsig sentinels, so
// errors.Is works across the HTTP boundary.
func TestClientTypedErrors(t *testing.T) {
	c := &Client{BaseURL: startService(t, service.CoordinatorConfig{})}
	ctx := context.Background()

	_, _, err := c.Sign(ctx, nil)
	if !errors.Is(err, tsig.ErrEmptyMessage) {
		t.Fatalf("empty message: want ErrEmptyMessage, got %v", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("want *APIError with status 400, got %v", err)
	}

	big := make([][]byte, service.DefaultMaxBatch+1)
	for i := range big {
		big[i] = []byte{byte(i + 1)}
	}
	if _, _, err := c.SignBatch(ctx, big); !errors.Is(err, tsig.ErrBatchTooLarge) {
		t.Fatalf("oversized batch: want ErrBatchTooLarge, got %v", err)
	}
}

// TestClientQuorumError: with every signer unreachable the coordinator
// answers 502 with the quorum code.
func TestClientQuorumError(t *testing.T) {
	group, _ := fixture(t)
	down := httptest.NewServer(http.NotFoundHandler())
	downURL := down.URL
	down.Close()
	urls := make([]string, group.N)
	for i := range urls {
		urls[i] = downURL
	}
	coord, err := service.NewCoordinator(group, urls, service.CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()

	c := &Client{BaseURL: srv.URL}
	_, _, err = c.Sign(context.Background(), []byte("no quorum for this"))
	if !errors.Is(err, tsig.ErrQuorumUnreachable) {
		t.Fatalf("want ErrQuorumUnreachable, got %v", err)
	}
	if errors.Is(err, tsig.ErrInvalidShare) {
		t.Fatalf("no share was Byzantine, yet error claims invalid shares: %v", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("want 502 *APIError, got %v", err)
	}
}

// roundTripperFunc adapts a function to the Transport interface.
type roundTripperFunc func(req *http.Request) (*http.Response, error)

func (f roundTripperFunc) Do(req *http.Request) (*http.Response, error) { return f(req) }

// TestClientCustomTransport: a Transport can rewrite requests (here:
// inject a header and count calls) without touching the client.
func TestClientCustomTransport(t *testing.T) {
	group, _ := fixture(t)
	base := startService(t, service.CoordinatorConfig{})
	calls := 0
	c := &Client{
		BaseURL: base,
		Transport: roundTripperFunc(func(req *http.Request) (*http.Response, error) {
			calls++
			req.Header.Set("X-Test", "1")
			return http.DefaultClient.Do(req)
		}),
	}
	msg := []byte("transport message")
	sig, _, err := c.Sign(context.Background(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if !group.Verify(msg, sig) {
		t.Fatal("invalid signature through custom transport")
	}
	if calls != 1 {
		t.Fatalf("transport saw %d calls, want 1", calls)
	}
}

// TestClientOverloadedSigner: a signer that sheds load with the
// overloaded code surfaces ErrOverloaded through the direct client, with
// its Retry-After hint when the header holds delta-seconds and none
// otherwise.
func TestClientOverloadedSigner(t *testing.T) {
	for header, want := range map[string]time.Duration{
		"":                              0,
		"1":                             time.Second,
		"120":                           2 * time.Minute,
		"-1":                            0,
		"1.5":                           0,
		"soon":                          0,
		"Wed, 21 Oct 2015 07:28:00 GMT": 0,
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if header != "" {
				w.Header().Set("Retry-After", header)
			}
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":"signer overloaded","code":"overloaded"}`))
		}))
		c := &Client{BaseURL: srv.URL}
		_, _, err := c.Sign(context.Background(), []byte("m"))
		srv.Close()
		if !errors.Is(err, tsig.ErrOverloaded) {
			t.Fatalf("Retry-After %q: want ErrOverloaded, got %v", header, err)
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.RetryAfter != want {
			t.Fatalf("Retry-After %q: got %v, want RetryAfter %v", header, err, want)
		}
	}
}

// TestClientByzantineQuorumError: when quorum fails WITH Byzantine
// shares among the answers, the wire code carries that evidence and
// errors.Is(err, tsig.ErrInvalidShare) holds across the HTTP boundary.
func TestClientByzantineQuorumError(t *testing.T) {
	group, members := fixture(t)
	urls := make([]string, group.N)
	for i, m := range members {
		s, err := service.NewSigner(m, service.SignerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		// Every signer is Byzantine: it signs a different message than
		// the one requested, so shares are well-formed but invalid.
		tampered := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			var req service.SignRequest
			if r.URL.Path == "/v1/sign" && json.Unmarshal(body, &req) == nil {
				req.Message = append(req.Message, []byte("::evil")...)
				body, _ = json.Marshal(req)
			}
			r2 := r.Clone(r.Context())
			r2.Body = io.NopCloser(bytes.NewReader(body))
			r2.ContentLength = int64(len(body))
			s.ServeHTTP(w, r2)
		})
		srv := httptest.NewServer(tampered)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	coord, err := service.NewCoordinator(group, urls, service.CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()

	c := &Client{BaseURL: srv.URL}
	_, _, err = c.Sign(context.Background(), []byte("byzantine quorum probe"))
	if !errors.Is(err, tsig.ErrQuorumUnreachable) {
		t.Fatalf("want ErrQuorumUnreachable, got %v", err)
	}
	if !errors.Is(err, tsig.ErrInvalidShare) {
		t.Fatalf("want ErrInvalidShare carried across the wire, got %v", err)
	}
	if !errors.Is(err, tsig.ErrInsufficientShares) {
		t.Fatalf("want ErrInsufficientShares carried across the wire, got %v", err)
	}
}

// TestClientRequestIDPropagation: a caller-chosen request id rides the
// outbound request, comes back in the signing receipt, and is attached
// to API errors for log correlation.
func TestClientRequestIDPropagation(t *testing.T) {
	group, _ := fixture(t)
	base := startService(t, service.CoordinatorConfig{})
	var sawHeader string
	c := &Client{
		BaseURL: base,
		Transport: roundTripperFunc(func(req *http.Request) (*http.Response, error) {
			sawHeader = req.Header.Get(service.HeaderRequestID)
			return http.DefaultClient.Do(req)
		}),
	}
	const rid = "cli-trace-0001"
	ctx := service.WithRequestID(context.Background(), rid)

	msg := []byte("traced through the client")
	sig, receipt, err := c.Sign(ctx, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !group.Verify(msg, sig) {
		t.Fatal("invalid signature")
	}
	if sawHeader != rid {
		t.Fatalf("outbound %s header = %q, want %q", service.HeaderRequestID, sawHeader, rid)
	}
	if receipt.RequestID != rid {
		t.Fatalf("receipt request id = %q, want %q", receipt.RequestID, rid)
	}

	// Without a caller-chosen id the coordinator generates one and the
	// receipt still carries it.
	_, receipt, err = c.Sign(context.Background(), []byte("auto-id message"))
	if err != nil {
		t.Fatal(err)
	}
	if receipt.RequestID == "" {
		t.Fatal("receipt missing the coordinator-generated request id")
	}

	// Errors carry the id too.
	_, _, err = c.Sign(ctx, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %v", err)
	}
	if apiErr.RequestID != rid {
		t.Fatalf("APIError request id = %q, want %q", apiErr.RequestID, rid)
	}
}
