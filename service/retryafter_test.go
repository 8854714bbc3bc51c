package service_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	tsig "repro"
	"repro/client"
	"repro/service"
)

// TestClientSurfacesRetryAfter: a saturated signer sheds with 503
// overloaded and Retry-After: 1, and the public client hands both to its
// caller — the sentinel through errors.Is, the hint as APIError.RetryAfter.
func TestClientSurfacesRetryAfter(t *testing.T) {
	_, members, err := tsig.NewScheme(tsig.WithDomain("retry-after/v1")).Keygen(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := service.NewSigner(members[0], service.SignerConfig{MaxWorkers: 1, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()
	c := &client.Client{BaseURL: srv.URL}

	release := service.Saturate(s)
	_, _, err = c.Sign(context.Background(), []byte("shed me"))
	release()
	if !errors.Is(err, tsig.ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %T", err)
	}
	if apiErr.RetryAfter != time.Second {
		t.Fatalf("RetryAfter = %v, want 1s", apiErr.RetryAfter)
	}

	// A refusal without the header carries no hint.
	_, _, err = c.Sign(context.Background(), nil)
	if !errors.As(err, &apiErr) || apiErr.RetryAfter != 0 {
		t.Fatalf("empty message: want *APIError with no RetryAfter, got %v", err)
	}
}
