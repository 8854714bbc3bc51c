package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestEndToEndHTTPPipeline is the subsystem's acceptance test: a
// coordinator gateway in front of n=7, t=3 HTTP signer nodes produces a
// signature accepted by Verify, through the full client -> HTTP
// coordinator -> HTTP signers -> combine pipeline, with up to t=3
// signers down or Byzantine.
func TestEndToEndHTTPPipeline(t *testing.T) {
	f := testFixture(t)
	cases := []struct {
		name string
		down []int
		byz  []int
	}{
		{name: "all healthy"},
		{name: "3 down", down: []int{2, 4, 6}},
		{name: "3 Byzantine", byz: []int{1, 3, 5}},
		{name: "2 down 1 Byzantine", down: []int{5, 7}, byz: []int{1}},
		{name: "1 down 2 Byzantine", down: []int{3}, byz: []int{4, 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			urls := startSigners(t, f, func(i int, h http.Handler) http.Handler {
				if contains(tc.byz, i) {
					return tamperSign(h)
				}
				return h
			})
			for _, i := range tc.down {
				urls[i-1] = downURL(t)
			}
			coord := newTestCoordinator(t, urls, CoordinatorConfig{SignerTimeout: 2 * time.Second})
			gateway := httptest.NewServer(coord)
			defer gateway.Close()

			client := &Client{BaseURL: gateway.URL}
			pk, info, err := client.FetchPubkey(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if info.N != fixN || info.T != fixT {
				t.Fatalf("gateway advertises n=%d t=%d", info.N, info.T)
			}
			if !pk.Equal(f.group.PK) {
				t.Fatal("gateway public key differs from the group's")
			}

			msg := []byte("e2e: " + tc.name)
			sig, resp, err := client.Sign(context.Background(), msg)
			if err != nil {
				t.Fatalf("Sign via gateway: %v", err)
			}
			if !pk.Verify(msg, sig) {
				t.Fatal("end-to-end signature rejected by Verify")
			}
			if len(resp.Signers) != fixT+1 {
				t.Fatalf("gateway combined %d shares, want %d", len(resp.Signers), fixT+1)
			}
			for _, i := range append(append([]int{}, tc.down...), tc.byz...) {
				if contains(resp.Signers, i) {
					t.Fatalf("faulty signer %d in combination", i)
				}
			}
			// The deterministic scheme yields one signature per message:
			// a second request must hit the cache and return identical
			// bytes.
			sig2, resp2, err := client.Sign(context.Background(), msg)
			if err != nil {
				t.Fatal(err)
			}
			if !resp2.Cached {
				t.Fatal("second identical request was not served from cache")
			}
			if !sig2.Z.Equal(sig.Z) || !sig2.R.Equal(sig.R) {
				t.Fatal("cached signature differs")
			}
		})
	}
}
