package service

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestPrecomputeRebuildCounter pins the service-tier precompute
// contract. The coordinator, which verifies every signature, builds the
// pairing precompute exactly once per group install (DKG finish), never
// on warm signing traffic, and exactly once more on a refresh epoch —
// which installs a NEW Group object — observable as
// tsig_pairing_precompute_rebuilds_total. Signers never run a pairing,
// so they build no tables at all: their exposition has no such counter,
// and neither the keygen's Group nor the refresh's was ever warmed.
func TestPrecomputeRebuildCounter(t *testing.T) {
	coordURL, _, signerURLs, signers, _, _ := startObservedFleet(t, 3, CoordinatorConfig{CacheSize: -1})

	const counter = "tsig_pairing_precompute_rebuilds_total"
	wantCount := func(why string, want float64) {
		t.Helper()
		if v := metricValue(t, scrapeMetrics(t, coordURL), counter); v != want {
			t.Errorf("%s: coordinator rebuilds = %v, want %v", why, v, want)
		}
		for i, u := range signerURLs {
			if strings.Contains(scrapeMetrics(t, u), counter) {
				t.Errorf("%s: signer %d exports %s; signers build no pairing tables", why, i+1, counter)
			}
		}
	}
	signerGroups := func() []*core.Group {
		gs := make([]*core.Group, 0, len(signerURLs))
		for _, s := range signers[1:] {
			gs = append(gs, s.Group())
		}
		return gs
	}

	runDKGOverHTTP(t, coordURL, "/v1", 1, "precomp/v1", false)
	wantCount("after keygen", 1)
	installed := signerGroups()

	// Warm tenants: signing traffic resolves the same Group object and
	// must not rebuild anything.
	signOverHTTP(t, coordURL, "/v1", []byte("warm message 1"))
	signOverHTTP(t, coordURL, "/v1", []byte("warm message 2"))
	wantCount("after warm signs", 1)

	// A refresh epoch installs a new Group (new verification keys) on
	// every daemon: exactly one rebuild on the coordinator, stale tables
	// unreachable.
	if status, raw := httpPost(t, coordURL+"/v1/proto/refresh/run", `{}`); status != http.StatusOK {
		t.Fatalf("POST /v1/proto/refresh/run: status %d: %s", status, raw)
	}
	wantCount("after refresh epoch", 2)

	// The refreshed group serves warm again.
	signOverHTTP(t, coordURL, "/v1", []byte("post-epoch message"))
	wantCount("after post-epoch sign", 2)

	// Precompute reports whether THIS call built the tables: true on
	// every Group a signer ever installed means none was warmed before.
	for i, g := range append(installed, signerGroups()...) {
		if g == nil || !g.Precompute() {
			t.Errorf("signer group %d: pairing tables were built on a signer", i)
		}
	}
}
