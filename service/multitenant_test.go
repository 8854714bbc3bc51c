package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/service/registry"
)

// ---- satellite: per-tenant signature cache ----

// TestSigCachePerTenant is the cross-tenant cache regression test: two
// tenants signing the SAME message must never share a cache entry — a
// digest-only key would serve tenant A's signature to tenant B.
func TestSigCachePerTenant(t *testing.T) {
	msg := []byte("the very same message")
	ka, kb := sigKey("alpha", msg), sigKey("beta", msg)
	if ka == kb {
		t.Fatal("cache keys for two tenants signing the same message collide")
	}
	if ka.id == kb.id {
		t.Fatal("two tenants' index ids for the same message collide")
	}

	c := newSigCache(4)
	var sigA, sigB [core.SignatureSize]byte
	sigA[0], sigB[0] = 'a', 'b'
	c.add(ka, sigA[:], []int{1, 2})
	if _, _, ok := c.get(kb); ok {
		t.Fatal("tenant beta got a cache hit on tenant alpha's signature")
	}
	c.add(kb, sigB[:], []int{3, 4})
	if got, _, ok := c.get(ka); !ok || got != sigA {
		t.Fatal("tenant alpha's entry was clobbered by tenant beta's")
	}
	if got, _, ok := c.get(kb); !ok || got != sigB {
		t.Fatal("tenant beta's own entry missing")
	}

	// Rotating alpha drops exactly alpha's entries.
	c.dropGroup("alpha")
	if _, _, ok := c.get(ka); ok {
		t.Fatal("dropGroup left tenant alpha's entry behind")
	}
	if _, _, ok := c.get(kb); !ok {
		t.Fatal("dropGroup evicted tenant beta's entry too")
	}
}

// ---- HTTP plumbing helpers ----

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func httpPost(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func httpDelete(t *testing.T, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// signOverHTTP posts a sign request and returns the decoded response.
func signOverHTTP(t *testing.T, baseURL, prefix string, msg []byte) *SignatureResponse {
	t.Helper()
	body, _ := json.Marshal(SignRequest{Message: msg})
	status, raw := httpPost(t, baseURL+prefix+"/sign", string(body))
	if status != http.StatusOK {
		t.Fatalf("POST %s/sign: status %d: %s", prefix, status, raw)
	}
	var sr SignatureResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	return &sr
}

// runDKGOverHTTP mints (or rotates) a tenant through the coordinator's
// HTTP surface and returns the resulting group.
func runDKGOverHTTP(t *testing.T, coordURL, prefix string, thr int, domain string, rotate bool) *core.Group {
	t.Helper()
	body, _ := json.Marshal(ProtoRunRequest{T: thr, Domain: domain, Rotate: rotate})
	status, raw := httpPost(t, coordURL+prefix+"/proto/dkg/run", string(body))
	if status != http.StatusOK {
		t.Fatalf("POST %s/proto/dkg/run: status %d: %s", prefix, status, raw)
	}
	var pr ProtoRunResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	group, err := core.UnmarshalGroup(pr.Group)
	if err != nil {
		t.Fatal(err)
	}
	return group
}

// ---- satellite: legacy-route parity ----

// TestLegacyRouteParity pins the back-compat contract: every legacy
// un-namespaced /v1/* route answers byte-identically to its
// /v1/g/default/* twin — same handlers, same bodies, same errors.
func TestLegacyRouteParity(t *testing.T) {
	f := testFixture(t)
	urls := startSigners(t, f, nil)
	// Caching disabled so the legacy and namespaced sign calls cannot
	// influence each other through the shared cache ("cached":true flag).
	coord := newTestCoordinator(t, urls, CoordinatorConfig{CacheSize: -1})
	coordSrv := httptest.NewServer(coord)
	t.Cleanup(coordSrv.Close)
	signerSrv := httptest.NewServer(newTestSigner(t, f, 1))
	t.Cleanup(signerSrv.Close)

	signBody, _ := json.Marshal(SignRequest{Message: []byte("parity probe")})
	batchBody, _ := json.Marshal(SignBatchRequest{Messages: [][]byte{[]byte("p1"), []byte("p2")}})

	get := func(base, path string) (int, []byte) { return httpGet(t, base+path) }
	post := func(body string) func(string, string) (int, []byte) {
		return func(base, path string) (int, []byte) { return httpPost(t, base+path, body) }
	}

	cases := []struct {
		name string
		base string
		path string // without the /v1 or /v1/g/default prefix
		call func(base, path string) (int, []byte)
		// signature-bearing responses compare only the signature field:
		// the Signers accounting legitimately varies run to run (first
		// t+1 responders win the race).
		sigOnly bool
		// method-not-allowed bodies echo the request path, which
		// differs by construction; those compare the wire code only.
		codeOnly bool
	}{
		{name: "signer pubkey", base: signerSrv.URL, path: "/pubkey", call: get},
		{name: "signer vk", base: signerSrv.URL, path: "/vk", call: get},
		{name: "signer sign", base: signerSrv.URL, path: "/sign", call: post(string(signBody))},
		{name: "signer sign-batch", base: signerSrv.URL, path: "/sign-batch", call: post(string(batchBody))},
		{name: "signer sign empty message", base: signerSrv.URL, path: "/sign", call: post(`{"message":""}`)},
		{name: "signer sign bad json", base: signerSrv.URL, path: "/sign", call: post(`{`)},
		{name: "signer sign wrong method", base: signerSrv.URL, path: "/sign", call: get, codeOnly: true},
		{name: "signer proto bad start", base: signerSrv.URL, path: "/proto/dkg/start", call: post(`{"session":""}`)},
		{name: "coordinator pubkey", base: coordSrv.URL, path: "/pubkey", call: get},
		{name: "coordinator sign", base: coordSrv.URL, path: "/sign", call: post(string(signBody)), sigOnly: true},
		{name: "coordinator sign empty message", base: coordSrv.URL, path: "/sign", call: post(`{"message":""}`)},
		{name: "coordinator sign wrong method", base: coordSrv.URL, path: "/sign", call: get, codeOnly: true},
		{name: "coordinator dkg bad params", base: coordSrv.URL, path: "/proto/dkg/run", call: post(`{"t":0,"domain":"x"}`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			legacyStatus, legacyBody := tc.call(tc.base, "/v1"+tc.path)
			nsStatus, nsBody := tc.call(tc.base, "/v1/g/default"+tc.path)
			if legacyStatus != nsStatus {
				t.Fatalf("status mismatch: legacy %d, namespaced %d (%s vs %s)",
					legacyStatus, nsStatus, legacyBody, nsBody)
			}
			if tc.codeOnly {
				var l, n ErrorResponse
				if err := json.Unmarshal(legacyBody, &l); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(nsBody, &n); err != nil {
					t.Fatal(err)
				}
				if l.Code != n.Code || l.Code == "" {
					t.Fatalf("wire code mismatch: legacy %q, namespaced %q", l.Code, n.Code)
				}
				return
			}
			if tc.sigOnly {
				var l, n SignatureResponse
				if err := json.Unmarshal(legacyBody, &l); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(nsBody, &n); err != nil {
					t.Fatal(err)
				}
				// The scheme is deterministic, so the same message under
				// the same (default) group yields the same signature bytes
				// on both routes.
				if !bytes.Equal(l.Signature, n.Signature) {
					t.Fatal("legacy and namespaced routes produced different signatures")
				}
				return
			}
			if !bytes.Equal(legacyBody, nsBody) {
				t.Fatalf("body mismatch:\nlegacy:     %s\nnamespaced: %s", legacyBody, nsBody)
			}
		})
	}
}

// ---- satellite: /readyz readiness split ----

// TestReadyzLifecycle: /healthz answers OK even keyless (liveness), while
// /readyz gates on actual key material per group.
func TestReadyzLifecycle(t *testing.T) {
	coord, signers := startDaemonQuorum(t, 3, CoordinatorConfig{}, nil, nil)
	coordSrv := httptest.NewServer(coord)
	t.Cleanup(coordSrv.Close)
	signerSrv := httptest.NewServer(signers[1])
	t.Cleanup(signerSrv.Close)

	for _, base := range []string{coordSrv.URL, signerSrv.URL} {
		if status, _ := httpGet(t, base+"/healthz"); status != http.StatusOK {
			t.Fatalf("keyless /healthz = %d, want 200 (liveness must not gate on keys)", status)
		}
		status, raw := httpGet(t, base+"/readyz")
		if status != http.StatusServiceUnavailable {
			t.Fatalf("keyless /readyz = %d, want 503", status)
		}
		var rr ReadyResponse
		if err := json.Unmarshal(raw, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Status != "unready" {
			t.Fatalf("keyless readyz status %q, want unready", rr.Status)
		}
	}

	if _, _, err := coord.RunDKG(context.Background(), 1, "readyz/v1"); err != nil {
		t.Fatal(err)
	}

	for _, base := range []string{coordSrv.URL, signerSrv.URL} {
		status, raw := httpGet(t, base+"/readyz")
		if status != http.StatusOK {
			t.Fatalf("keyed /readyz = %d, want 200 (%s)", status, raw)
		}
		var rr ReadyResponse
		if err := json.Unmarshal(raw, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Status != "ready" {
			t.Fatalf("keyed readyz status %q, want ready", rr.Status)
		}
		var def *GroupInfo
		for i := range rr.Groups {
			if rr.Groups[i].ID == DefaultGroupID {
				def = &rr.Groups[i]
			}
		}
		if def == nil || !def.Ready || def.Epoch != 1 {
			t.Fatalf("readyz default group = %+v, want ready at epoch 1", def)
		}
	}
	// The signer's readyz names its index for fleet debugging.
	_, raw := httpGet(t, signerSrv.URL+"/readyz")
	var rr ReadyResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Index != 1 {
		t.Fatalf("signer readyz index = %d, want 1", rr.Index)
	}
}

// ---- acceptance: two tenants on one fleet ----

// TestE2E_MultiTenantFleet is the acceptance scenario: ONE fleet of five
// keyless daemons serves two tenants. The default tenant is keyed over
// the legacy route; the second tenant ("orders") is minted at runtime by
// an on-demand remote DKG against a previously-unknown group ID. The
// two key groups are independent: interleaved sign/sign-batch traffic
// verifies under each tenant's own public key and under no other, a
// proactive refresh of one tenant leaves the other bit-for-bit
// untouched, and every legacy un-namespaced route stays green
// throughout.
func TestE2E_MultiTenantFleet(t *testing.T) {
	coord, signers := startDaemonQuorum(t, 5, CoordinatorConfig{}, nil, nil)
	coordSrv := httptest.NewServer(coord)
	t.Cleanup(coordSrv.Close)

	// Tenant 1: the default group, born over the legacy route.
	defGroup := runDKGOverHTTP(t, coordSrv.URL, "/v1", 2, "mt/default", false)

	// Tenant 2: minted at runtime — the fleet has never heard of
	// "orders"; the DKG run registers it and raises its key on the spot.
	ordGroup := runDKGOverHTTP(t, coordSrv.URL, "/v1/g/orders", 2, "mt/orders", false)

	if defGroup.PK.Equal(ordGroup.PK) {
		t.Fatal("two tenants share a public key")
	}
	// Every daemon now holds BOTH tenants' shares, in separate states.
	for i := 1; i <= 5; i++ {
		tn, err := signers[i].tenant("orders", false)
		if err != nil {
			t.Fatalf("daemon %d has no orders tenant: %v", i, err)
		}
		if m := tn.member.Load(); m == nil || !m.Group().PK.Equal(ordGroup.PK) {
			t.Fatalf("daemon %d orders state missing or wrong", i)
		}
		if g := signers[i].Group(); g == nil || !g.PK.Equal(defGroup.PK) {
			t.Fatalf("daemon %d default state clobbered by the orders keygen", i)
		}
	}

	// Interleaved single-sign traffic under both tenants.
	for round := 0; round < 3; round++ {
		msg := []byte(fmt.Sprintf("interleaved %d", round))
		defSig := signOverHTTP(t, coordSrv.URL, "/v1", msg)
		ordSig := signOverHTTP(t, coordSrv.URL, "/v1/g/orders", msg)
		ds, err := core.UnmarshalSignature(defSig.Signature)
		if err != nil {
			t.Fatal(err)
		}
		os, err := core.UnmarshalSignature(ordSig.Signature)
		if err != nil {
			t.Fatal(err)
		}
		if !defGroup.PK.Verify(msg, ds) || !ordGroup.PK.Verify(msg, os) {
			t.Fatalf("round %d: signature fails under its own tenant key", round)
		}
		// Cross-checks: each tenant's signature must NOT verify under
		// the other tenant's key (independent keys, domains, caches).
		if ordGroup.PK.Verify(msg, ds) || defGroup.PK.Verify(msg, os) {
			t.Fatalf("round %d: signature verifies under the WRONG tenant's key", round)
		}
	}

	// Interleaved batch traffic.
	msgs := [][]byte{[]byte("batch a"), []byte("batch b"), []byte("batch c")}
	batchBody, _ := json.Marshal(SignBatchRequest{Messages: msgs})
	for _, tc := range []struct {
		prefix string
		group  *core.Group
	}{{"/v1", defGroup}, {"/v1/g/orders", ordGroup}} {
		status, raw := httpPost(t, coordSrv.URL+tc.prefix+"/sign-batch", string(batchBody))
		if status != http.StatusOK {
			t.Fatalf("POST %s/sign-batch: status %d: %s", tc.prefix, status, raw)
		}
		var br SignBatchResponse
		if err := json.Unmarshal(raw, &br); err != nil {
			t.Fatal(err)
		}
		if len(br.Results) != len(msgs) {
			t.Fatalf("%s batch answered %d results", tc.prefix, len(br.Results))
		}
		for j, res := range br.Results {
			if res.Error != "" {
				t.Fatalf("%s batch message %d failed: %s", tc.prefix, j, res.Error)
			}
			sig, err := core.UnmarshalSignature(res.Signature)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.group.PK.Verify(msgs[j], sig) {
				t.Fatalf("%s batch message %d does not verify", tc.prefix, j)
			}
		}
	}

	// Refresh ONE tenant; the other must be bit-for-bit untouched.
	defBefore := signers[1].Group().Marshal()
	ordBefore := ordGroup.Marshal()
	refreshed := func() *core.Group {
		status, raw := httpPost(t, coordSrv.URL+"/v1/g/orders/proto/refresh/run", `{}`)
		if status != http.StatusOK {
			t.Fatalf("refresh orders: status %d: %s", status, raw)
		}
		var pr ProtoRunResponse
		if err := json.Unmarshal(raw, &pr); err != nil {
			t.Fatal(err)
		}
		g, err := core.UnmarshalGroup(pr.Group)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}()
	if !refreshed.PK.Equal(ordGroup.PK) {
		t.Fatal("refresh changed the orders public key")
	}
	if bytes.Equal(refreshed.Marshal(), ordBefore) {
		t.Fatal("refresh did not re-randomize the orders verification keys")
	}
	if !bytes.Equal(signers[1].Group().Marshal(), defBefore) {
		t.Fatal("refreshing the orders tenant mutated the default tenant's group")
	}

	// Legacy routes stay green after all the tenant traffic.
	msg := []byte("legacy still first-class")
	sr := signOverHTTP(t, coordSrv.URL, "/v1", msg)
	sig, err := core.UnmarshalSignature(sr.Signature)
	if err != nil {
		t.Fatal(err)
	}
	if !defGroup.PK.Verify(msg, sig) {
		t.Fatal("legacy sign broken after multi-tenant traffic")
	}
	if status, _ := httpGet(t, coordSrv.URL+"/v1/pubkey"); status != http.StatusOK {
		t.Fatal("legacy /v1/pubkey broken")
	}
	status, raw := httpGet(t, coordSrv.URL+"/v1/groups")
	if status != http.StatusOK {
		t.Fatalf("/v1/groups: status %d", status)
	}
	var gr GroupsResponse
	if err := json.Unmarshal(raw, &gr); err != nil {
		t.Fatal(err)
	}
	ready := 0
	for _, g := range gr.Groups {
		if g.Ready {
			ready++
		}
	}
	if ready != 2 {
		t.Fatalf("/v1/groups reports %d ready groups, want 2 (%s)", ready, raw)
	}
}

// ---- rotation and deletion lifecycle ----

func TestGroupRotationAndDeletion(t *testing.T) {
	coord, _ := startDaemonQuorum(t, 3, CoordinatorConfig{}, nil, nil)
	coordSrv := httptest.NewServer(coord)
	t.Cleanup(coordSrv.Close)
	ctx := context.Background()

	g1, _, err := coord.RunDKGGroup(ctx, "pay", 1, "rot/v1", false)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("pre-rotation")
	sig1, _, err := coord.SignGroup(ctx, "pay", msg)
	if err != nil {
		t.Fatal(err)
	}
	if !g1.PK.Verify(msg, sig1) {
		t.Fatal("pre-rotation signature invalid")
	}

	// A plain re-keygen on a keyed tenant is still a conflict …
	if _, _, err := coord.RunDKGGroup(ctx, "pay", 1, "rot/v1", false); !errors.Is(err, ErrConflict) {
		t.Fatalf("re-keygen err = %v, want ErrConflict", err)
	}
	// … but an explicit rotation replaces the key under a bumped epoch.
	g2, _, err := coord.RunDKGGroup(ctx, "pay", 1, "rot/v1", true)
	if err != nil {
		t.Fatal(err)
	}
	if g2.PK.Equal(g1.PK) {
		t.Fatal("rotation kept the same public key")
	}
	if rec, ok := coord.reg.Get("pay"); !ok || rec.Epoch != 2 {
		t.Fatalf("post-rotation record = %+v, want epoch 2", rec)
	}
	// The rotation must have dropped the cached pre-rotation signature:
	// re-signing the same message yields the NEW key's signature.
	sig2, rep, err := coord.SignGroup(ctx, "pay", msg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cached {
		t.Fatal("post-rotation sign served the old cached signature")
	}
	if !g2.PK.Verify(msg, sig2) || g1.PK.Verify(msg, sig2) {
		t.Fatal("post-rotation signature not under the new key")
	}

	// Deletion tombstones the tenant across the fleet.
	status, raw := httpDelete(t, coordSrv.URL+"/v1/g/pay")
	if status != http.StatusOK {
		t.Fatalf("DELETE /v1/g/pay: status %d: %s", status, raw)
	}
	var dr GroupDeleteResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	if len(dr.Unreachable) != 0 {
		t.Fatalf("deletion missed signers %v", dr.Unreachable)
	}
	if _, _, err := coord.SignGroup(ctx, "pay", msg); !errors.Is(err, ErrGroupDeleted) {
		t.Fatalf("post-delete sign err = %v, want ErrGroupDeleted", err)
	}
	// Over the wire: 410 Gone with the typed code.
	body, _ := json.Marshal(SignRequest{Message: msg})
	st, raw := httpPost(t, coordSrv.URL+"/v1/g/pay/sign", string(body))
	if st != http.StatusGone {
		t.Fatalf("post-delete HTTP sign = %d, want 410 (%s)", st, raw)
	}
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.Code != CodeGroupDeleted {
		t.Fatalf("post-delete error body %s", raw)
	}
	// The ID is retired PERMANENTLY — a fresh mint must refuse.
	if _, _, err := coord.RunDKGGroup(ctx, "pay", 1, "rot/v2", false); !errors.Is(err, ErrGroupDeleted) {
		t.Fatalf("re-mint of tombstoned id err = %v, want ErrGroupDeleted", err)
	}
	// Deletion is idempotent.
	if st, _ := httpDelete(t, coordSrv.URL+"/v1/g/pay"); st != http.StatusOK {
		t.Fatalf("second DELETE = %d, want 200", st)
	}

	// Unknown and malformed IDs answer their own typed errors.
	if st, _ = httpPost(t, coordSrv.URL+"/v1/g/nonesuch/sign", string(body)); st != http.StatusNotFound {
		t.Fatalf("unknown group sign = %d, want 404", st)
	}
	if st, _ = httpPost(t, coordSrv.URL+"/v1/g/bad..%2Fid/sign", string(body)); st == http.StatusOK {
		t.Fatal("malformed group id accepted")
	}
}

// holdSigns is a RoundTripper that, while armed, holds every share answer
// once it has come back from its signer: held takes one token per answer
// held, and they all go on when release is closed.
type holdSigns struct {
	armed         atomic.Bool
	held, release chan struct{}
}

func (h *holdSigns) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || !h.armed.Load() || !strings.HasSuffix(r.URL.Path, "/sign") {
		return resp, err
	}
	h.held <- struct{}{}
	<-h.release
	return resp, nil
}

// TestRotationRacingFanOutCachesNoStaleSignature: a fan-out whose shares
// were signed under the old key and arrive after a rotation installed the
// new one still answers its caller, but leaves nothing in the cache — the
// next Sign of the same message is signed afresh under the new key. A Sign
// of the same message that starts after the rotation returned, while that
// fan-out is still out, does not join it: it leads a fan-out of its own
// under the new key.
func TestRotationRacingFanOutCachesNoStaleSignature(t *testing.T) {
	const n = 3
	hs := &holdSigns{held: make(chan struct{}, n), release: make(chan struct{})}
	coord, _ := startDaemonQuorum(t, n, CoordinatorConfig{HTTPClient: &http.Client{Transport: hs}}, nil, nil)
	ctx := context.Background()
	g1, _, err := coord.RunDKGGroup(ctx, "pay", 1, "race/v1", false)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("signed across a rotation")
	hs.armed.Store(true)
	signed := make(chan error, 1)
	go func() {
		sig, _, err := coord.SignGroup(ctx, "pay", msg)
		if err == nil && !g1.PK.Verify(msg, sig) {
			err = errors.New("the held fan-out's signature does not verify under the old key")
		}
		signed <- err
	}()
	// The tenant's first fan-out asks all n signers: wait until every
	// answer, signed under the old shares, is held.
	for range n {
		select {
		case <-hs.held:
		case <-time.After(10 * time.Second):
			t.Fatal("the share answers never reached the coordinator")
		}
	}
	hs.armed.Store(false)
	g2, _, err := coord.RunDKGGroup(ctx, "pay", 1, "race/v1", true)
	if err != nil {
		t.Fatal(err)
	}
	type signRes struct {
		sig *core.Signature
		rep SignReport
		err error
	}
	follower := make(chan signRes, 1)
	go func() {
		sig, rep, err := coord.SignGroup(ctx, "pay", msg)
		follower <- signRes{sig, rep, err}
	}()
	var fr signRes
	select {
	case fr = <-follower:
		close(hs.release)
	case <-time.After(10 * time.Second):
		t.Error("the post-rotation Sign waited on the pre-rotation fan-out")
		close(hs.release)
		fr = <-follower
	}
	if fr.err != nil {
		t.Fatalf("post-rotation Sign: %v", fr.err)
	}
	if !g2.PK.Verify(msg, fr.sig) || fr.rep.Coalesced {
		t.Fatalf("post-rotation Sign: coalesced=%v, verifies under the new key %v, under the old key %v",
			fr.rep.Coalesced, g2.PK.Verify(msg, fr.sig), g1.PK.Verify(msg, fr.sig))
	}
	if err := <-signed; err != nil {
		t.Fatal(err)
	}
	sig, rep, err := coord.SignGroup(ctx, "pay", msg)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.PK.Verify(msg, sig) {
		t.Fatalf("cached=%v: the signature after the rotation does not verify under the new key (old key: %v)", rep.Cached, g1.PK.Verify(msg, sig))
	}
}

// ---- durable multi-tenant keystores ----

// TestTenantKeystorePersistence: a fleet with file-backed registries
// mints a tenant, is torn down entirely, and is rebuilt over the same
// directories — every tenant (default and named) must come back from
// disk and sign without any new key generation.
func TestTenantKeystorePersistence(t *testing.T) {
	n := 3
	signerDirs := make([]string, n+1)
	for i := 1; i <= n; i++ {
		signerDirs[i] = t.TempDir()
	}
	coordDir := t.TempDir()
	ctx := context.Background()

	openReg := func(dir string) *registry.Registry {
		reg, err := registry.Open(registry.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	buildFleet := func() (*Coordinator, func()) {
		urls := make([]string, n)
		var closers []func()
		for i := 1; i <= n; i++ {
			s, err := NewDaemonSigner(DaemonConfig{Index: i, Registry: openReg(signerDirs[i])})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(s)
			closers = append(closers, srv.Close)
			urls[i-1] = srv.URL
		}
		coord, err := NewKeylessCoordinator(urls, CoordinatorConfig{Registry: openReg(coordDir)})
		if err != nil {
			t.Fatal(err)
		}
		return coord, func() {
			for _, c := range closers {
				c()
			}
		}
	}

	coord, stop := buildFleet()
	defGroup, _, err := coord.RunDKG(ctx, 1, "persist/default")
	if err != nil {
		t.Fatal(err)
	}
	payGroup, _, err := coord.RunDKGGroup(ctx, "pay", 1, "persist/pay", false)
	if err != nil {
		t.Fatal(err)
	}
	stop() // the whole fleet goes away

	// A brand-new fleet over the same directories: no DKG this time.
	coord2, stop2 := buildFleet()
	defer stop2()
	msg := []byte("risen from disk")
	sig, _, err := coord2.Sign(ctx, msg)
	if err != nil {
		t.Fatalf("default tenant did not come back from disk: %v", err)
	}
	if !defGroup.PK.Verify(msg, sig) {
		t.Fatal("restored default tenant signs under a different key")
	}
	paySig, _, err := coord2.SignGroup(ctx, "pay", msg)
	if err != nil {
		t.Fatalf("named tenant did not come back from disk: %v", err)
	}
	if !payGroup.PK.Verify(msg, paySig) {
		t.Fatal("restored pay tenant signs under a different key")
	}
	// The registry remembers the epochs too.
	if rec, ok := coord2.reg.Get("pay"); !ok || rec.Epoch != 1 || rec.Domain != "persist/pay" {
		t.Fatalf("restored pay record = %+v", rec)
	}
}

// TestFileKeyAdoption: a daemon started from -group/-share FILES plus a
// file-backed registry must adopt that key material into the keystore,
// so a later restart from the keystore alone still serves the default
// group (regression: only DKG-minted groups were persisted, leaving a
// manifest record that claimed a readiness the keystore couldn't back).
func TestFileKeyAdoption(t *testing.T) {
	f := testFixture(t)

	// Signer: file material in, keystore restart out.
	sdir := t.TempDir()
	reg1, err := registry.Open(registry.Config{Dir: sdir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDaemonSigner(DaemonConfig{Member: f.members[1], Registry: reg1}); err != nil {
		t.Fatal(err)
	}
	reg2, err := registry.Open(registry.Config{Dir: sdir})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewDaemonSigner(DaemonConfig{Index: 1, Registry: reg2})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Group() == nil || !s2.Group().PK.Equal(f.group.PK) {
		t.Fatal("restarted signer did not recover the adopted default group")
	}

	// Coordinator: the public group file round-trips the same way.
	cdir := t.TempDir()
	creg1, err := registry.Open(registry.Config{Dir: cdir})
	if err != nil {
		t.Fatal(err)
	}
	urls := startSigners(t, f, nil)
	if _, err := NewCoordinator(f.group, urls, CoordinatorConfig{Registry: creg1}); err != nil {
		t.Fatal(err)
	}
	creg2, err := registry.Open(registry.Config{Dir: cdir})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewKeylessCoordinator(urls, CoordinatorConfig{Registry: creg2})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Group() == nil || !c2.Group().PK.Equal(f.group.PK) {
		t.Fatal("restarted coordinator did not recover the adopted default group")
	}
}

// fleetDirs is one keystore directory per signer (1-based) plus the
// coordinator's: a fleet whose every daemon keeps its registry on disk,
// so it can be torn down and rebuilt over the same state.
type fleetDirs struct {
	signer []string
	coord  string
}

func newFleetDirs(t *testing.T, n int) fleetDirs {
	d := fleetDirs{signer: make([]string, n+1), coord: t.TempDir()}
	for i := 1; i <= n; i++ {
		d.signer[i] = t.TempDir()
	}
	return d
}

// start builds a fleet over the directories, every registry's hot LRU
// bounded by hotCap (0 = the default). With seed members (1-based),
// signer i is seeded with seed[i] and the coordinator with their group,
// as tsigd -group/-share do; without them, the fleet starts from whatever
// its registries hold. stop closes the signer servers.
func (d fleetDirs) start(t *testing.T, hotCap int, seed []*core.Member) (*Coordinator, []*Signer, func()) {
	t.Helper()
	open := func(dir string) *registry.Registry {
		reg, err := registry.Open(registry.Config{Dir: dir, HotCap: hotCap})
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	n := len(d.signer) - 1
	urls := make([]string, n)
	signers := make([]*Signer, n+1)
	var servers []*httptest.Server
	stop := func() {
		for _, srv := range servers {
			srv.Close()
		}
	}
	for i := 1; i <= n; i++ {
		cfg := DaemonConfig{Index: i, Registry: open(d.signer[i])}
		if seed != nil {
			cfg.Member = seed[i]
		}
		s, err := NewDaemonSigner(cfg)
		if err != nil {
			stop()
			t.Fatal(err)
		}
		srv := httptest.NewServer(s)
		servers = append(servers, srv)
		signers[i], urls[i-1] = s, srv.URL
	}
	var c *Coordinator
	var err error
	if seed != nil {
		c, err = NewCoordinator(seed[1].Group(), urls, CoordinatorConfig{Registry: open(d.coord)})
	} else {
		c, err = NewKeylessCoordinator(urls, CoordinatorConfig{Registry: open(d.coord)})
	}
	if err != nil {
		stop()
		t.Fatal(err)
	}
	return c, signers, stop
}

// TestSeededRestartKeepsRefresh: a fleet seeded from dealer files
// (-group/-share plus -keystore-dir) refreshes, then every daemon
// restarts from the SAME files and directories. The seeds must not
// bring the pre-refresh sharing back: the registry's refreshed epoch is
// what every daemon serves, and the fleet still signs.
func TestSeededRestartKeepsRefresh(t *testing.T) {
	f := testFixture(t)
	ctx := context.Background()
	dirs := newFleetDirs(t, f.group.N)
	coord, _, stop := dirs.start(t, 0, f.members)
	refreshed, report, err := coord.RunRefresh(ctx)
	stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Crashed) != 0 {
		t.Fatalf("refresh excluded %v", report.Crashed)
	}
	if string(refreshed.Marshal()) == string(f.group.Marshal()) {
		t.Fatal("refresh did not change the verification keys")
	}

	coord, signers, stop := dirs.start(t, 0, f.members)
	defer stop()
	want := refreshed.Marshal()
	if g := coord.Group(); g == nil || string(g.Marshal()) != string(want) {
		t.Fatal("restarted coordinator serves the pre-refresh group")
	}
	if rec, _ := coord.reg.Get(DefaultGroupID); rec.Epoch != 2 {
		t.Fatalf("coordinator epoch %d after seed+refresh+restart, want 2", rec.Epoch)
	}
	for i := 1; i <= f.group.N; i++ {
		if g := signers[i].Group(); g == nil || string(g.Marshal()) != string(want) {
			t.Fatalf("restarted signer %d serves the pre-refresh group", i)
		}
		if rec, _ := signers[i].reg.Get(DefaultGroupID); rec.Epoch != 2 {
			t.Fatalf("signer %d epoch %d after seed+refresh+restart, want 2", i, rec.Epoch)
		}
	}
	msg := []byte("the old share never comes back")
	sig, rep, err := coord.Sign(ctx, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !refreshed.Verify(msg, sig) || len(rep.Invalid) != 0 {
		t.Fatalf("restarted fleet: verify=%v invalid=%v", refreshed.Verify(msg, sig), rep.Invalid)
	}
}

// TestSeedWithForeignKeyFails: a registry that already holds a default
// group (minted by a DKG) plus seed files from ANOTHER key is outside
// input pointing at the wrong directory. Both constructors refuse it and
// name the keystore, instead of silently serving either key.
func TestSeedWithForeignKeyFails(t *testing.T) {
	dirs := newFleetDirs(t, 3)
	coord, _, stop := dirs.start(t, 0, nil)
	if _, _, err := coord.RunDKG(context.Background(), 1, "seed-foreign/v1"); err != nil {
		stop()
		t.Fatal(err)
	}
	stop()

	params := core.NewParams("seed-foreign/v1")
	views, _, err := core.DistKeygen(params, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := core.NewGroup("seed-foreign/v1", 3, 1, views[1])
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(registry.Config{Dir: dirs.signer[1]})
	if err != nil {
		t.Fatal(err)
	}
	member, err := foreign.Member(views[1].Share)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewDaemonSigner(DaemonConfig{Member: member, Registry: reg})
	if err == nil || !strings.Contains(err.Error(), reg.GroupDir(DefaultGroupID)) {
		t.Fatalf("signer seeded with a foreign key: err = %v", err)
	}
	creg, err := registry.Open(registry.Config{Dir: dirs.coord})
	if err != nil {
		t.Fatal(err)
	}
	urls := []string{downURL(t), downURL(t), downURL(t)}
	_, err = NewCoordinator(foreign, urls, CoordinatorConfig{Registry: creg})
	if err == nil || !strings.Contains(err.Error(), creg.GroupDir(DefaultGroupID)) {
		t.Fatalf("coordinator seeded with a foreign key: err = %v", err)
	}
}

// TestDefaultTenantSurvivesEviction: with file-backed registries whose
// hot LRU holds ONE tenant, minting a second tenant evicts the default
// group on every daemon. It is an ordinary tenant, so both its routes
// fault it back in from the keystores and sign under its key.
func TestDefaultTenantSurvivesEviction(t *testing.T) {
	ctx := context.Background()
	coord, signers, stop := newFleetDirs(t, 3).start(t, 1, nil)
	defer stop()
	group, _, err := coord.RunDKG(ctx, 1, "evict/default")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coord.RunDKGGroup(ctx, "pay", 1, "evict/pay", false); err != nil {
		t.Fatal(err)
	}
	regs := []*registry.Registry{coord.reg}
	for _, s := range signers[1:] {
		regs = append(regs, s.reg)
	}
	for _, reg := range regs {
		if _, hot := reg.HotGet(DefaultGroupID); hot {
			t.Fatal("minting a second tenant did not evict the default group")
		}
	}

	srv := httptest.NewServer(coord)
	defer srv.Close()
	for k, path := range []string{"/v1/sign", "/v1/g/default/sign"} {
		msg := []byte(fmt.Sprintf("evicted and back %d", k))
		body, _ := json.Marshal(SignRequest{Message: msg})
		st, raw := httpPost(t, srv.URL+path, string(body))
		if st != http.StatusOK {
			t.Fatalf("%s = %d: %s", path, st, raw)
		}
		var resp SignatureResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		sig, err := core.UnmarshalSignature(resp.Signature)
		if err != nil {
			t.Fatal(err)
		}
		if !group.Verify(msg, sig) {
			t.Fatalf("%s signed under another key", path)
		}
	}
	for _, reg := range regs {
		if _, hot := reg.HotGet(DefaultGroupID); !hot {
			t.Fatal("signing did not fault the default group back in")
		}
	}
}
