package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// startMemberQuorum starts daemon signers already holding the fixture's
// key material plus a coordinator over them — the starting point for
// refresh runs.
func startMemberQuorum(t *testing.T, f *fixture, cfg CoordinatorConfig,
	down map[int]bool) (*Coordinator, []*Signer) {
	t.Helper()
	urls := make([]string, f.group.N)
	signers := make([]*Signer, f.group.N+1)
	for i := 1; i <= f.group.N; i++ {
		s, err := NewDaemonSigner(DaemonConfig{Member: f.members[i]})
		if err != nil {
			t.Fatal(err)
		}
		signers[i] = s
		srv := httptest.NewServer(s)
		if down[i] {
			srv.Close()
		} else {
			t.Cleanup(srv.Close)
		}
		urls[i-1] = srv.URL
	}
	coord, err := NewCoordinator(f.group, urls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return coord, signers
}

// TestE2E_RefreshOverHTTP drives one proactive refresh epoch over the
// wire: the public key is preserved, every verification key and share is
// re-randomized, the quorum keeps signing, and the pre-refresh shares are
// useless against the new group.
func TestE2E_RefreshOverHTTP(t *testing.T) {
	f := testFixture(t)
	coord, signers := startMemberQuorum(t, f, CoordinatorConfig{}, nil)

	msg := []byte("signed before the epoch")
	sigBefore, _, err := coord.Sign(context.Background(), msg)
	if err != nil {
		t.Fatal(err)
	}

	newGroup, report, err := coord.RunRefresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Crashed) != 0 {
		t.Fatalf("crashed = %v", report.Crashed)
	}
	if !newGroup.PK.Equal(f.group.PK) {
		t.Fatal("refresh changed the public key")
	}
	for i := 1; i <= f.group.N; i++ {
		if newGroup.VKs[i].Equal(f.group.VKs[i]) {
			t.Fatalf("verification key %d did not re-randomize", i)
		}
		m := signers[i].defTenant().member.Load()
		if m.PrivateShare().A1.Cmp(f.members[i].PrivateShare().A1) == 0 {
			t.Fatalf("signer %d share did not re-randomize", i)
		}
		if string(m.Group().Marshal()) != string(newGroup.Marshal()) {
			t.Fatalf("signer %d disagrees on the refreshed group", i)
		}
	}

	// Signatures from before the epoch still verify (the key is the
	// same), and the quorum keeps signing after it.
	if !newGroup.Verify(msg, sigBefore) {
		t.Fatal("pre-refresh signature no longer verifies")
	}
	msg2 := []byte("signed after the epoch")
	sig2, _, err := coord.Sign(context.Background(), msg2)
	if err != nil {
		t.Fatal(err)
	}
	if !newGroup.Verify(msg2, sig2) {
		t.Fatal("post-refresh signature does not verify")
	}

	// A share stolen before the epoch cannot contribute afterwards: its
	// partial signatures fail Share-Verify under the new keys.
	stolen, err := f.members[2].SignShare(msg2)
	if err != nil {
		t.Fatal(err)
	}
	if newGroup.ShareVerify(msg2, stolen) {
		t.Fatal("pre-refresh share still verifies after the epoch")
	}
}

// TestE2E_RefreshWithCrashedSigner: a signer that misses the epoch keeps
// its old share, which goes stale against the new verification keys; the
// rest of the quorum keeps signing without it. When the stale signer
// comes BACK and a second epoch runs, the group-state fingerprint in the
// refresh start excludes it up front — it must not apply the epoch to
// its divergent base and wedge the quorum by disagreeing at finish.
func TestE2E_RefreshWithCrashedSigner(t *testing.T) {
	f := testFixture(t)
	stale := f.group.N // the signer that misses the first epoch
	urls := make([]string, f.group.N)
	signers := make([]*Signer, f.group.N+1)
	for i := 1; i <= f.group.N; i++ {
		s, err := NewDaemonSigner(DaemonConfig{Member: f.members[i]})
		if err != nil {
			t.Fatal(err)
		}
		signers[i] = s
		srv := httptest.NewServer(s)
		if i == stale {
			srv.Close() // down for the first epoch
		} else {
			t.Cleanup(srv.Close)
		}
		urls[i-1] = srv.URL
	}
	coord, err := NewCoordinator(f.group, urls, CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}

	newGroup, report, err := coord.RunRefresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Crashed) != 1 || report.Crashed[0] != stale {
		t.Fatalf("crashed = %v, want [%d]", report.Crashed, stale)
	}
	if !newGroup.PK.Equal(f.group.PK) {
		t.Fatal("refresh changed the public key")
	}

	msg := []byte("quorum survives a stale signer")
	sig, rep, err := coord.Sign(context.Background(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if !newGroup.Verify(msg, sig) {
		t.Fatal("signature does not verify")
	}
	for _, s := range rep.Signers {
		if s == stale {
			t.Fatal("stale signer contributed a share")
		}
	}

	// The stale signer comes back up — still holding the PRE-epoch key
	// material — and a second epoch runs. The stale daemon is excluded at
	// start, the epoch completes for the healthy majority, and the quorum
	// keeps signing; without the fingerprint gate it would apply the
	// epoch to its stale base, disagree with everybody at finish, and the
	// installed states would diverge from the coordinator's group.
	srvStale := httptest.NewServer(signers[stale])
	t.Cleanup(srvStale.Close)
	urls2 := append([]string{}, urls...)
	urls2[stale-1] = srvStale.URL
	coord2, err := NewCoordinator(newGroup, urls2, CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	group3, report2, err := coord2.RunRefresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(report2.Crashed) != 1 || report2.Crashed[0] != stale {
		t.Fatalf("second epoch crashed = %v, want [%d] (stale signer excluded up front)", report2.Crashed, stale)
	}
	if !group3.PK.Equal(f.group.PK) {
		t.Fatal("second refresh changed the public key")
	}
	// The stale daemon must NOT have applied the second epoch.
	if g := signers[stale].defTenant().member.Load().Group(); !g.PK.Equal(f.group.PK) || !g.VKs[stale].Equal(f.group.VKs[stale]) {
		t.Fatal("stale signer mutated its key material during the epoch it was excluded from")
	}
	msg2 := []byte("second epoch, still signing")
	sig2, _, err := coord2.Sign(context.Background(), msg2)
	if err != nil {
		t.Fatal(err)
	}
	if !group3.Verify(msg2, sig2) {
		t.Fatal("signature after second epoch does not verify")
	}
}

// postProto is a raw session-endpoint client for the unit tests.
func postProto(t *testing.T, url string, body any) (int, ErrorResponse, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var er ErrorResponse
	_ = json.Unmarshal(buf.Bytes(), &er)
	return resp.StatusCode, er, buf.Bytes()
}

func TestSessionEndpointValidation(t *testing.T) {
	f := testFixture(t)

	keyless, err := NewDaemonSigner(DaemonConfig{Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	keylessSrv := httptest.NewServer(keyless)
	t.Cleanup(keylessSrv.Close)

	keyed, err := NewDaemonSigner(DaemonConfig{Member: f.members[1]})
	if err != nil {
		t.Fatal(err)
	}
	keyedSrv := httptest.NewServer(keyed)
	t.Cleanup(keyedSrv.Close)

	start := func(n, tt, idx int, domain, session string) ProtoStartRequest {
		return ProtoStartRequest{Session: session, N: n, T: tt, Index: idx, Domain: domain}
	}

	t.Run("dkg start on keyed signer conflicts", func(t *testing.T) {
		status, er, _ := postProto(t, keyedSrv.URL+"/v1/proto/dkg/start", start(7, 3, 1, "d/v1", "s1"))
		if status != http.StatusConflict || er.Code != CodeConflict {
			t.Fatalf("status %d code %q", status, er.Code)
		}
	})
	t.Run("refresh start on keyless signer needs key", func(t *testing.T) {
		status, er, _ := postProto(t, keylessSrv.URL+"/v1/proto/refresh/start", start(7, 3, 1, "", "s2"))
		if status != http.StatusServiceUnavailable || er.Code != CodeNoKey {
			t.Fatalf("status %d code %q", status, er.Code)
		}
	})
	t.Run("wrong index conflicts", func(t *testing.T) {
		status, er, _ := postProto(t, keylessSrv.URL+"/v1/proto/dkg/start", start(5, 2, 4, "d/v1", "s3"))
		if status != http.StatusConflict || er.Code != CodeConflict {
			t.Fatalf("status %d code %q", status, er.Code)
		}
	})
	t.Run("undersized group rejected", func(t *testing.T) {
		status, er, _ := postProto(t, keylessSrv.URL+"/v1/proto/dkg/start", start(4, 2, 1, "d/v1", "s4"))
		if status != http.StatusBadRequest || er.Code != CodeBadRequest {
			t.Fatalf("status %d code %q", status, er.Code)
		}
	})
	t.Run("refresh size mismatch conflicts", func(t *testing.T) {
		status, er, _ := postProto(t, keyedSrv.URL+"/v1/proto/refresh/start", start(5, 2, 1, "", "s5"))
		if status != http.StatusConflict || er.Code != CodeConflict {
			t.Fatalf("status %d code %q", status, er.Code)
		}
	})
	t.Run("step unknown session 404", func(t *testing.T) {
		status, er, _ := postProto(t, keylessSrv.URL+"/v1/proto/dkg/step", ProtoStepRequest{Session: "nope", Round: 1})
		if status != http.StatusNotFound || er.Code != CodeSessionNotFound {
			t.Fatalf("status %d code %q", status, er.Code)
		}
	})

	t.Run("session lifecycle conflicts", func(t *testing.T) {
		// A real session on the keyless signer.
		status, _, _ := postProto(t, keylessSrv.URL+"/v1/proto/dkg/start", start(5, 2, 1, "d/v1", "live"))
		if status != http.StatusOK {
			t.Fatalf("start status %d", status)
		}
		// Re-starting the SAME session id conflicts: a retrying driver
		// must not reset a state machine it already stepped.
		status, er, _ := postProto(t, keylessSrv.URL+"/v1/proto/dkg/start", start(5, 2, 1, "d/v1", "live"))
		if status != http.StatusConflict || er.Code != CodeConflict {
			t.Fatalf("duplicate start: status %d code %q", status, er.Code)
		}
		// Stepping out of order (round 2 before round 1) conflicts.
		status, er, _ = postProto(t, keylessSrv.URL+"/v1/proto/dkg/step", ProtoStepRequest{Session: "live", Round: 2})
		if status != http.StatusConflict || er.Code != CodeConflict {
			t.Fatalf("out-of-order step: status %d code %q", status, er.Code)
		}
		// Finishing before the protocol is done conflicts.
		status, er, _ = postProto(t, keylessSrv.URL+"/v1/proto/dkg/finish", ProtoFinishRequest{Session: "live"})
		if status != http.StatusConflict || er.Code != CodeConflict {
			t.Fatalf("early finish: status %d code %q", status, er.Code)
		}
		// A start under a FRESH id replaces the live session (an aborted
		// run must not lock the slot until the TTL); the replaced
		// session's steps answer 404 from then on.
		status, _, _ = postProto(t, keylessSrv.URL+"/v1/proto/dkg/start", start(5, 2, 1, "d/v1", "retry"))
		if status != http.StatusOK {
			t.Fatalf("replacing start: status %d", status)
		}
		status, er, _ = postProto(t, keylessSrv.URL+"/v1/proto/dkg/step", ProtoStepRequest{Session: "live", Round: 1})
		if status != http.StatusNotFound || er.Code != CodeSessionNotFound {
			t.Fatalf("replaced session step: status %d code %q", status, er.Code)
		}
	})
}

// TestSessionGC: an abandoned session is evicted after its TTL, freeing
// the slot for a new driver and answering its stale steps with 404.
func TestSessionGC(t *testing.T) {
	s, err := NewDaemonSigner(DaemonConfig{Index: 1, SessionTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	s.defTenant().proto.now = func() time.Time { return now }
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	req := ProtoStartRequest{Session: "old", N: 5, T: 2, Index: 1, Domain: "gc/v1"}
	if status, _, _ := postProto(t, srv.URL+"/v1/proto/dkg/start", req); status != http.StatusOK {
		t.Fatalf("start status %d", status)
	}
	// Within the TTL the session is live and steppable.
	if status, _, _ := postProto(t, srv.URL+"/v1/proto/dkg/step", ProtoStepRequest{Session: "old", Round: 1}); status != http.StatusOK {
		t.Fatal("live session must accept its round-1 step")
	}
	// After the TTL the abandoned session is collected: its steps answer
	// 404 and even the same session id may start afresh (the old state
	// machine is gone, so this is no replay).
	now = now.Add(2 * time.Minute)
	status, er, _ := postProto(t, srv.URL+"/v1/proto/dkg/step", ProtoStepRequest{Session: "old", Round: 2})
	if status != http.StatusNotFound || er.Code != CodeSessionNotFound {
		t.Fatalf("expired step: status %d code %q", status, er.Code)
	}
	if status, _, _ := postProto(t, srv.URL+"/v1/proto/dkg/start", req); status != http.StatusOK {
		t.Fatal("expected the expired session's id to be reusable")
	}
}

// TestKeylessSignerRefusesToSign: every key-dependent endpoint answers
// 503/no_key_material until the keygen has run, and the error crosses the
// wire typed.
func TestKeylessSignerRefusesToSign(t *testing.T) {
	s, err := NewDaemonSigner(DaemonConfig{Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	for _, tc := range []struct {
		method, path string
		body         string
	}{
		{http.MethodPost, "/v1/sign", `{"message":"aGk="}`},
		{http.MethodPost, "/v1/sign-batch", `{"messages":["aGk="]}`},
		{http.MethodGet, "/v1/pubkey", ""},
		{http.MethodGet, "/v1/vk", ""},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var er ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusServiceUnavailable || er.Code != CodeNoKey {
			t.Fatalf("%s %s: status %d code %q err %v", tc.method, tc.path, resp.StatusCode, er.Code, err)
		}
	}
	// Health stays green — a keyless daemon is alive, just not keyed.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestKeylessCoordinatorTyped: the keyless coordinator's Sign and
// RunRefresh fail with ErrNoKeyMaterial until a keygen has run.
func TestKeylessCoordinatorTyped(t *testing.T) {
	coord, err := NewKeylessCoordinator([]string{"http://a", "http://b", "http://c"}, CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coord.Sign(context.Background(), []byte("x")); !errors.Is(err, ErrNoKeyMaterial) {
		t.Fatalf("Sign err = %v", err)
	}
	if _, err := coord.SignBatch(context.Background(), [][]byte{[]byte("x")}); !errors.Is(err, ErrNoKeyMaterial) {
		t.Fatalf("SignBatch err = %v", err)
	}
	if _, _, err := coord.RunRefresh(context.Background()); !errors.Is(err, ErrNoKeyMaterial) {
		t.Fatalf("RunRefresh err = %v", err)
	}
	if coord.Group() != nil {
		t.Fatal("keyless coordinator reports a group")
	}
}
