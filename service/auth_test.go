package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
)

// The trust model as it stands: no signer route checks who calls it.
// Every signer link is plain HTTP, and a signer serves whoever reaches
// its port exactly as it serves the coordinator. These tests pin that
// state; ROADMAP item 27 (mutual TLS on every daemon link, and signer
// routes that answer only the coordinator) turns all three of them into
// refusals.

// TestDirectSignersAnswerAnyCaller: t+1 direct POST /v1/sign calls, with
// no coordinator anywhere, return partial signatures that Group.Combine
// turns into a signature Group.Verify accepts. Anyone who can reach t+1
// signers can sign. Item 27 flips this: a caller without the
// coordinator's certificate gets no partial.
func TestDirectSignersAnswerAnyCaller(t *testing.T) {
	f := testFixture(t)
	msg := []byte("signed without a coordinator")
	var parts []*core.PartialSignature
	for i := 1; i <= fixT+1; i++ {
		srv := httptest.NewServer(newTestSigner(t, f, i))
		resp := postSign(t, srv.URL, msg)
		var pr PartialResponse
		err := json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		srv.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("signer %d: status %d, %v", i, resp.StatusCode, err)
		}
		ps, err := core.UnmarshalPartialSignature(pr.Partial)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, ps)
	}
	sig, err := f.group.Combine(msg, parts)
	if err != nil {
		t.Fatal(err)
	}
	if !f.group.Verify(msg, sig) {
		t.Fatal("the directly gathered partials combined to a signature that does not verify")
	}
}

// TestDirectDeleteTombstonesTenant: a direct DELETE /v1/g/{gid} to one
// signer, from any caller, answers 200 and tombstones that signer's
// tenant for good. Item 27 flips this: the route answers only the
// coordinator.
func TestDirectDeleteTombstonesTenant(t *testing.T) {
	s := newTestSigner(t, testFixture(t), 1)
	srv := httptest.NewServer(s)
	defer srv.Close()
	if status, raw := httpDelete(t, srv.URL+"/v1/g/"+DefaultGroupID); status != http.StatusOK {
		t.Fatalf("DELETE /v1/g/%s: status %d: %s", DefaultGroupID, status, raw)
	}
	if rec, ok := s.reg.Get(DefaultGroupID); !ok || !rec.Deleted {
		t.Fatalf("tenant %q not tombstoned: %+v", DefaultGroupID, rec)
	}
	resp, err := http.Get(srv.URL + "/v1/pubkey")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("GET /v1/pubkey after the delete: status %d, want 410", resp.StatusCode)
	}
}

// TestDirectProtoStartReplacesRunningSession: while a signer runs protocol
// session A, a direct POST /v1/g/{gid}/proto/dkg/start under a fresh id B,
// from any caller, answers 200 and replaces A — whose next step answers
// 404 session_not_found. Anyone who can reach a signer can abort its
// keygen. Item 27 flips this: a start answers only the coordinator.
func TestDirectProtoStartReplacesRunningSession(t *testing.T) {
	s, err := NewDaemonSigner(DaemonConfig{Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()
	base := srv.URL + "/v1/g/vault/proto/dkg"
	start := func(session string) int {
		status, _, _ := postProto(t, base+"/start", ProtoStartRequest{Session: session, N: 5, T: 2, Index: 1, Domain: "auth/v1"})
		return status
	}
	if status := start("A"); status != http.StatusOK {
		t.Fatalf("start A: status %d", status)
	}
	if status, _, raw := postProto(t, base+"/step", ProtoStepRequest{Session: "A", Round: 1}); status != http.StatusOK {
		t.Fatalf("A's round-1 step: status %d: %s", status, raw)
	}
	if status := start("B"); status != http.StatusOK {
		t.Fatalf("a direct start under a fresh id: status %d, want 200", status)
	}
	status, er, _ := postProto(t, base+"/step", ProtoStepRequest{Session: "A", Round: 2})
	if status != http.StatusNotFound || er.Code != CodeSessionNotFound {
		t.Fatalf("A's next step: status %d code %q, want 404 %q", status, er.Code, CodeSessionNotFound)
	}
}
