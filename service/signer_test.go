package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func postSign(t *testing.T, url string, msg []byte) *http.Response {
	t.Helper()
	body, _ := json.Marshal(SignRequest{Message: msg})
	resp, err := http.Post(url+"/v1/sign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestSignerProducesValidPartial(t *testing.T) {
	f := testFixture(t)
	srv := httptest.NewServer(newTestSigner(t, f, 2))
	defer srv.Close()

	msg := []byte("signer unit test")
	resp := postSign(t, srv.URL, msg)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var pr PartialResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Index != 2 {
		t.Fatalf("index %d, want 2", pr.Index)
	}
	ps, err := core.UnmarshalPartialSignature(pr.Partial)
	if err != nil {
		t.Fatal(err)
	}
	if !f.group.ShareVerify(msg, ps) {
		t.Fatal("partial signature does not verify")
	}
}

func TestSignerMetadataEndpoints(t *testing.T) {
	f := testFixture(t)
	srv := httptest.NewServer(newTestSigner(t, f, 5))
	defer srv.Close()

	var pk PubkeyResponse
	getJSON(t, srv.URL+"/v1/pubkey", &pk)
	if pk.N != fixN || pk.T != fixT || pk.Domain != f.group.Domain {
		t.Fatalf("pubkey metadata %+v", pk)
	}
	decoded, err := core.UnmarshalPublicKey(core.NewParams(pk.Domain), pk.PK)
	if err != nil {
		t.Fatal(err)
	}
	if !decoded.Equal(f.group.PK) {
		t.Fatal("advertised public key differs from the group's")
	}

	var vk VKResponse
	getJSON(t, srv.URL+"/v1/vk", &vk)
	if vk.Index != 5 {
		t.Fatalf("vk index %d", vk.Index)
	}
	decodedVK, err := core.UnmarshalVerificationKey(vk.VK)
	if err != nil {
		t.Fatal(err)
	}
	if !decodedVK.Equal(f.group.VKs[5]) {
		t.Fatal("advertised VK differs from the group's")
	}

	var h HealthResponse
	getJSON(t, srv.URL+"/healthz", &h)
	if h.Status != "ok" || h.Index != 5 {
		t.Fatalf("health %+v", h)
	}
}

func TestSignerRejectsMalformedRequest(t *testing.T) {
	f := testFixture(t)
	srv := httptest.NewServer(newTestSigner(t, f, 1))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/sign", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestSignerShedsLoadWhenSaturated(t *testing.T) {
	f := testFixture(t)
	s, err := NewSigner(f.members[1], SignerConfig{MaxWorkers: 1, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Occupy the only worker slot, as an in-flight Share-Sign would, so
	// the burst meets a saturated signer however the goroutines are
	// scheduled: one request fits the 1-request queue, the rest overflow.
	s.workers <- struct{}{}
	s.inflight.Add(1)

	msg := []byte("saturated signer")
	const burst = 24
	var ok, shed atomic.Int64
	var done sync.WaitGroup
	for range burst {
		done.Add(1)
		go func() {
			defer done.Done()
			resp := postSign(t, srv.URL, msg)
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusServiceUnavailable:
				shed.Add(1)
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for shed.Load() < burst-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Free the slot: the queued request now gets its worker.
	<-s.workers
	s.inflight.Add(-1)
	done.Wait()
	if ok.Load() != 1 {
		t.Fatalf("%d requests succeeded, want exactly the queued one", ok.Load())
	}
	if shed.Load() != burst-1 {
		t.Fatalf("saturated signer shed %d of %d requests, want %d", shed.Load(), burst, burst-1)
	}
	t.Logf("burst=%d ok=%d shed=%d", burst, ok.Load(), shed.Load())
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
