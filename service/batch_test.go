package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// countPath counts POST hits on one path across all signers.
func countPath(hits *atomic.Int64, path string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == path {
			hits.Add(1)
		}
		h.ServeHTTP(w, r)
	})
}

// batchMsgs builds k distinct messages.
func batchMsgs(prefix string, k int) [][]byte {
	msgs := make([][]byte, k)
	for j := range msgs {
		msgs[j] = []byte(fmt.Sprintf("%s #%d", prefix, j))
	}
	return msgs
}

// ---- signer /v1/sign-batch ----

func TestSignerSignBatch(t *testing.T) {
	f := testFixture(t)
	srv := httptest.NewServer(newTestSigner(t, f, 3))
	defer srv.Close()

	msgs := batchMsgs("signer batch", 5)
	body, _ := json.Marshal(SignBatchRequest{Messages: msgs})
	resp, err := http.Post(srv.URL+"/v1/sign-batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var pr PartialBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Index != 3 || len(pr.Partials) != len(msgs) {
		t.Fatalf("index %d, %d partials", pr.Index, len(pr.Partials))
	}
	for j, raw := range pr.Partials {
		ps, err := core.UnmarshalPartialSignature(raw)
		if err != nil {
			t.Fatalf("partial %d: %v", j, err)
		}
		if !f.group.ShareVerify(msgs[j], ps) {
			t.Fatalf("partial %d does not verify for its message", j)
		}
	}
}

func TestSignerSignBatchRejectsBadInput(t *testing.T) {
	f := testFixture(t)
	s, err := NewSigner(f.members[1], SignerConfig{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	post := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/sign-batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	enc := func(msgs [][]byte) []byte {
		b, _ := json.Marshal(SignBatchRequest{Messages: msgs})
		return b
	}
	if got := post([]byte(`{not json`)); got != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", got)
	}
	if got := post(enc(nil)); got != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", got)
	}
	if got := post(enc(batchMsgs("too many", 5))); got != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", got)
	}
	if got := post(enc([][]byte{[]byte("ok"), nil})); got != http.StatusBadRequest {
		t.Fatalf("empty message in batch: status %d, want 400", got)
	}
	// The single-message endpoint mirrors the missing-message check.
	resp, err := http.Post(srv.URL+"/v1/sign", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sign without message: status %d, want 400", resp.StatusCode)
	}
}

// ---- coordinator batch pipeline ----

// TestEndToEndBatchPipeline is the batched acceptance test: a 16-message
// batch signed through coordinator + n=7 HTTP signers in one client
// request, with one signer Byzantine — every message still gets a
// signature accepted by Verify, combined without the liar.
func TestEndToEndBatchPipeline(t *testing.T) {
	f := testFixture(t)
	const byz = 4
	urls := startSigners(t, f, func(i int, h http.Handler) http.Handler {
		if i == byz {
			return tamperSign(h)
		}
		return h
	})
	coord := newTestCoordinator(t, urls, CoordinatorConfig{SignerTimeout: 60 * time.Second})
	gateway := httptest.NewServer(coord)
	defer gateway.Close()

	client := &Client{BaseURL: gateway.URL}
	msgs := batchMsgs("e2e batch", 16)
	sigs, resp, err := client.SignBatch(context.Background(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	for j, sig := range sigs {
		if sig == nil {
			t.Fatalf("message %d failed: %s", j, resp.Results[j].Error)
		}
		if !f.group.PK.Verify(msgs[j], sig) {
			t.Fatalf("message %d: signature rejected by Verify", j)
		}
		if contains(resp.Results[j].Signers, byz) {
			t.Fatalf("message %d combined the Byzantine signer's share", j)
		}
		if len(resp.Results[j].Signers) != fixT+1 {
			t.Fatalf("message %d combined %d shares, want %d", j, len(resp.Results[j].Signers), fixT+1)
		}
	}
	// Determinism: re-batching the same messages is served from cache with
	// identical bytes.
	sigs2, resp2, err := client.SignBatch(context.Background(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	for j := range msgs {
		if !resp2.Results[j].Cached {
			t.Fatalf("message %d not served from cache on repeat", j)
		}
		if !sigs2[j].Z.Equal(sigs[j].Z) || !sigs2[j].R.Equal(sigs[j].R) {
			t.Fatalf("message %d: cached signature differs", j)
		}
	}
}

func TestSignBatchDeduplicatesAndReportsPerMessage(t *testing.T) {
	f := testFixture(t)
	var batchHits atomic.Int64
	urls := startSigners(t, f, func(i int, h http.Handler) http.Handler {
		return countPath(&batchHits, "/v1/sign-batch", h)
	})
	c := newTestCoordinator(t, urls, CoordinatorConfig{SignerTimeout: 60 * time.Second})

	dup := []byte("batch duplicate")
	msgs := [][]byte{dup, []byte("batch unique"), dup, nil}
	results, err := c.SignBatch(context.Background(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	if got := batchHits.Load(); got > int64(fixN) {
		t.Fatalf("%d signer batch requests, want one per signer (<= %d)", got, fixN)
	}
	if !errors.Is(results[3].Err, ErrEmptyMessage) {
		t.Fatalf("empty message error %v, want ErrEmptyMessage", results[3].Err)
	}
	for _, j := range []int{0, 1, 2} {
		if results[j].Err != nil {
			t.Fatalf("message %d: %v", j, results[j].Err)
		}
		if !f.group.PK.Verify(msgs[j], results[j].Sig) {
			t.Fatalf("message %d: invalid signature", j)
		}
	}
	if !results[0].Sig.Z.Equal(results[2].Sig.Z) {
		t.Fatal("duplicate messages got different signatures")
	}
}

// TestSignBatchCoalescesWithInFlightSign: a message already mid-fan-out
// via a concurrent Sign call must not fan out a second time when a
// batch containing it arrives — SignBatch registers its items in the
// flight group, so the batch coalesces onto the in-flight call and only
// the genuinely new messages travel in the /v1/sign-batch request (two of
// them: a single leftover would ride /v1/sign, which this test holds shut).
func TestSignBatchCoalescesWithInFlightSign(t *testing.T) {
	f := testFixture(t)
	shared := []byte("coalesce across batch: shared")
	fresh := [][]byte{[]byte("coalesce across batch: fresh A"), []byte("coalesce across batch: fresh B")}
	sharedB64 := []byte(base64.StdEncoding.EncodeToString(shared))

	gate := make(chan struct{}) // holds every /v1/sign answer open
	var signArrived, batchArrived sync.Once
	signStarted := make(chan struct{})
	batchStarted := make(chan struct{})
	var sharedInBatch atomic.Int64
	urls := startSigners(t, f, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/sign":
				signArrived.Do(func() { close(signStarted) })
				<-gate
			case "/v1/sign-batch":
				batchArrived.Do(func() { close(batchStarted) })
				body, _ := io.ReadAll(r.Body)
				if bytes.Contains(body, sharedB64) {
					sharedInBatch.Add(1)
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
				r.ContentLength = int64(len(body))
			}
			h.ServeHTTP(w, r)
		})
	})
	c := newTestCoordinator(t, urls, CoordinatorConfig{SignerTimeout: 60 * time.Second})

	type signRes struct {
		sig *core.Signature
		err error
	}
	signCh := make(chan signRes, 1)
	go func() {
		sig, _, err := c.Sign(context.Background(), shared)
		signCh <- signRes{sig, err}
	}()
	<-signStarted // the Sign fan-out is in flight (and registered) now

	type batchRes struct {
		results []BatchResult
		err     error
	}
	batchCh := make(chan batchRes, 1)
	go func() {
		results, err := c.SignBatch(context.Background(), [][]byte{shared, fresh[0], fresh[1]})
		batchCh <- batchRes{results, err}
	}()
	// The batch fan-out (which claims flight slots first) has dispatched;
	// only now let the held-open Sign fan-out answer.
	<-batchStarted
	close(gate)

	sr := <-signCh
	if sr.err != nil {
		t.Fatalf("concurrent Sign: %v", sr.err)
	}
	br := <-batchCh
	if br.err != nil {
		t.Fatalf("SignBatch: %v", br.err)
	}
	if n := sharedInBatch.Load(); n != 0 {
		t.Fatalf("the in-flight message rode %d /v1/sign-batch requests, want 0 (coalesced)", n)
	}
	if err := br.results[0].Err; err != nil {
		t.Fatalf("shared message: %v", err)
	}
	if !br.results[0].Report.Coalesced {
		t.Fatal("shared message not reported as coalesced")
	}
	if !br.results[0].Sig.Z.Equal(sr.sig.Z) || !br.results[0].Sig.R.Equal(sr.sig.R) {
		t.Fatal("coalesced batch result differs from the Sign result")
	}
	for k, msg := range fresh {
		if err := br.results[1+k].Err; err != nil {
			t.Fatalf("fresh message %d: %v", k, err)
		}
		if !f.group.PK.Verify(msg, br.results[1+k].Sig) {
			t.Fatalf("fresh message %d: invalid signature", k)
		}
	}
}

// TestBatchBisectionIsolatesSingleBadShare pins down the bisection
// property end to end: a signer that tampers with exactly ONE message of
// the batch must lose only that share — its other shares still count.
// With t signers down, every remaining signer's share is needed, so the
// tampered message must fail quorum while every other message succeeds
// with the part-time liar's help.
func TestBatchBisectionIsolatesSingleBadShare(t *testing.T) {
	f := testFixture(t)
	const liar, badMsg = 2, 1
	urls := startSigners(t, f, func(i int, h http.Handler) http.Handler {
		if i == liar {
			return tamperBatchSelect(h, func(j int) bool { return j == badMsg })
		}
		return h
	})
	for _, i := range []int{5, 6, 7} { // t = 3 signers down
		urls[i-1] = downURL(t)
	}
	c := newTestCoordinator(t, urls, CoordinatorConfig{SignerTimeout: 60 * time.Second})

	msgs := batchMsgs("bisect", 4)
	results, err := c.SignBatch(context.Background(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	for j, res := range results {
		if j == badMsg {
			var qe *QuorumError
			if !errors.As(res.Err, &qe) {
				t.Fatalf("tampered message: got %v, want QuorumError", res.Err)
			}
			if !contains(qe.Invalid, liar) {
				t.Fatalf("tampered message: liar %d not in invalid list %v", liar, qe.Invalid)
			}
			continue
		}
		if res.Err != nil {
			t.Fatalf("clean message %d failed: %v", j, res.Err)
		}
		if !contains(res.Report.Signers, liar) {
			// All 4 reachable signers are required for quorum, so the
			// liar's valid shares must have been accepted.
			t.Fatalf("clean message %d did not use the liar's valid share (signers %v)", j, res.Report.Signers)
		}
		if !f.group.PK.Verify(msgs[j], res.Sig) {
			t.Fatalf("clean message %d: invalid signature", j)
		}
	}
}

// ---- the window batcher behind Sign ----

func TestBatcherMergesConcurrentSigns(t *testing.T) {
	f := testFixture(t)
	var singleHits, batchHits atomic.Int64
	urls := startSigners(t, f, func(i int, h http.Handler) http.Handler {
		return countPath(&singleHits, "/v1/sign", countPath(&batchHits, "/v1/sign-batch", h))
	})
	c := newTestCoordinator(t, urls, CoordinatorConfig{
		SignerTimeout: 60 * time.Second, // generous: -race on a small box serializes the pairing work
		BatchWindow:   100 * time.Millisecond,
	})

	const callers = 12
	msgs := batchMsgs("merge", callers)
	var start, done sync.WaitGroup
	start.Add(1)
	errs := make([]error, callers)
	sigs := make([]*core.Signature, callers)
	for k := range callers {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			sigs[k], _, errs[k] = c.Sign(context.Background(), msgs[k])
		}()
	}
	start.Done()
	done.Wait()
	for k := range callers {
		if errs[k] != nil {
			t.Fatalf("caller %d: %v", k, errs[k])
		}
		if !f.group.PK.Verify(msgs[k], sigs[k]) {
			t.Fatalf("caller %d: invalid signature", k)
		}
	}
	// 12 distinct messages would cost 12 fan-outs (12n requests) without
	// the batcher; merged windows must stay well below that. Scheduling
	// jitter can split the callers across a couple of windows, so allow
	// up to three — counting both routes, since a window that caught a
	// single straggler sends it as a plain /v1/sign.
	if got := singleHits.Load() + batchHits.Load(); got > int64(3*fixN) {
		t.Fatalf("%d signer requests for %d concurrent messages, want <= %d", got, callers, 3*fixN)
	}
	if batchHits.Load() == 0 {
		t.Fatal("no /v1/sign-batch request: the window never merged two messages")
	}
	t.Logf("%d concurrent distinct messages -> %d batch + %d single requests (vs %d unbatched)",
		callers, batchHits.Load(), singleHits.Load(), callers*fixN)
}

func TestBatcherFillsToMaxAndDispatchesEarly(t *testing.T) {
	f := testFixture(t)
	urls := startSigners(t, f, nil)
	// A very long window: only the MaxBatch fill limit can dispatch the
	// batch, proving the early-dispatch path works.
	c := newTestCoordinator(t, urls, CoordinatorConfig{
		SignerTimeout: 60 * time.Second,
		BatchWindow:   time.Hour,
		MaxBatch:      4,
	})
	msgs := batchMsgs("fill", 4)
	var done sync.WaitGroup
	errs := make([]error, len(msgs))
	for k := range msgs {
		done.Add(1)
		go func() {
			defer done.Done()
			_, _, errs[k] = c.Sign(context.Background(), msgs[k])
		}()
	}
	ok := make(chan struct{})
	go func() { done.Wait(); close(ok) }()
	select {
	case <-ok:
	case <-time.After(30 * time.Second):
		t.Fatal("full batch never dispatched before the window closed")
	}
	for k, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", k, err)
		}
	}
}

func TestBatcherSplitsOnByteBudget(t *testing.T) {
	f := testFixture(t)
	var singleHits, batchHits atomic.Int64
	urls := startSigners(t, f, func(i int, h http.Handler) http.Handler {
		return countPath(&singleHits, "/v1/sign", countPath(&batchHits, "/v1/sign-batch", h))
	})
	c := newTestCoordinator(t, urls, CoordinatorConfig{
		SignerTimeout: 60 * time.Second,
		BatchWindow:   200 * time.Millisecond,
	})
	// Three ~500 KiB messages: any two of them would encode past the
	// signers' 1 MiB request cap, so the batcher must split them into
	// separate fan-outs instead of merging a body the signers refuse.
	msgs := make([][]byte, 3)
	for k := range msgs {
		msgs[k] = bytes.Repeat([]byte{byte('a' + k)}, 500<<10)
	}
	var done sync.WaitGroup
	errs := make([]error, len(msgs))
	sigs := make([]*core.Signature, len(msgs))
	for k := range msgs {
		done.Add(1)
		go func() {
			defer done.Done()
			sigs[k], _, errs[k] = c.Sign(context.Background(), msgs[k])
		}()
	}
	done.Wait()
	for k := range msgs {
		if errs[k] != nil {
			t.Fatalf("message %d: %v", k, errs[k])
		}
		if !f.group.PK.Verify(msgs[k], sigs[k]) {
			t.Fatalf("message %d: invalid signature", k)
		}
	}
	// Each oversized message must have traveled in its own batch of one —
	// three /v1/sign fan-outs, and no merged /v1/sign-batch body for the
	// signers to refuse.
	if got := singleHits.Load(); got < 3 {
		t.Fatalf("%d single requests for 3 over-budget messages, want >= 3 (split fan-outs)", got)
	}
	if got := batchHits.Load(); got != 0 {
		t.Fatalf("%d /v1/sign-batch requests: over-budget messages were merged", got)
	}
}

// TestBatchRefusalMeansUnreachable: there is no per-message fallback. A
// signer that refuses the batch request as such is an errored backend for
// that batch — listed unreachable on every message and counted in
// backend_errors_total, never re-asked over /v1/sign — and the batch
// still succeeds on the other signers.
func TestBatchRefusalMeansUnreachable(t *testing.T) {
	f := testFixture(t)
	const refuser = 3
	cases := []struct {
		name   string
		refuse func(w http.ResponseWriter, r *http.Request)
	}{
		{"404 no batch endpoint", http.NotFound},
		{"400 batch_too_large", func(w http.ResponseWriter, _ *http.Request) {
			writeErrorCode(w, http.StatusBadRequest, CodeBatchTooLarge, "batch of 3 messages exceeds limit 2")
		}},
		{"413 body too large", func(w http.ResponseWriter, _ *http.Request) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var singleHits atomic.Int64
			urls := startSigners(t, f, func(i int, h http.Handler) http.Handler {
				if i != refuser {
					return h
				}
				return countPath(&singleHits, "/v1/sign", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == "/v1/sign-batch" {
						tc.refuse(w, r)
						return
					}
					h.ServeHTTP(w, r)
				}))
			})
			// The honest signers are only asked once the refusal is back at
			// the coordinator, so the fan-out cannot settle (and cancel the
			// refuser as a laggard) before it has heard it.
			c := newTestCoordinator(t, urls, CoordinatorConfig{
				SignerTimeout: 60 * time.Second,
				HTTPClient:    &http.Client{Transport: &answersFirst{url: urls[refuser-1], heard: make(chan struct{})}},
			})
			gateway := httptest.NewServer(c)
			defer gateway.Close()

			msgs := batchMsgs("refused "+tc.name, 3)
			results, err := c.SignBatch(context.Background(), msgs)
			if err != nil {
				t.Fatal(err)
			}
			for j, res := range results {
				if res.Err != nil {
					t.Fatalf("message %d: %v", j, res.Err)
				}
				if !f.group.PK.Verify(msgs[j], res.Sig) {
					t.Fatalf("message %d: invalid signature", j)
				}
				if contains(res.Report.Signers, refuser) || contains(res.Report.Invalid, refuser) {
					t.Fatalf("message %d: refuser in signers %v / invalid %v", j, res.Report.Signers, res.Report.Invalid)
				}
				if !contains(res.Report.Unreachable, refuser) {
					t.Fatalf("message %d: refuser not in unreachable %v", j, res.Report.Unreachable)
				}
			}
			metric := fmt.Sprintf(`tsig_coordinator_backend_errors_total{signer="%d"}`, refuser)
			if got := metricValue(t, scrapeMetrics(t, gateway.URL), metric); got != 1 {
				t.Fatalf("%s = %v on a fresh coordinator, want 1", metric, got)
			}
			if n := singleHits.Load(); n != 0 {
				t.Fatalf("%d /v1/sign requests reached the refusing signer, want 0 (no fallback)", n)
			}
		})
	}
}

// answersFirst is a RoundTripper that holds every request back until the
// one signer at url has answered.
type answersFirst struct {
	url   string
	heard chan struct{}
	once  sync.Once
}

func (a *answersFirst) RoundTrip(r *http.Request) (*http.Response, error) {
	if !strings.HasPrefix(r.URL.String(), a.url) {
		<-a.heard
		return http.DefaultTransport.RoundTrip(r)
	}
	defer a.once.Do(func() { close(a.heard) })
	return http.DefaultTransport.RoundTrip(r)
}

// TestSingleMessageIsABatchOfOne: Sign and a one-message SignBatch are the
// same pipeline and the same wire exchange — one POST /v1/sign per signer
// asked (at least the t+1 that made quorum; laggards may be canceled
// before they are reached) with the body signers have always received,
// no /v1/sign-batch — and, signing being deterministic, byte-identical
// signatures.
func TestSingleMessageIsABatchOfOne(t *testing.T) {
	f := testFixture(t)
	msg := []byte("a batch of one")
	wantBody, _ := json.Marshal(SignRequest{Message: msg})
	sign := func(t *testing.T, do func(c *Coordinator) *core.Signature) []byte {
		t.Helper()
		var mu sync.Mutex
		var seen []string // "METHOD path body" of every request to any signer
		urls := startSigners(t, f, func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				body, _ := io.ReadAll(r.Body)
				mu.Lock()
				seen = append(seen, r.Method+" "+r.URL.Path+" "+string(body))
				mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(body))
				h.ServeHTTP(w, r)
			})
		})
		c := newTestCoordinator(t, urls, CoordinatorConfig{CacheSize: -1, SignerTimeout: 60 * time.Second})
		sig := do(c)
		mu.Lock()
		defer mu.Unlock()
		if len(seen) < fixT+1 || len(seen) > fixN {
			t.Fatalf("signers saw %d requests, want one each from t+1=%d to n=%d of them", len(seen), fixT+1, fixN)
		}
		for _, got := range seen {
			if want := "POST /v1/sign " + string(wantBody); got != want {
				t.Fatalf("a signer saw %q, want %q", got, want)
			}
		}
		return sig.Marshal()
	}
	single := sign(t, func(c *Coordinator) *core.Signature {
		sig, _, err := c.Sign(context.Background(), msg)
		if err != nil {
			t.Fatal(err)
		}
		return sig
	})
	batch := sign(t, func(c *Coordinator) *core.Signature {
		results, err := c.SignBatch(context.Background(), [][]byte{msg})
		if err != nil || results[0].Err != nil {
			t.Fatal(err, results[0].Err)
		}
		return results[0].Sig
	})
	if !bytes.Equal(single, batch) {
		t.Fatal("Sign and SignBatch of the same message produced different signatures")
	}
}

// ---- coordinator HTTP input validation ----

func TestCoordinatorRejectsBadInputWith400(t *testing.T) {
	// Signers deliberately down: a 400 must be issued BEFORE any fan-out,
	// so their absence can never turn client mistakes into 502s.
	urls := make([]string, fixN)
	for i := range urls {
		urls[i] = downURL(t)
	}
	coord := newTestCoordinator(t, urls, CoordinatorConfig{SignerTimeout: time.Second})
	gateway := httptest.NewServer(coord)
	defer gateway.Close()

	post := func(path string, body string) int {
		t.Helper()
		resp, err := http.Post(gateway.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		name, path, body string
	}{
		{"sign missing message", "/v1/sign", `{}`},
		{"sign empty message", "/v1/sign", `{"message":""}`},
		{"sign malformed json", "/v1/sign", `{not json`},
		{"batch missing messages", "/v1/sign-batch", `{}`},
		{"batch malformed json", "/v1/sign-batch", `{not json`},
	}
	for _, tc := range cases {
		if got := post(tc.path, tc.body); got != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, got)
		}
	}
	// A well-formed request against down signers is still a gateway
	// failure, not a client error.
	if got := post("/v1/sign", `{"message":"aGVsbG8="}`); got != http.StatusBadGateway {
		t.Errorf("valid request, down backends: status %d, want 502", got)
	}
}

// ---- regression: flight registry leader panic safety ----

// panicErrCtx is a context whose Err panics once it is done. The fan-out
// reads Err when its caller hangs up, so canceling the context blows up
// a fan-out in mid-flight.
type panicErrCtx struct{ context.Context }

func (p panicErrCtx) Err() error {
	if p.Context.Err() != nil {
		panic("sign exploded")
	}
	return nil
}

func TestFlightGroupSurvivesLeaderPanic(t *testing.T) {
	f := testFixture(t)
	gate := &gateSigns{reached: make(chan struct{}, 1), open: make(chan struct{})}
	c := newTestCoordinator(t, startSigners(t, f, nil), CoordinatorConfig{
		CacheSize: -1, SignerTimeout: 5 * time.Second, HTTPClient: &http.Client{Transport: gate},
	})
	msg := []byte("the leader's fan-out panics")

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		c.Sign(panicErrCtx{leaderCtx}, msg)
	}()
	<-gate.reached // the leader's fan-out is out, held at the gate

	followerDone := make(chan error, 1)
	go func() {
		_, _, err := c.Sign(context.Background(), msg)
		followerDone <- err
	}()
	// Once the follower is attached to the in-flight item, blow it up.
	eventually(t, "the follower to attach", func() bool { return c.met.coalesced.Value() == 1 })
	cancelLeader()

	if r := <-leaderDone; r == nil {
		t.Fatal("leader's panic was swallowed")
	}
	select {
	case err := <-followerDone:
		if !errors.Is(err, errFlightPanic) {
			t.Fatalf("follower got %v, want errFlightPanic", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower deadlocked after leader panic")
	}
	// The key must be free again: a fresh call leads a fan-out of its own.
	c.flight.mu.Lock()
	inFlight := len(c.flight.m)
	c.flight.mu.Unlock()
	if inFlight != 0 {
		t.Fatalf("%d items left in flight after the panic", inFlight)
	}
	close(gate.open)
	sig, report, err := c.Sign(context.Background(), msg)
	if err != nil || report.Coalesced || !f.group.PK.Verify(msg, sig) {
		t.Fatalf("post-panic call: coalesced=%v err=%v", report.Coalesced, err)
	}
}

// ---- regression: sigCache.get defensive copy ----

func TestSigCacheGetReturnsDefensiveCopy(t *testing.T) {
	c := newSigCache(4)
	var key cacheKey
	enc := bytes.Repeat([]byte{7}, core.SignatureSize)
	c.add(key, enc, []int{1, 2, 3})
	enc[0] = 8 // the cache holds its own copy of the encoding

	sig, signers, ok := c.get(key)
	if !ok {
		t.Fatal("missing entry")
	}
	sig[1] = 9 // and hands out a copy
	if again, _, _ := c.get(key); again[0] != 7 || again[1] != 7 {
		t.Fatalf("cached encoding changed through the caller's copies: % x", again[:2])
	}
	// A caller appending through the returned slice (as anything building
	// a SignReport might) must not corrupt the cached entry.
	signers = append(signers[:1], 99)
	_ = signers
	_, again, ok := c.get(key)
	if !ok {
		t.Fatal("entry vanished")
	}
	if len(again) != 3 || again[0] != 1 || again[1] != 2 || again[2] != 3 {
		t.Fatalf("cached signers corrupted by caller mutation: %v", again)
	}
}

// ---- concurrency under -race: cache + coalesce + batcher together ----

func TestConcurrentMixedTrafficWithByzantineSigner(t *testing.T) {
	f := testFixture(t)
	urls := startSigners(t, f, func(i int, h http.Handler) http.Handler {
		if i == 6 {
			return tamperSign(h) // Byzantine for every request, batched or not
		}
		return h
	})
	c := newTestCoordinator(t, urls, CoordinatorConfig{
		SignerTimeout: 60 * time.Second, // the race detector serializes the pairing work
		BatchWindow:   20 * time.Millisecond,
		CacheSize:     8, // small: force evictions under load
	})

	var wg sync.WaitGroup
	fail := make(chan error, 64)
	check := func(msg []byte, sig *core.Signature, err error) {
		if err != nil {
			fail <- err
			return
		}
		if !f.group.PK.Verify(msg, sig) {
			fail <- fmt.Errorf("invalid signature for %q", msg)
		}
	}
	for k := range 4 {
		// Duplicate Sign traffic: exercises cache + coalescing + batcher.
		wg.Add(1)
		go func() {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("mixed dup %d", k%2))
			for range 2 {
				sig, _, err := c.Sign(context.Background(), msg)
				check(msg, sig, err)
			}
		}()
		// Distinct Sign traffic: fills batch windows.
		wg.Add(1)
		go func() {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("mixed distinct %d", k))
			sig, _, err := c.Sign(context.Background(), msg)
			check(msg, sig, err)
		}()
		// Direct SignBatch traffic in parallel with everything else.
		wg.Add(1)
		go func() {
			defer wg.Done()
			msgs := [][]byte{
				[]byte(fmt.Sprintf("mixed batch %d-a", k%3)),
				[]byte(fmt.Sprintf("mixed batch %d-b", k%3)),
			}
			results, err := c.SignBatch(context.Background(), msgs)
			if err != nil {
				fail <- err
				return
			}
			for j, res := range results {
				if res.Err != nil {
					fail <- res.Err
					continue
				}
				check(msgs[j], res.Sig, nil)
			}
		}()
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
}
