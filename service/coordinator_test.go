package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// ---- fault-injection handler wrappers ----

// tamperSign makes a signer Byzantine: it signs a tampered message, so
// the returned partial is well-formed but fails Share-Verify. Batch
// requests have every message tampered.
func tamperSign(h http.Handler) http.Handler {
	return tamperBatchSelect(h, func(int) bool { return true })
}

// tamperBatchSelect tampers /v1/sign entirely and, on /v1/sign-batch,
// only the messages whose index satisfies pick — a signer that is
// Byzantine for PART of a batch, which only bisection can isolate.
func tamperBatchSelect(h http.Handler, pick func(j int) bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sign" {
			var req SignRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err == nil {
				req.Message = append(req.Message, []byte("::tampered")...)
				body, _ := json.Marshal(req)
				r2 := r.Clone(r.Context())
				r2.Body = io.NopCloser(bytes.NewReader(body))
				r2.ContentLength = int64(len(body))
				h.ServeHTTP(w, r2)
				return
			}
		}
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sign-batch" {
			var req SignBatchRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err == nil {
				for j := range req.Messages {
					if pick(j) {
						req.Messages[j] = append(req.Messages[j], []byte("::tampered")...)
					}
				}
				body, _ := json.Marshal(req)
				r2 := r.Clone(r.Context())
				r2.Body = io.NopCloser(bytes.NewReader(body))
				r2.ContentLength = int64(len(body))
				h.ServeHTTP(w, r2)
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}

// slowSign delays /v1/sign past any reasonable SignerTimeout. It drains
// the request body before sleeping so the server can detect the
// coordinator hanging up and cancel the request context — otherwise
// server shutdown would wait out the full delay.
func slowSign(h http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sign" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			select {
			case <-time.After(d):
			case <-r.Context().Done():
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}

// countSign counts /v1/sign hits across all signers.
func countSign(hits *atomic.Int64, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sign" {
			hits.Add(1)
		}
		h.ServeHTTP(w, r)
	})
}

func newTestCoordinator(t *testing.T, urls []string, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(testFixture(t).group, urls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// ---- failure matrix ----

func TestCoordinatorHappyPath(t *testing.T) {
	f := testFixture(t)
	urls := startSigners(t, f, nil)
	c := newTestCoordinator(t, urls, CoordinatorConfig{})
	msg := []byte("happy path")
	sig, report, err := c.Sign(context.Background(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if !f.group.PK.Verify(msg, sig) {
		t.Fatal("signature invalid")
	}
	if len(report.Signers) != fixT+1 {
		t.Fatalf("combined %d shares, want exactly t+1=%d (early exit)", len(report.Signers), fixT+1)
	}
	if report.Cached || report.Coalesced {
		t.Fatalf("unexpected report flags %+v", report)
	}
}

func TestCoordinatorFailureMatrix(t *testing.T) {
	f := testFixture(t)
	cases := []struct {
		name string
		down []int // connection refused
		slow []int // exceed SignerTimeout
		byz  []int // valid-encoding, invalid share
	}{
		{name: "one signer down", down: []int{2}},
		{name: "three signers down", down: []int{1, 4, 7}},
		{name: "three Byzantine signers", byz: []int{2, 3, 5}},
		{name: "one of each fault", down: []int{1}, slow: []int{4}, byz: []int{6}},
		{name: "two slow one Byzantine", slow: []int{2, 3}, byz: []int{7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			urls := startSigners(t, f, func(i int, h http.Handler) http.Handler {
				if contains(tc.slow, i) {
					return slowSign(h, 10*time.Second)
				}
				if contains(tc.byz, i) {
					return tamperSign(h)
				}
				return h
			})
			for _, i := range tc.down {
				urls[i-1] = downURL(t)
			}
			c := newTestCoordinator(t, urls, CoordinatorConfig{SignerTimeout: time.Second})
			msg := []byte("matrix: " + tc.name)
			start := time.Now()
			sig, report, err := c.Sign(context.Background(), msg)
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			if !f.group.PK.Verify(msg, sig) {
				t.Fatal("signature invalid")
			}
			faulty := append(append(append([]int{}, tc.down...), tc.slow...), tc.byz...)
			for _, i := range faulty {
				if contains(report.Signers, i) {
					t.Fatalf("faulty signer %d contributed to the combination", i)
				}
			}
			if len(report.Signers) != fixT+1 {
				t.Fatalf("combined %d shares, want %d", len(report.Signers), fixT+1)
			}
			t.Logf("%s: ok in %v, signers=%v invalid=%v unreachable=%v",
				tc.name, time.Since(start).Round(time.Millisecond),
				report.Signers, report.Invalid, report.Unreachable)
		})
	}
}

func TestCoordinatorExactlyTAvailableFailsCleanly(t *testing.T) {
	f := testFixture(t)
	// Only t=3 signers reachable; quorum needs t+1=4.
	urls := startSigners(t, f, nil)
	for _, i := range []int{1, 2, 3, 4} {
		urls[i-1] = downURL(t)
	}
	c := newTestCoordinator(t, urls, CoordinatorConfig{SignerTimeout: time.Second})
	_, _, err := c.Sign(context.Background(), []byte("no quorum"))
	var qe *QuorumError
	if !errors.As(err, &qe) {
		t.Fatalf("got %v, want QuorumError", err)
	}
	if qe.Valid != fixT || qe.Need != fixT+1 || len(qe.Unreachable) != 4 {
		t.Fatalf("accounting %+v", qe)
	}
}

func TestCoordinatorAllByzantineFails(t *testing.T) {
	f := testFixture(t)
	urls := startSigners(t, f, func(i int, h http.Handler) http.Handler { return tamperSign(h) })
	c := newTestCoordinator(t, urls, CoordinatorConfig{SignerTimeout: time.Second})
	_, _, err := c.Sign(context.Background(), []byte("all evil"))
	var qe *QuorumError
	if !errors.As(err, &qe) {
		t.Fatalf("got %v, want QuorumError", err)
	}
	if qe.Valid != 0 || len(qe.Invalid) != fixN {
		t.Fatalf("accounting %+v", qe)
	}
}

// ---- caching and coalescing ----

func TestCoordinatorSignatureCache(t *testing.T) {
	f := testFixture(t)
	var hits atomic.Int64
	urls := startSigners(t, f, func(i int, h http.Handler) http.Handler { return countSign(&hits, h) })
	c := newTestCoordinator(t, urls, CoordinatorConfig{})
	msg := []byte("cache me")

	sig1, r1, err := c.Sign(context.Background(), msg)
	if err != nil {
		t.Fatal(err)
	}
	after := hits.Load()
	sig2, r2, err := c.Sign(context.Background(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached || !r2.Cached {
		t.Fatalf("cache flags: first %+v second %+v", r1, r2)
	}
	if hits.Load() != after {
		t.Fatalf("cache hit still contacted signers (%d -> %d)", after, hits.Load())
	}
	if !bytes.Equal(sig1.Marshal(), sig2.Marshal()) {
		t.Fatal("cache returned a different signature")
	}
}

func TestCoordinatorCoalescesConcurrentDuplicates(t *testing.T) {
	f := testFixture(t)
	var hits atomic.Int64
	// A small artificial delay widens the in-flight window so the
	// concurrent duplicates reliably overlap.
	urls := startSigners(t, f, func(i int, h http.Handler) http.Handler {
		return countSign(&hits, slowSign(h, 100*time.Millisecond))
	})
	// Cache disabled: every hit below must be served by coalescing alone.
	c := newTestCoordinator(t, urls, CoordinatorConfig{CacheSize: -1, SignerTimeout: 5 * time.Second})

	msg := []byte("duplicate burst")
	const callers = 16
	sigs := make([][]byte, callers)
	reports := make([]SignReport, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for k := range callers {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			sig, report, err := c.Sign(context.Background(), msg)
			if err != nil {
				t.Error(err)
				return
			}
			sigs[k] = sig.Marshal()
			reports[k] = report
		}()
	}
	start.Done()
	done.Wait()
	if t.Failed() {
		t.FailNow()
	}

	coalesced := 0
	for k := range callers {
		if !bytes.Equal(sigs[k], sigs[0]) {
			t.Fatal("coalesced callers got different signatures")
		}
		if reports[k].Coalesced {
			coalesced++
		}
	}
	// One leader fans out (n requests); everyone else must ride along.
	if got := hits.Load(); got > int64(fixN) {
		t.Fatalf("%d signer requests for %d duplicate callers, want <= %d (one fan-out)", got, callers, fixN)
	}
	if coalesced != callers-1 {
		t.Fatalf("%d callers coalesced, want %d", coalesced, callers-1)
	}
	t.Logf("%d concurrent duplicates -> %d signer requests, %d coalesced", callers, hits.Load(), coalesced)
}

// gateSigns is a RoundTripper that holds every signer request until open
// is closed, or the request is canceled; reached takes a token once a
// request is held.
type gateSigns struct{ reached, open chan struct{} }

func (g *gateSigns) RoundTrip(r *http.Request) (*http.Response, error) {
	select {
	case g.reached <- struct{}{}:
	default:
	}
	select {
	case <-g.open:
		return http.DefaultTransport.RoundTrip(r)
	case <-r.Context().Done():
		return nil, r.Context().Err()
	}
}

// eventually polls cond until it holds, failing the test after ten
// seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func TestCoordinatorFollowerSurvivesLeaderCancel(t *testing.T) {
	f := testFixture(t)
	gate := &gateSigns{reached: make(chan struct{}, 1), open: make(chan struct{})}
	c := newTestCoordinator(t, startSigners(t, f, nil), CoordinatorConfig{
		CacheSize: -1, SignerTimeout: 5 * time.Second, HTTPClient: &http.Client{Transport: gate},
	})
	msg := []byte("leader dies young")

	// The leader's context is canceled mid-fan-out; a follower with a
	// live context must not inherit that failure.
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Sign(leaderCtx, msg)
		leaderErr <- err
	}()
	<-gate.reached // the leader's fan-out is out, held at the gate
	followerDone := make(chan error, 1)
	go func() {
		sig, _, err := c.Sign(context.Background(), msg)
		if err == nil && !f.group.PK.Verify(msg, sig) {
			err = errors.New("follower got an invalid signature")
		}
		followerDone <- err
	}()
	eventually(t, "the follower to coalesce", func() bool { return c.met.coalesced.Value() == 1 })
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error %v, want context.Canceled", err)
	}
	close(gate.open) // the follower's own fan-out goes through
	if err := <-followerDone; err != nil {
		t.Fatalf("follower failed after leader cancel: %v", err)
	}
}

// TestWindowLeaderCancelCostsNoSecondFanOut: the window's fan-out is
// detached from every caller, so a leader hanging up leaves its item in
// flight, and the follower rides it instead of paying a second fan-out.
func TestWindowLeaderCancelCostsNoSecondFanOut(t *testing.T) {
	f := testFixture(t)
	var hits atomic.Int64
	gate := &gateSigns{reached: make(chan struct{}, 1), open: make(chan struct{})}
	urls := startSigners(t, f, func(i int, h http.Handler) http.Handler { return countSign(&hits, h) })
	c := newTestCoordinator(t, urls, CoordinatorConfig{
		CacheSize: -1, SignerTimeout: 5 * time.Second, BatchWindow: time.Millisecond,
		HTTPClient: &http.Client{Transport: gate},
	})
	msg := []byte("window leader hangs up")

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Sign(leaderCtx, msg)
		leaderErr <- err
	}()
	<-gate.reached // the window closed and its fan-out is held at the gate
	type signRes struct {
		report SignReport
		err    error
	}
	followerDone := make(chan signRes, 1)
	go func() {
		sig, report, err := c.Sign(context.Background(), msg)
		if err == nil && !f.group.PK.Verify(msg, sig) {
			err = errors.New("follower got an invalid signature")
		}
		followerDone <- signRes{report, err}
	}()
	eventually(t, "the follower to coalesce", func() bool { return c.met.coalesced.Value() == 1 })
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error %v, want context.Canceled", err)
	}
	close(gate.open)
	res := <-followerDone
	if res.err != nil {
		t.Fatalf("follower: %v", res.err)
	}
	if !res.report.Coalesced {
		t.Fatal("follower not reported as coalesced: it paid a fan-out of its own")
	}
	if got := hits.Load(); got > int64(fixN) {
		t.Fatalf("%d signer requests, want <= %d (one fan-out)", got, fixN)
	}
}

// TestSignBatchRetryIsNotASignCall: a SignBatch message whose leader's
// caller hung up is signed again inside the batch call; it is no Sign
// call, and the Sign request counter does not see it.
func TestSignBatchRetryIsNotASignCall(t *testing.T) {
	f := testFixture(t)
	gate := &gateSigns{reached: make(chan struct{}, 1), open: make(chan struct{})}
	c := newTestCoordinator(t, startSigners(t, f, nil), CoordinatorConfig{
		CacheSize: -1, SignerTimeout: 5 * time.Second, HTTPClient: &http.Client{Transport: gate},
	})
	msg := []byte("batch outlives the leader")

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Sign(leaderCtx, msg)
		leaderErr <- err
	}()
	<-gate.reached
	type batchRes struct {
		results []BatchResult
		err     error
	}
	batchDone := make(chan batchRes, 1)
	go func() {
		results, err := c.SignBatch(context.Background(), [][]byte{msg})
		batchDone <- batchRes{results, err}
	}()
	eventually(t, "the batch message to coalesce", func() bool { return c.met.coalesced.Value() == 1 })
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error %v, want context.Canceled", err)
	}
	close(gate.open)
	br := <-batchDone
	if br.err != nil {
		t.Fatal(br.err)
	}
	if err := br.results[0].Err; err != nil {
		t.Fatalf("batch message after the leader hung up: %v", err)
	}
	if !f.group.PK.Verify(msg, br.results[0].Sig) {
		t.Fatal("batch message: invalid signature")
	}
	if got := c.met.requests.WithLabelValues(DefaultGroupID).Value(); got != 1 {
		t.Fatalf("sign requests_total = %d for one Sign call, want 1", got)
	}
	if got := c.met.batchRequests.WithLabelValues(DefaultGroupID).Value(); got != 1 {
		t.Fatalf("batch_requests_total = %d for one SignBatch call, want 1", got)
	}
}

// TestSignCacheHitAllocations: a one-message Sign served from the cache
// allocates the returned encoding and signer list and nothing else — the
// admission path shared with SignBatch costs a hit nothing.
func TestSignCacheHitAllocations(t *testing.T) {
	f := testFixture(t)
	c := newTestCoordinator(t, startSigners(t, f, nil), CoordinatorConfig{SignerTimeout: 60 * time.Second})
	tn, err := c.tenant(DefaultGroupID, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	msg := []byte("hot message")
	if _, _, err := tn.sign(ctx, msg); err != nil {
		t.Fatal(err)
	}
	var report SignReport
	n := testing.AllocsPerRun(100, func() { _, report, _ = tn.sign(ctx, msg) })
	if !report.Cached {
		t.Fatal("the measured call was not a cache hit")
	}
	if n > 2 {
		t.Fatalf("a one-message cache hit allocates %v times, want <= 2", n)
	}
}

func TestSigCacheLRUEviction(t *testing.T) {
	c := newSigCache(2)
	k := func(b byte) cacheKey { var k cacheKey; k.id[0] = b; return k }
	enc := func(b byte) []byte { return bytes.Repeat([]byte{b}, core.SignatureSize) }
	c.add(k(1), enc(1), []int{1})
	c.add(k(2), enc(2), []int{2})
	if _, _, ok := c.get(k(1)); !ok { // touch 1: now 2 is LRU
		t.Fatal("missing entry 1")
	}
	c.add(k(3), enc(3), []int{3}) // evicts 2, into its slot
	if _, _, ok := c.get(k(2)); ok {
		t.Fatal("entry 2 should have been evicted")
	}
	if sig, signers, ok := c.get(k(1)); !ok || signers[0] != 1 || !bytes.Equal(sig[:], enc(1)) {
		t.Fatal("entry 1 lost")
	}
	if sig, signers, ok := c.get(k(3)); !ok || signers[0] != 3 || !bytes.Equal(sig[:], enc(3)) {
		t.Fatal("entry 3 not stored in the evicted slot")
	}
	if c.len() != 2 {
		t.Fatalf("len %d", c.len())
	}
	// Disabled cache is inert.
	var nilCache *sigCache
	nilCache.add(k(9), enc(9), nil)
	if _, _, ok := nilCache.get(k(9)); ok {
		t.Fatal("nil cache returned a hit")
	}
}
