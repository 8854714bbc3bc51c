package service

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// rushFirst is a RoundTripper under which one signer's answer is always
// among the first the coordinator hears: on every fan-out (told apart by
// X-Request-ID) the requests to the other signers are held until the
// rusher's answer has been read off the wire, and then for rushHeadStart
// more — the time the coordinator has to take that answer in, which a
// loaded box can otherwise spend on the others' whole round-trips.
type rushFirst struct {
	url string

	mu    sync.Mutex
	heard map[string]chan struct{} // by request id
}

func (a *rushFirst) gate(id string) chan struct{} {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.heard == nil {
		a.heard = make(map[string]chan struct{})
	}
	g, ok := a.heard[id]
	if !ok {
		g = make(chan struct{})
		a.heard[id] = g
	}
	return g
}

func (a *rushFirst) RoundTrip(r *http.Request) (*http.Response, error) {
	g := a.gate(r.Header.Get(HeaderRequestID))
	if !strings.HasPrefix(r.URL.String(), a.url) {
		select {
		case <-g:
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
		select {
		case <-time.After(rushHeadStart):
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
		return http.DefaultTransport.RoundTrip(r)
	}
	defer close(g) // one request per fan-out reaches the rusher
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, err
}

// optimisticFleet is the fixture fleet with signer `rusher` answering
// first on every fan-out and tampering while evil is set (for batches:
// only the messages pick selects; nil selects all).
type optimisticFleet struct {
	c    *Coordinator
	evil atomic.Bool
	log  *logBuf
	reqs int
}

const rusher = 1

const rushHeadStart = 10 * time.Millisecond

func newOptimisticFleet(t *testing.T, group *core.Group, pick func(j int) bool) *optimisticFleet {
	t.Helper()
	f := testFixture(t)
	fl := &optimisticFleet{log: &logBuf{}}
	if pick == nil {
		pick = func(int) bool { return true }
	}
	urls := startSigners(t, f, func(i int, h http.Handler) http.Handler {
		if i != rusher {
			return h
		}
		bad := tamperBatchSelect(h, pick)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if fl.evil.Load() {
				bad.ServeHTTP(w, r)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	c, err := NewCoordinator(group, urls, CoordinatorConfig{
		SignerTimeout: 60 * time.Second,
		HTTPClient:    &http.Client{Transport: &rushFirst{url: urls[rusher-1]}},
		Logger:        debugLogger(fl.log),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The rusher answers rushHeadStart ahead of everyone on every fan-out,
	// so its round-trip would set a pace the others never meet; with the
	// hedge parked every fan-out is the rusher's wave and nothing else.
	parkHedge(c)
	fl.c = c
	return fl
}

// ctx returns a context with a request id of its own, which is what
// rushFirst tells fan-outs apart by. It also rewinds the tenant's rotation
// so the next first wave starts at the rusher (signer 1, first among the
// healthy): rushFirst holds every other signer until the rusher answers,
// so a wave without it would wait out SignerTimeout. A suspect (or
// lagging) rusher is asked anyway, as a probe.
func (fl *optimisticFleet) ctx() context.Context {
	fl.c.defTenant().rotation.Store(0)
	fl.reqs++
	return WithRequestID(context.Background(), fmt.Sprintf("optimistic-%d", fl.reqs))
}

// counters is the coordinator's Byzantine accounting at one instant.
type counters struct {
	checks, fallbacks, rusherFailures uint64
}

func (fl *optimisticFleet) counters() counters {
	m := fl.c.met
	return counters{
		checks:         m.shareChecks.Value(),
		fallbacks:      m.combineFallbacks.Value(),
		rusherFailures: m.shareVerifyFailures.WithLabelValues(signerIndexLabel(rusher)).Value(),
	}
}

// expectDelta asserts how the counters moved since before.
func (fl *optimisticFleet) expectDelta(t *testing.T, step string, before counters, want counters) {
	t.Helper()
	now := fl.counters()
	got := counters{now.checks - before.checks, now.fallbacks - before.fallbacks, now.rusherFailures - before.rusherFailures}
	if got != want {
		t.Fatalf("%s: counters moved by %+v, want %+v", step, got, want)
	}
}

// TestOptimisticCombineConvictsThenGoesEager walks one tenant through the
// whole life of a conviction: (a) a Byzantine share among the first t+1 on
// a fresh tenant is held, the combine fails, the fallback convicts exactly
// that signer; (b) the next request verifies the suspect's share on arrival
// and wastes no combine; (c) the suspect's first fully valid answer clears
// the flag, and the request after that is back to zero Share-Verifies.
func TestOptimisticCombineConvictsThenGoesEager(t *testing.T) {
	f := testFixture(t)
	fl := newOptimisticFleet(t, f.group, nil)
	fl.evil.Store(true)
	sign := func(msg string) SignReport {
		t.Helper()
		sig, report, err := fl.c.Sign(fl.ctx(), []byte(msg))
		if err != nil {
			t.Fatalf("%s: %v", msg, err)
		}
		if !f.group.PK.Verify([]byte(msg), sig) {
			t.Fatalf("%s: signature rejected by Verify", msg)
		}
		if len(report.Signers) != fixT+1 {
			t.Fatalf("%s: %d signers, want %d", msg, len(report.Signers), fixT+1)
		}
		return report
	}
	convicted := func(step string, report SignReport) {
		t.Helper()
		if len(report.Invalid) != 1 || report.Invalid[0] != rusher || contains(report.Signers, rusher) {
			t.Fatalf("%s: invalid %v signers %v, want exactly signer %d convicted", step, report.Invalid, report.Signers, rusher)
		}
	}

	before := fl.counters()
	convicted("fallback", sign("a: fresh tenant"))
	// The failed combine sends its t+1 held shares to Share-Verify.
	fl.expectDelta(t, "fallback", before, counters{checks: fixT + 1, fallbacks: 1, rusherFailures: 1})
	if !fl.c.defTenant().suspect[rusher-1].Load() {
		t.Fatal("convicted signer not marked suspect")
	}

	before = fl.counters()
	convicted("eager", sign("b: suspect known"))
	fl.expectDelta(t, "eager", before, counters{checks: 1, fallbacks: 0, rusherFailures: 1})
	if n := strings.Count(fl.log.String(), "signer convicted"); n != 1 {
		t.Fatalf("%d conviction log lines after two bad answers, want 1 (edge-triggered)", n)
	}

	fl.evil.Store(false)
	before = fl.counters()
	if report := sign("c: suspect reforms"); !contains(report.Signers, rusher) || len(report.Invalid) != 0 {
		t.Fatalf("reformed signer: signers %v invalid %v", report.Signers, report.Invalid)
	}
	fl.expectDelta(t, "reformed", before, counters{checks: 1})
	if fl.c.defTenant().suspect[rusher-1].Load() {
		t.Fatal("suspect flag survived a fully valid answer")
	}

	before = fl.counters()
	sign("c: cleared")
	fl.expectDelta(t, "cleared", before, counters{})
}

// weightCounter stands in for crypto/rand.Reader and counts the 128-bit
// batching weights drawn: a batch reads all of its weights at once, 16
// bytes each; request ids read 8 bytes.
type weightCounter struct {
	inner   io.Reader
	weights atomic.Int64
}

func (w *weightCounter) Read(p []byte) (int, error) {
	if len(p)%16 == 0 {
		w.weights.Add(int64(len(p) / 16))
	}
	return w.inner.Read(p)
}

// TestHonestFleetPaysNoShareVerify: on an honest fleet neither Sign nor a
// SignBatch of 8 puts a single share through Share-Verify, and the batch's
// eight signatures are accepted by ONE BatchVerify (eight weights drawn),
// the single one by the weight-free Verify (none).
func TestHonestFleetPaysNoShareVerify(t *testing.T) {
	wc := &weightCounter{inner: rand.Reader}
	saved := rand.Reader
	rand.Reader = wc
	t.Cleanup(func() { rand.Reader = saved }) // registered first: runs after the fleet is closed
	f := testFixture(t)
	fl := newOptimisticFleet(t, f.group, nil)
	wc.weights.Store(0) // setting up may have drawn key material

	sig, report, err := fl.c.Sign(fl.ctx(), []byte("honest single"))
	if err != nil || !f.group.PK.Verify([]byte("honest single"), sig) {
		t.Fatalf("Sign: %v", err)
	}
	if len(report.Signers) != fixT+1 || !contains(report.Signers, rusher) {
		t.Fatalf("signers %v: want the first %d arrivals, the rusher among them", report.Signers, fixT+1)
	}
	if n := wc.weights.Load(); n != 0 {
		t.Fatalf("a single honest Sign drew %d batching weights, want 0", n)
	}

	msgs := batchMsgs("honest batch", 8)
	results, err := fl.c.SignBatch(fl.ctx(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	for j, res := range results {
		if res.Err != nil || !f.group.PK.Verify(msgs[j], res.Sig) {
			t.Fatalf("message %d: %v", j, res.Err)
		}
	}
	if n := wc.weights.Load(); n != 8 {
		t.Fatalf("an honest SignBatch of 8 drew %d batching weights, want 8 (one BatchVerify, no share batch)", n)
	}
	fl.expectDelta(t, "honest fleet", counters{}, counters{})
}

// TestBatchFallbackIsPerMessage: a signer that corrupts ONE message of a
// batch of 8 sends only that message to the fallback; the other seven are
// accepted on the first check with the liar's valid shares interpolated.
func TestBatchFallbackIsPerMessage(t *testing.T) {
	f := testFixture(t)
	const badMsg = 3
	fl := newOptimisticFleet(t, f.group, func(j int) bool { return j == badMsg })
	fl.evil.Store(true)

	msgs := batchMsgs("one bad of eight", 8)
	results, err := fl.c.SignBatch(fl.ctx(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	for j, res := range results {
		if res.Err != nil || !f.group.PK.Verify(msgs[j], res.Sig) {
			t.Fatalf("message %d: %v", j, res.Err)
		}
		liarUsed, liarInvalid := contains(res.Report.Signers, rusher), contains(res.Report.Invalid, rusher)
		if (j == badMsg) != liarInvalid || (j == badMsg) == liarUsed || len(res.Report.Invalid) > 1 {
			t.Fatalf("message %d: signers %v invalid %v", j, res.Report.Signers, res.Report.Invalid)
		}
	}
	fl.expectDelta(t, "one bad of eight", counters{}, counters{checks: fixT + 1, fallbacks: 1, rusherFailures: 1})
}

// TestCombineFailureWithoutCulprit: when every held share verifies and
// their interpolation still fails Verify (here: a coordinator whose public
// key does not belong to its verification keys) nobody is convicted and
// the request fails as it always did, instead of waiting for more shares.
func TestCombineFailureWithoutCulprit(t *testing.T) {
	f := testFixture(t)
	wrongPK := &core.PublicKey{Params: f.group.Params, G1: f.group.PK.G2, G2: f.group.PK.G1}
	group, err := core.NewGroup(f.group.Domain, fixN, fixT, &core.KeyShares{PK: wrongPK, VKs: f.group.VKs})
	if err != nil {
		t.Fatal(err)
	}
	fl := newOptimisticFleet(t, group, nil)
	_, _, err = fl.c.Sign(fl.ctx(), []byte("no culprit"))
	if err == nil || !strings.Contains(err.Error(), "combined signature failed verification") {
		t.Fatalf("got %v, want the combined-signature error", err)
	}
	fl.expectDelta(t, "no culprit", counters{}, counters{checks: fixT + 1, fallbacks: 1})
	for i := range fl.c.defTenant().suspect {
		if fl.c.defTenant().suspect[i].Load() {
			t.Fatalf("signer %d marked suspect without a bad share", i+1)
		}
	}
}

// lateProbe is a RoundTripper that scripts one fan-out at a time with
// gates instead of sleeps. The suspect's request is held until the test
// releases it — after the fan-out has settled every item on the others'
// shares. The stuck signer's request never answers: it returns when its
// context is canceled, which fanOut does when the items settle, while the
// suspect is still held.
type lateProbe struct {
	suspect, stuck string

	mu           sync.Mutex
	release, end chan struct{}
}

// arm opens the gates for the next fan-out: close release to let the
// suspect answer; end closes when the fan-out has canceled the stuck
// laggard.
func (lp *lateProbe) arm() (release, end chan struct{}) {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	lp.release, lp.end = make(chan struct{}), make(chan struct{})
	return lp.release, lp.end
}

func (lp *lateProbe) RoundTrip(r *http.Request) (*http.Response, error) {
	lp.mu.Lock()
	release, end := lp.release, lp.end
	lp.mu.Unlock()
	switch {
	case strings.HasPrefix(r.URL.String(), lp.stuck):
		<-r.Context().Done()
		close(end)
		return nil, r.Context().Err()
	case strings.HasPrefix(r.URL.String(), lp.suspect):
		select {
		case <-release:
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestSuspectAnsweringAfterQuorumIsJudged: a suspect asked as a probe
// whose answer arrives only after the honest quorum settled the request is
// still judged, by the same checks as an on-time answer. A Byzantine one
// is convicted exactly once per Sign; a healed one is cleared. Signer 2 is
// a lagging probe that never answers, and is not waited for. Sign returns
// before the suspect answers, unbatched as well as through the window
// batcher: the judging never holds up a caller.
func TestSuspectAnsweringAfterQuorumIsJudged(t *testing.T) {
	for _, tc := range []struct {
		name   string
		window time.Duration
	}{{"unbatched", 0}, {"windowed", time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) { testLateSuspect(t, tc.window) })
	}
}

func testLateSuspect(t *testing.T, window time.Duration) {
	f := testFixture(t)
	var evil atomic.Bool
	urls := startSigners(t, f, func(i int, h http.Handler) http.Handler {
		if i != rusher {
			return h
		}
		bad := tamperSign(h)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if evil.Load() {
				bad.ServeHTTP(w, r)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	const stuck = 2
	lp := &lateProbe{suspect: urls[rusher-1], stuck: urls[stuck-1]}
	log := &logBuf{}
	c, err := NewCoordinator(f.group, urls, CoordinatorConfig{
		SignerTimeout: time.Minute,
		HTTPClient:    &http.Client{Transport: lp},
		BatchWindow:   window,
		Logger:        debugLogger(log),
	})
	if err != nil {
		t.Fatal(err)
	}
	parkHedge(c)
	c.defTenant().suspect[rusher-1].Store(true)
	c.defTenant().lagging[stuck-1].Store(true)
	fl := &optimisticFleet{c: c}

	judged := 0
	sign := func(msg string) {
		t.Helper()
		release, end := lp.arm()
		// The suspect is held until Sign has returned.
		sig, report, err := c.Sign(context.Background(), []byte(msg))
		if err != nil {
			t.Fatalf("%s: %v", msg, err)
		}
		if !f.group.PK.Verify([]byte(msg), sig) || contains(report.Signers, rusher) || contains(report.Signers, stuck) {
			t.Fatalf("%s: signers %v, want a verified honest quorum without %d and %d", msg, report.Signers, rusher, stuck)
		}
		awaitReleased(t, msg, end)
		close(release)
		judged++
		awaitJudged(t, msg, log, judged)
	}

	evil.Store(true)
	for _, msg := range []string{"late liar 1", "late liar 2"} {
		before := fl.counters()
		sign(msg)
		fl.expectDelta(t, msg, before, counters{checks: 1, rusherFailures: 1})
		if !c.defTenant().suspect[rusher-1].Load() {
			t.Fatalf("%s: late Byzantine answer cleared the suspect", msg)
		}
	}

	evil.Store(false)
	before := fl.counters()
	sign("late reformed")
	fl.expectDelta(t, "late reformed", before, counters{checks: 1})
	if c.defTenant().suspect[rusher-1].Load() {
		t.Fatal("a valid late answer left the signer suspect")
	}
	if !c.defTenant().lagging[stuck-1].Load() {
		t.Fatal("the stuck probe left the lagging state without answering")
	}
}

// TestSuspectAnsweringLongAfterQuorumIsJudged: the late judge waits for a
// probed suspect as long as the probe's own request may take
// (SignerTimeout), not one hedge delay. A Byzantine suspect that answers
// three hedge delays after the quorum settled the request is still
// convicted, exactly once; the stuck laggard beside it is let go at settle.
func TestSuspectAnsweringLongAfterQuorumIsJudged(t *testing.T) {
	f := testFixture(t)
	urls := startSigners(t, f, func(i int, h http.Handler) http.Handler {
		if i != rusher {
			return h
		}
		return tamperSign(h)
	})
	const stuck = 2
	lp := &lateProbe{suspect: urls[rusher-1], stuck: urls[stuck-1]}
	log := &logBuf{}
	c, err := NewCoordinator(f.group, urls, CoordinatorConfig{
		SignerTimeout: time.Minute,
		HTTPClient:    &http.Client{Transport: lp},
		Logger:        debugLogger(log),
	})
	if err != nil {
		t.Fatal(err)
	}
	setPace(c, 5*time.Millisecond)
	hedge := c.defTenant().hedgeDelay(1)
	c.defTenant().suspect[rusher-1].Store(true)
	c.defTenant().lagging[stuck-1].Store(true)
	fl := &optimisticFleet{c: c}

	const msg = "very late liar"
	release, end := lp.arm()
	before := fl.counters()
	sig, report, err := c.Sign(context.Background(), []byte(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !f.group.PK.Verify([]byte(msg), sig) || contains(report.Signers, rusher) || contains(report.Signers, stuck) {
		t.Fatalf("signers %v, want a verified honest quorum without %d and %d", report.Signers, rusher, stuck)
	}
	awaitReleased(t, msg, end)
	time.Sleep(3 * hedge)
	close(release)
	awaitJudged(t, msg, log, 1)
	fl.expectDelta(t, msg, before, counters{checks: 1, rusherFailures: 1})
	if !c.defTenant().suspect[rusher-1].Load() {
		t.Fatal("the late Byzantine answer cleared the suspect")
	}
}

// awaitReleased waits for lateProbe's stuck laggard to be canceled.
func awaitReleased(t *testing.T, step string, end <-chan struct{}) {
	t.Helper()
	select {
	case <-end:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: the stuck laggard was not released when the request settled", step)
	}
}

// awaitJudged waits until n late judges have finished: each logs one
// "late probes judged" line when it exits, and the counters it moves are
// final from then on.
func awaitJudged(t *testing.T, step string, log *logBuf, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for strings.Count(log.String(), "late probes judged") < n {
		if time.Now().After(deadline) {
			t.Fatalf("%s: the late judge did not finish", step)
		}
		time.Sleep(time.Millisecond)
	}
}
