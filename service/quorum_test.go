package service

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// askCounter is a RoundTripper that counts the coordinator's sign POSTs
// per signer — including those to a down backend, which never reach a
// server.
type askCounter struct {
	urls []string

	mu   sync.Mutex
	hits map[int]int // by signer index
}

func (a *askCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost && (strings.HasSuffix(r.URL.Path, "/sign") || strings.HasSuffix(r.URL.Path, "/sign-batch")) {
		for k, u := range a.urls {
			if strings.HasPrefix(r.URL.String(), u+"/") {
				a.mu.Lock()
				a.hits[k+1]++
				a.mu.Unlock()
			}
		}
	}
	return http.DefaultTransport.RoundTrip(r)
}

// take returns the per-signer counts since the last take, once they add
// up to at least want (or after five seconds): a fan-out returns at
// quorum, which can be before a request it no longer needs has even
// reached its RoundTrip.
func (a *askCounter) take(want int) map[int]int {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		a.mu.Lock()
		if totalAsks(a.hits) >= want || time.Now().After(deadline) {
			got := a.hits
			a.hits = make(map[int]int)
			a.mu.Unlock()
			return got
		}
		a.mu.Unlock()
	}
}

func totalAsks(hits map[int]int) int {
	s := 0
	for _, v := range hits {
		s += v
	}
	return s
}

// newCountedCoordinator builds a coordinator over urls whose signer
// requests go through an askCounter.
func newCountedCoordinator(t *testing.T, urls []string, timeout time.Duration) (*Coordinator, *askCounter) {
	t.Helper()
	ac := &askCounter{urls: urls, hits: make(map[int]int)}
	return newTestCoordinator(t, urls, CoordinatorConfig{
		SignerTimeout: timeout,
		HTTPClient:    &http.Client{Transport: ac},
	}), ac
}

// setPace sets the default tenant's pace for every batch size, which puts
// its hedge at hedgeFactor × d.
func setPace(c *Coordinator, d time.Duration) {
	for k := range c.defTenant().pace {
		c.defTenant().pace[k].Store(int64(d))
	}
}

// parkHedge moves the hedge hours out, so the test pins the wave alone
// however slowly the box answers; TestStalledWaveMemberIsHedged covers
// the timer.
func parkHedge(c *Coordinator) { setPace(c, time.Hour) }

// signBatchOK signs msgs as one SignBatch and checks every signature.
func signBatchOK(t *testing.T, c *Coordinator, msgs [][]byte) {
	t.Helper()
	results, err := c.SignBatch(context.Background(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	for j, res := range results {
		if res.Err != nil || !testFixture(t).group.PK.Verify(msgs[j], res.Sig) {
			t.Fatalf("batch message %d (%s): %v", j, msgs[j], res.Err)
		}
	}
}

// signOK signs msg and checks the signature.
func signOK(t *testing.T, c *Coordinator, msg string) SignReport {
	t.Helper()
	sig, report, err := c.Sign(context.Background(), []byte(msg))
	if err != nil {
		t.Fatalf("%s: %v", msg, err)
	}
	if !testFixture(t).group.PK.Verify([]byte(msg), sig) {
		t.Fatalf("%s: signature rejected by Verify", msg)
	}
	return report
}

// TestQuorumFirstAsksTPlusOne: on an honest fleet the first fan-out of
// each batch size asks all n (it seeds that size's pace); after them every
// Sign and SignBatch sends exactly t+1 signer POSTs, and the rotation
// spreads them so that over k fan-outs each signer is asked k·(t+1)/n ± 1
// times.
func TestQuorumFirstAsksTPlusOne(t *testing.T) {
	f := testFixture(t)
	c, ac := newCountedCoordinator(t, startSigners(t, f, nil), 60*time.Second)
	signOK(t, c, "quorum-first: seed")
	if got := totalAsks(ac.take(fixN)); got != fixN {
		t.Fatalf("first fan-out sent %d POSTs, want all n=%d", got, fixN)
	}
	signBatchOK(t, c, batchMsgs("quorum-first: batch seed", 4))
	if got := totalAsks(ac.take(fixN)); got != fixN {
		t.Fatalf("first 4-message fan-out sent %d POSTs, want all n=%d (its own pace)", got, fixN)
	}
	parkHedge(c)

	const k = 12
	asked := make(map[int]int)
	for r := range k {
		if r%2 == 0 {
			signOK(t, c, fmt.Sprintf("quorum-first: sign %d", r))
		} else {
			signBatchOK(t, c, batchMsgs(fmt.Sprintf("quorum-first: batch %d", r), 4))
		}
		hits := ac.take(fixT + 1)
		if got := totalAsks(hits); got != fixT+1 {
			t.Fatalf("fan-out %d sent %d POSTs %v, want t+1=%d", r, got, hits, fixT+1)
		}
		for i, v := range hits {
			asked[i] += v
		}
	}
	want := float64(k*(fixT+1)) / fixN
	for i := 1; i <= fixN; i++ {
		if d := float64(asked[i]) - want; d > 1 || d < -1 {
			t.Fatalf("signer %d asked %d times over %d fan-outs, want %.1f ± 1 (all: %v)", i, asked[i], k, want, asked)
		}
	}
	if got := c.met.fanoutHedges.Value(); got != 0 {
		t.Fatalf("hedges = %d on an honest fleet, want 0", got)
	}
}

// TestQuorumFirstProbesSuspectsAndDownBackends: a suspect and a down
// backend are asked on every fan-out on top of the t+1 wave — the only
// way the one can clear and the other log its recovery.
func TestQuorumFirstProbesSuspectsAndDownBackends(t *testing.T) {
	f := testFixture(t)
	const liar, down = 2, 5
	urls := startSigners(t, f, func(i int, h http.Handler) http.Handler {
		if i == liar {
			return tamperSign(h) // stays suspect: every probe is convicted
		}
		return h
	})
	urls[down-1] = downURL(t)
	c, ac := newCountedCoordinator(t, urls, 60*time.Second)
	signOK(t, c, "probes: seed")
	ac.take(fixN)
	if !c.backendDown[down-1].Load() {
		t.Fatalf("signer %d not marked down by the first fan-out", down)
	}
	c.defTenant().markSuspect(liar)
	parkHedge(c)

	for r := range 6 {
		report := signOK(t, c, fmt.Sprintf("probes: %d", r))
		hits := ac.take(fixT + 1 + 2)
		if hits[liar] != 1 || hits[down] != 1 || totalAsks(hits) != fixT+1+2 {
			t.Fatalf("fan-out %d asked %v, want t+1=%d healthy plus one probe each to %d and %d", r, hits, fixT+1, liar, down)
		}
		// The probe to the down backend is asked, but the quorum may settle
		// before its refused dial reports back, so Unreachable is not pinned.
		if contains(report.Signers, liar) || contains(report.Signers, down) {
			t.Fatalf("fan-out %d: signers %v", r, report.Signers)
		}
	}
	if !c.defTenant().suspect[liar-1].Load() {
		t.Fatal("Byzantine probe cleared its suspect flag")
	}
}

// TestWaveErrorReleasesReserve: a wave member answering 500 leaves the
// message one share short, so one reserve signer is asked in its place;
// the signature still comes back and the member is listed unreachable.
// From then on the erring signer is lagging: asked only as a probe, so
// no later wave waits on its error, until it answers again.
func TestWaveErrorReleasesReserve(t *testing.T) {
	f := testFixture(t)
	const broken = 3
	var failing atomic.Bool
	urls := startSigners(t, f, func(i int, h http.Handler) http.Handler {
		if i != broken {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if failing.Load() {
				writeError(w, http.StatusInternalServerError, "disk on fire")
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	c, ac := newCountedCoordinator(t, urls, 60*time.Second)
	signOK(t, c, "release: seed")
	ac.take(fixN)
	parkHedge(c)
	failing.Store(true)
	c.defTenant().rotation.Store(0) // the wave is signers 1..t+1, the broken one among them

	report := signOK(t, c, "release: wave member errors")
	hits := ac.take(fixT + 2)
	if hits[broken] != 1 || totalAsks(hits) != fixT+2 {
		t.Fatalf("asked %v, want the t+1=%d wave plus one reserve signer", hits, fixT+1)
	}
	if !contains(report.Unreachable, broken) || contains(report.Signers, broken) {
		t.Fatalf("signers %v unreachable %v, want %d unreachable", report.Signers, report.Unreachable, broken)
	}
	if got := c.met.fanoutHedges.Value(); got != 0 {
		t.Fatalf("hedges = %d, want 0 (an error releases the reserve, not the timer)", got)
	}
	if !c.defTenant().lagging[broken-1].Load() {
		t.Fatalf("signer %d answered 500 and is not lagging", broken)
	}

	for r := range 4 {
		signOK(t, c, fmt.Sprintf("release: probe %d", r))
		if hits := ac.take(fixT + 2); hits[broken] != 1 || totalAsks(hits) != fixT+2 {
			t.Fatalf("fan-out %d asked %v, want t+1=%d healthy plus one probe to %d", r, hits, fixT+1, broken)
		}
	}

	// Fixed, it rejoins once a probe's answer is read before the fan-out
	// settles; after that a fan-out asks t+1 again.
	failing.Store(false)
	for r := 0; c.defTenant().lagging[broken-1].Load(); r++ {
		if r == 20 {
			t.Fatalf("signer %d still lagging after %d answered probes", broken, r)
		}
		signOK(t, c, fmt.Sprintf("release: recovered %d", r))
		ac.take(fixT + 2)
	}
	signOK(t, c, "release: back in the rotation")
	if got := totalAsks(ac.take(fixT + 1)); got != fixT+1 {
		t.Fatalf("asked %d after the recovery, want t+1=%d", got, fixT+1)
	}
}

// TestStalledWaveMemberIsHedged: a wave member that stays slow — it does
// answer, but far past the hedge (4× the tenant's pace) — does not hold
// the signature up: the hedge releases the reserve, once. The straggler
// is then lagging and asked only as a probe, so no later wave waits on it
// or hedges again.
func TestStalledWaveMemberIsHedged(t *testing.T) {
	f := testFixture(t)
	const stalled = 2
	const slow = 2 * time.Second
	var stalling atomic.Bool
	urls := startSigners(t, f, func(i int, h http.Handler) http.Handler {
		if i != stalled {
			return h
		}
		late := slowSign(h, slow)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if stalling.Load() {
				late.ServeHTTP(w, r)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	c, ac := newCountedCoordinator(t, urls, 30*time.Second)
	signOK(t, c, "hedge: seed")
	ac.take(fixN)
	// One seed is a noisy pace; pin a hedge (400 ms) that honest signers
	// meet on a loaded box and the straggler misses by far.
	setPace(c, slow/20)
	stalling.Store(true)
	c.defTenant().rotation.Store(0) // the wave is signers 1..t+1, the stalled one among them

	start := time.Now()
	report := signOK(t, c, "hedge: wave member stalls")
	if took := time.Since(start); took > slow/2 {
		t.Fatalf("Sign took %v behind a wave member that answers after %v", took, slow)
	}
	if contains(report.Signers, stalled) {
		t.Fatalf("stalled signer %d in signers %v", stalled, report.Signers)
	}
	if got := c.met.fanoutHedges.Value(); got != 1 {
		t.Fatalf("hedges = %d, want 1", got)
	}
	if hits := ac.take(fixN); totalAsks(hits) != fixN {
		t.Fatalf("asked %v, want the t+1=%d wave and the whole reserve", hits, fixT+1)
	}
	if !c.defTenant().lagging[stalled-1].Load() {
		t.Fatalf("signer %d missed the hedge and is not lagging", stalled)
	}

	start = time.Now()
	for r := range 8 {
		report := signOK(t, c, fmt.Sprintf("hedge: straggler probed %d", r))
		hits := ac.take(fixT + 2)
		if hits[stalled] != 1 || totalAsks(hits) != fixT+2 || contains(report.Signers, stalled) {
			t.Fatalf("fan-out %d asked %v signers %v, want t+1=%d healthy plus one probe to %d", r, hits, report.Signers, fixT+1, stalled)
		}
	}
	if took := time.Since(start); took > slow/2 {
		t.Fatalf("8 Signs took %v with a straggler that answers after %v", took, slow)
	}
	if got := c.met.fanoutHedges.Value(); got != 1 {
		t.Fatalf("hedges = %d after the straggler left the rotation, want still 1", got)
	}
}
