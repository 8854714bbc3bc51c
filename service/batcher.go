package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
)

// batcher collects concurrent Sign calls for DISTINCT messages into one
// fan-out round-trip per signer: the first message opens a window of
// BatchWindow, every message arriving before it closes (or the batch
// filling to MaxBatch) joins, and the whole batch goes through one
// fanOut — a single request to each signer. This is the complement of
// the coalescing layer — flightGroup collapses duplicates of ONE message,
// the batcher amortizes HTTP round-trips across DIFFERENT messages.
type batcher struct {
	tn     *coordTenant
	window time.Duration
	max    int

	mu  sync.Mutex
	cur *formingBatch // nil when no batch is collecting
}

// formingBatch is a batch still inside its collection window.
type formingBatch struct {
	items map[cacheKey]*batchItem
	order []*batchItem
	bytes int // estimated encoded size of the /v1/sign-batch body so far
}

// batchBytesBudget caps the estimated body size of a merged batch below
// the signers' maxRequestBytes inbound limit, with headroom for JSON
// framing slack: count alone must not produce a batch the signers will
// refuse to read.
const batchBytesBudget = maxRequestBytes - 8192

// estEncodedBytes approximates one message's share of the JSON body:
// base64 inflates by 4/3, plus quotes and separator.
func estEncodedBytes(n int) int { return 4*(n+2)/3 + 4 }

// batchItem is one message riding a batch; done is closed once out/err
// are set. Several waiters may select on done (duplicate submissions of
// one message join the same item).
type batchItem struct {
	msg  []byte
	key  cacheKey
	done chan struct{}
	out  *signOutcome
	err  error
}

func (it *batchItem) complete(out *signOutcome, err error) {
	it.out, it.err = out, err
	close(it.done)
}

func newBatcher(tn *coordTenant, window time.Duration, max int) *batcher {
	return &batcher{tn: tn, window: window, max: max}
}

// sign joins the forming batch and waits for this message's outcome. The
// batch itself runs detached from any single caller's context: it serves
// every joined caller, and its lifetime is already bounded by the
// per-signer timeouts — so a caller hanging up only stops that caller's
// wait.
func (b *batcher) sign(ctx context.Context, msg []byte, key cacheKey) (*signOutcome, error) {
	it := b.join(msg, key)
	select {
	case <-it.done:
		return it.out, it.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// join adds the message to the forming batch, opening a new window when
// none is collecting and dispatching the batch early when it fills —
// by message count or by the encoded-bytes budget.
func (b *batcher) join(msg []byte, key cacheKey) *batchItem {
	est := estEncodedBytes(len(msg))
	b.mu.Lock()
	if b.cur != nil {
		if it, ok := b.cur.items[key]; ok {
			b.mu.Unlock()
			return it
		}
		if b.cur.bytes+est > batchBytesBudget {
			// This message would push the batch body past what the signers
			// accept: send the current batch on its way and start a fresh
			// one. (A single oversized message forms a batch of one, which
			// fails exactly as it would unbatched.)
			full := b.cur
			b.cur = nil
			go b.send(full.order)
		}
	}
	it := &batchItem{msg: msg, key: key, done: make(chan struct{})}
	if b.cur == nil {
		fb := &formingBatch{items: make(map[cacheKey]*batchItem, b.max)}
		b.cur = fb
		time.AfterFunc(b.window, func() { b.dispatch(fb) })
	}
	fb := b.cur
	fb.items[key] = it
	fb.order = append(fb.order, it)
	fb.bytes += est
	if len(fb.order) >= b.max {
		b.cur = nil // full: dispatch now; the window timer becomes a no-op
		b.mu.Unlock()
		go b.send(fb.order)
		return it
	}
	b.mu.Unlock()
	return it
}

// dispatch closes the window for fb, unless it already went out full.
func (b *batcher) dispatch(fb *formingBatch) {
	b.mu.Lock()
	if b.cur != fb {
		b.mu.Unlock()
		return
	}
	b.cur = nil
	b.mu.Unlock()
	b.send(fb.order)
}

// send dispatches a closed window batch. The fan-out runs detached from
// any single caller's context, so it carries a fresh request id of its
// own — the per-caller ids are answered by the callers' own handlers;
// the batch's id is what the signers' logs see for the merged trip.
func (b *batcher) send(items []*batchItem) {
	b.tn.c.met.windowOccupancy.Observe(float64(len(items)))
	//tsiglint:ignore ctxscope a window batch serves many callers and must outlive each of them; cancellation is per-item via batchItem contexts
	b.tn.fanOut(WithRequestID(context.Background(), newRequestID()), items)
}

// heldShare is one share a message holds: decoded, carrying its sender's
// index, and not convicted. verified is set once Share-Verify passed it;
// took is its sender's round-trip.
type heldShare struct {
	ps       *core.PartialSignature
	verified bool
	took     time.Duration
}

// msgState tracks one in-flight message of a fan-out.
type msgState struct {
	held        []heldShare // in arrival order; never more than t+1
	invalid     []int
	unreachable []int
	done        bool
}

// unverifiedFrom returns the position of signer i's not-yet-checked share
// in held, or -1.
func (st *msgState) unverifiedFrom(i int) int {
	for p, h := range st.held {
		if h.ps.Index == i && !h.verified {
			return p
		}
	}
	return -1
}

// fanOut is the coordinator's one sign pipeline; a single message is a
// batch of one. It signs every item's message with at most ONE request per
// signer, asking a quorum first (coordTenant.wave: t+1 healthy signers
// plus every suspect, lagging and down signer as probes) and releasing the
// reserve only when an open message falls short of t+1 — an error or a
// conviction — or the hedge fires at 4× the tenant's pace for this batch
// size. A signer that errs, answers slower than the hedge or is still out
// when it fires is marked lagging; one that answers in time is cleared.
// The first verified signature's fastest share feeds the pace. It
// combines optimistically: an answer that decodes under its sender's
// index is held unverified, a message holding t+1 shares is interpolated,
// and the result is checked by core.CheckSignatures — Verify for one
// message, one BatchVerify over all messages that reached quorum on the
// same arrival. Only a verified signature is cached and completes its
// item. Share-Verify runs to convict, not to acquit: when a combined
// signature fails, that message's unchecked shares go through
// core.CheckShares (one call per signer), the bad ones are evicted and
// their signers marked suspect on the tenant, and the message waits for the
// next arrival. A suspect's answers are Share-Verified on arrival, while
// the honest shares are still in flight, until one verifies in full. Items
// that never reach quorum are completed with a QuorumError whose counts
// cover verified shares only. Every item is completed before fanOut
// returns, all on this one goroutine. Once every message is settled the
// laggard signer requests are canceled — except when a suspect the first
// wave probed has not answered yet: a detached goroutine then awaits it,
// for up to one more hedge delay, and judges its answer like an on-time
// one, while fanOut returns at once.
func (tn *coordTenant) fanOut(ctx context.Context, items []*batchItem) {
	c := tn.c
	fanOutStart := time.Now()
	// A panic must not strand the batch: an item whose done channel never
	// closes wedges its flight-group key forever (SignBatch's relay
	// goroutines block on <-it.done), and on the window batcher's
	// detached goroutines an unrecovered panic kills the whole process.
	// The panic is converted into each pending item's error instead —
	// every completion happens on this goroutine, so probing done cannot
	// race a concurrent complete.
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		err := fmt.Errorf("service: sign fan-out panicked: %v", r)
		for _, it := range items {
			select {
			case <-it.done:
			default:
				it.complete(nil, err)
			}
		}
	}()
	// The signer requests do not die with the caller: a probed suspect's
	// may outlive it (the end of fanOut). The caller hanging up ends the
	// fan-out, and that cancels them.
	caller := ctx
	ctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	judgingLate := false // the late judge owns cancel
	defer func() {
		if !judgingLate {
			cancel()
		}
	}()

	msgs := make([][]byte, len(items))
	for j, it := range items {
		msgs[j] = it.msg
	}
	// The wire shape follows the batch size; fetchPartials picks the
	// matching route.
	var req any = SignBatchRequest{Messages: msgs}
	if len(msgs) == 1 {
		req = SignRequest{Message: msgs[0]}
	}
	body, err := json.Marshal(req)
	if err != nil {
		for _, it := range items {
			it.complete(nil, err)
		}
		return
	}
	// Capture the group view once: a refresh that lands mid-batch must
	// not mix old and new verification keys within one fan-out.
	group := tn.group.Load()
	if group == nil {
		for _, it := range items {
			it.complete(nil, fmt.Errorf("service: coordinator holds no group yet: %w", ErrNoKeyMaterial))
		}
		return
	}

	type signerResult struct {
		index int
		parts []*core.PartialSignature // parts[j] answers msgs[j]; nil = undecodable
		took  time.Duration
		err   error
	}
	need := group.T + 1
	results := make(chan signerResult, group.N)
	inflight := 0
	ask := func(signers []int) {
		for _, i := range signers {
			inflight++
			go func(i int) {
				start := time.Now()
				parts, err := tn.fetchPartials(ctx, i, msgs, body)
				results <- signerResult{index: i, parts: parts, took: time.Since(start), err: err}
			}(i)
		}
	}
	delay := tn.hedgeDelay(len(items))
	first, reserve := tn.wave(group.N, need, delay == 0)
	ask(first)
	waiting := make([]bool, group.N+1) // waiting[i]: signer i, asked in the first wave, has not answered
	// probed[i]: signer i was a suspect, neither lagging nor down, when
	// asked; its answer is judged even after the quorum (end of fanOut).
	probed := make([]bool, group.N+1)
	for _, i := range first {
		waiting[i] = true
		probed[i] = tn.suspect[i-1].Load() && !tn.lagging[i-1].Load() && !c.backendDown[i-1].Load()
	}
	// release asks up to k reserve signers, in rotation order.
	release := func(k int) {
		k = max(0, min(k, len(reserve)))
		ask(reserve[:k])
		reserve = reserve[k:]
	}
	// The hedge: a wave that has not made quorum by hedgeFactor × the
	// tenant's pace gets the whole reserve.
	var hedge <-chan time.Time
	if len(reserve) > 0 {
		timer := time.NewTimer(delay)
		defer timer.Stop()
		hedge = timer.C
	}
	paced := false

	states := make([]*msgState, len(items))
	for j := range states {
		states[j] = &msgState{held: make([]heldShare, 0, need)}
	}
	remaining := len(items)
	settle := func(j int, out *signOutcome, err error) {
		states[j].done = true
		remaining--
		items[j].complete(out, err)
	}
	convict := func(st *msgState, i int) {
		c.met.shareVerifyFailures.WithLabelValues(signerIndexLabel(i)).Inc()
		st.invalid = append(st.invalid, i)
		tn.markSuspect(i)
	}
	// shareVerify puts signer i's not-yet-checked held shares of messages js
	// through one CheckShares call (one VK, so the batch keeps its 4-slot
	// shape), evicting and convicting the bad ones. It reports whether every
	// share passed.
	shareVerify := func(i int, js []int) bool {
		var entries []core.ShareBatchEntry
		var at []*msgState
		for _, j := range js {
			if p := states[j].unverifiedFrom(i); p >= 0 {
				entries = append(entries, core.ShareBatchEntry{Msg: items[j].msg, VK: group.VKs[i], PS: states[j].held[p].ps})
				at = append(at, states[j])
			}
		}
		if len(entries) == 0 {
			return true
		}
		c.met.shareChecks.Add(uint64(len(entries)))
		clean := true
		for q, ok := range core.CheckShares(group.PK, entries) {
			st := at[q]
			p := st.unverifiedFrom(i)
			if ok {
				st.held[p].verified = true
				continue
			}
			st.held = append(st.held[:p], st.held[p+1:]...)
			convict(st, i)
			clean = false
		}
		return clean
	}
	shareVerifyAll := func(js []int) {
		for i := 1; i <= group.N; i++ {
			shareVerify(i, js)
		}
	}
	// arrived books one answer: an error (not the caller hanging up) or an
	// answer slower than the hedge leaves the rotation; an answer in time
	// rejoins it.
	arrived := func(i int, took time.Duration, err error) {
		inflight--
		waiting[i] = false
		if err == nil || ctx.Err() == nil {
			tn.lagging[i-1].Store(err != nil || (delay > 0 && took > delay))
		}
	}
	// admit takes signer r.index's answer on messages js: a part that does
	// not decode under its sender's index is a conviction, any other is
	// held. A suspect's parts are Share-Verified at once, and an answer
	// that is valid in full clears it.
	admit := func(r signerResult, js []int) {
		wellFormed := true
		for _, j := range js {
			ps := r.parts[j]
			if ps == nil || ps.Index != r.index {
				// Undecodable bytes or a replayed share under another index:
				// Byzantine either way.
				convict(states[j], r.index)
				wellFormed = false
				continue
			}
			states[j].held = append(states[j].held, heldShare{ps: ps, took: r.took})
		}
		if tn.suspect[r.index-1].Load() && shareVerify(r.index, js) && wellFormed {
			tn.clearSuspect(r.index)
		}
	}
	pending := func() []int {
		js := make([]int, 0, remaining)
		for j, st := range states {
			if !st.done {
				js = append(js, j)
			}
		}
		return js
	}

	for remaining > 0 {
		// An error or a conviction can leave an open message unable to
		// reach t+1 from what it holds plus what is still in flight: ask
		// that many more from the reserve.
		short := 0
		for _, st := range states {
			if !st.done {
				short = max(short, need-len(st.held)-inflight)
			}
		}
		release(short)
		if inflight == 0 {
			break
		}
		var r signerResult
		select {
		case r = <-results:
		case <-hedge:
			hedge = nil
			// Whoever in the first wave is still out missed the hedge; its
			// answer may never be read, so it is marked now.
			for i := 1; i <= group.N; i++ {
				if waiting[i] {
					tn.lagging[i-1].Store(true)
				}
			}
			if len(reserve) > 0 {
				c.met.fanoutHedges.Inc()
				release(len(reserve))
			}
			continue
		case <-caller.Done():
			for _, j := range pending() {
				items[j].complete(nil, caller.Err())
			}
			return
		}
		arrived(r.index, r.took, r.err)
		open := pending()
		if r.err != nil {
			for _, j := range open {
				states[j].unreachable = append(states[j].unreachable, r.index)
			}
			continue
		}
		admit(r, open)

		// Everything that reached t+1 held shares on this arrival is combined
		// and checked together.
		var ready []core.BatchEntry
		var readyAt []int
		quorumAt := time.Since(fanOutStart)
		for _, j := range open {
			st := states[j]
			if len(st.held) < need {
				continue
			}
			parts := make([]*core.PartialSignature, len(st.held))
			for p, h := range st.held {
				parts[p] = h.ps
			}
			sig, err := core.CombinePreverified(parts, group.T)
			if err != nil {
				settle(j, nil, err)
				continue
			}
			ready = append(ready, core.BatchEntry{Msg: items[j].msg, Sig: sig})
			readyAt = append(readyAt, j)
		}
		var failed []int
		for q, ok := range core.CheckSignatures(group.PK, ready) {
			j, st := readyAt[q], states[readyAt[q]]
			if !ok {
				failed = append(failed, j)
				continue
			}
			c.met.quorumSeconds.Observe(quorumAt.Seconds())
			signers := make([]int, len(st.held))
			fastest := st.held[0].took
			for p, h := range st.held {
				signers[p] = h.ps.Index
				fastest = min(fastest, h.took)
			}
			if !paced {
				paced = true
				tn.observePace(len(items), fastest)
			}
			c.cache.add(items[j].key, ready[q].Sig, signers)
			settle(j, &signOutcome{sig: ready[q].Sig, signers: signers, invalid: st.invalid, unreachable: st.unreachable}, nil)
		}
		if len(failed) == 0 {
			continue
		}
		c.met.combineFallbacks.Add(uint64(len(failed)))
		shareVerifyAll(failed)
		for _, j := range failed {
			if len(states[j].held) == need {
				// Every share verifies and their interpolation does not: not
				// a Byzantine signer, and not something to wait out.
				settle(j, nil, fmt.Errorf("service: combined signature failed verification"))
			}
		}
	}
	// Every item settled, but a suspect asked as a probe may still be out:
	// its answer is what convicts it again or clears it. A detached
	// goroutine awaits it, so the callers do not, for up to one more hedge
	// delay from now — never when there is no pace yet, and never for a
	// lagging or down probe. The delay runs from the settling, not from the
	// fan-out's start: a stall that held up the quorum holds up the
	// suspect's answer too.
	outstanding := func() bool {
		return slices.ContainsFunc(first, func(i int) bool { return probed[i] && waiting[i] })
	}
	if remaining == 0 && delay > 0 && outstanding() {
		judgingLate = true
		go func() {
			defer cancel() // release the laggards
			defer func() {
				if r := recover(); r != nil {
					c.log.Error("judging a late probe panicked", "gid", tn.id, "panic", r)
				}
			}()
			// The settled states went out with their outcomes; the late
			// answers are held in fresh ones.
			all := make([]int, len(states))
			for j := range states {
				states[j] = &msgState{done: true}
				all[j] = j
			}
			deadline := time.NewTimer(delay)
			defer deadline.Stop()
			for outstanding() {
				select {
				case r := <-results:
					arrived(r.index, r.took, r.err)
					if probed[r.index] && r.err == nil {
						admit(r, all)
					}
				case <-deadline.C:
					return
				}
			}
		}()
		return
	}
	cancel() // release the laggards
	// Valid counts verified shares only, and every Byzantine answer that
	// arrived is convicted before the accounting is read.
	open := pending()
	shareVerifyAll(open)
	for _, j := range open {
		st := states[j]
		items[j].complete(nil, &QuorumError{
			Need: need, Valid: len(st.held),
			Invalid: st.invalid, Unreachable: st.unreachable,
		})
	}
}

// fetchPartials is the only signer round-trip: it asks signer index for
// its shares on msgs, bounded by SignerTimeout. body is the request fanOut
// marshalled once for all signers; the route follows the same size rule —
// one message is POST {prefix}/sign answered by a PartialResponse, several
// are POST {prefix}/sign-batch answered by a PartialBatchResponse. parts[j]
// is nil when that one partial failed to decode (the caller treats it as
// Byzantine). Any error makes the signer unreachable for this whole
// fan-out: a signer that refuses the batch (no endpoint, a smaller
// -max-batch, a tighter body limit) is an errored backend, not retried per
// message — robustness only ever needed t+1 answers.
func (tn *coordTenant) fetchPartials(ctx context.Context, index int, msgs [][]byte, body []byte) (parts []*core.PartialSignature, err error) {
	c := tn.c
	start := time.Now()
	defer func() {
		// A quorum early-exit cancels the laggards; that is not the
		// backend's failure, so neither the error counter here nor the
		// flood guard below sees it. Every other failure counts once.
		if err != nil && ctx.Err() == nil {
			c.met.backendErrors.WithLabelValues(signerIndexLabel(index)).Inc()
		}
	}()
	rctx, cancel := context.WithTimeout(ctx, c.cfg.SignerTimeout)
	defer cancel()
	route := "/sign-batch"
	if len(msgs) == 1 {
		route = "/sign"
	}
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, c.urls[index-1]+tn.prefix()+route, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	setRequestIDHeader(req, ctx)
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			c.markBackendDown(index, err)
		}
		return nil, err
	}
	c.markBackendUp(index)
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxRequestBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("signer %d: status %d: %s", index, resp.StatusCode, bytes.TrimSpace(raw))
	}
	c.met.backendSeconds.WithLabelValues(signerIndexLabel(index)).Observe(time.Since(start).Seconds())
	var encoded [][]byte
	if len(msgs) == 1 {
		var pr PartialResponse
		err = json.Unmarshal(raw, &pr)
		encoded = [][]byte{pr.Partial}
	} else {
		var pr PartialBatchResponse
		err = json.Unmarshal(raw, &pr)
		encoded = pr.Partials
	}
	if err != nil {
		return nil, fmt.Errorf("signer %d: %w", index, err)
	}
	if len(encoded) != len(msgs) {
		return nil, fmt.Errorf("signer %d: %d partials for a %d-message batch", index, len(encoded), len(msgs))
	}
	parts = make([]*core.PartialSignature, len(msgs))
	for j, enc := range encoded {
		if ps, err := core.UnmarshalPartialSignature(enc); err == nil {
			parts[j] = ps
		}
	}
	return parts, nil
}
