package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
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

// msgState tracks one in-flight message of a fan-out.
type msgState struct {
	valid       []*core.PartialSignature
	signers     []int
	invalid     []int
	unreachable []int
	done        bool
}

// fanOut is the coordinator's one sign pipeline; a single message is a
// batch of one. It signs every item's message with ONE request per signer,
// checks each signer's returned shares with one core.CheckShares call (a
// plain Share-Verify for one share; for k, one batched multi-pairing,
// bisected on failure so a Byzantine answer costs its signer only the bad
// shares), and the moment a message holds t+1 valid shares combines them,
// verifies the result, caches it and completes the item. Items that never
// reach quorum are completed with a QuorumError; the laggard signer
// requests are canceled as soon as every message is settled. Every item
// is completed before fanOut returns.
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
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

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
		err   error
	}
	results := make(chan signerResult, group.N)
	for i := 1; i <= group.N; i++ {
		go func(i int) {
			parts, err := tn.fetchPartials(ctx, i, msgs, body)
			results <- signerResult{index: i, parts: parts, err: err}
		}(i)
	}

	need := group.T + 1
	states := make([]*msgState, len(items))
	for j := range states {
		states[j] = &msgState{valid: make([]*core.PartialSignature, 0, need)}
	}
	remaining := len(items)
	for received := 0; received < group.N && remaining > 0; received++ {
		var r signerResult
		select {
		case r = <-results:
		case <-ctx.Done():
			for j, st := range states {
				if !st.done {
					items[j].complete(nil, ctx.Err())
				}
			}
			return
		}
		if r.err != nil {
			for _, st := range states {
				if !st.done {
					st.unreachable = append(st.unreachable, r.index)
				}
			}
			continue
		}
		// One check covers every still-pending message this signer
		// answered; completed messages skip verification entirely.
		entries := make([]core.ShareBatchEntry, 0, remaining)
		idxs := make([]int, 0, remaining)
		for j, st := range states {
			if st.done {
				continue
			}
			ps := r.parts[j]
			if ps == nil || ps.Index != r.index {
				// Undecodable bytes or a replayed share under another index:
				// Byzantine either way.
				c.met.shareVerifyFailures.WithLabelValues(signerIndexLabel(r.index)).Inc()
				st.invalid = append(st.invalid, r.index)
				continue
			}
			entries = append(entries, core.ShareBatchEntry{Msg: items[j].msg, VK: group.VKs[r.index], PS: ps})
			idxs = append(idxs, j)
		}
		ok := core.CheckShares(group.PK, entries)
		for p, j := range idxs {
			st := states[j]
			if !ok[p] {
				c.met.shareVerifyFailures.WithLabelValues(signerIndexLabel(r.index)).Inc()
				st.invalid = append(st.invalid, r.index)
				continue
			}
			st.valid = append(st.valid, entries[p].PS)
			st.signers = append(st.signers, r.index)
			if len(st.valid) < need {
				continue
			}
			st.done = true
			remaining--
			c.met.quorumSeconds.Observe(time.Since(fanOutStart).Seconds())
			sig, err := core.CombinePreverified(st.valid, group.T)
			// Every share was individually verified, so this cannot fail for
			// an honest group — it is the final safety net before a signature
			// leaves the service or enters the cache.
			if err == nil && !core.Verify(group.PK, items[j].msg, sig) {
				err = fmt.Errorf("service: combined signature failed verification")
			}
			if err != nil {
				items[j].complete(nil, err)
				continue
			}
			out := &signOutcome{sig: sig, signers: st.signers, invalid: st.invalid, unreachable: st.unreachable}
			c.cache.add(items[j].key, sig, st.signers)
			items[j].complete(out, nil)
		}
	}
	cancel() // release the laggards
	for j, st := range states {
		if !st.done {
			items[j].complete(nil, &QuorumError{
				Need: need, Valid: len(st.valid),
				Invalid: st.invalid, Unreachable: st.unreachable,
			})
		}
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
