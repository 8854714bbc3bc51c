package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
)

// batcher holds leader items of single-message calls for distinct
// messages so that they share one fan-out round-trip per signer: the first
// item opens a window of BatchWindow, every item arriving before it closes
// (or the batch filling to MaxBatch or the byte budget) joins, and the
// whole batch goes through one fanOut — a single request to each signer.
// It decides only when items leave: which caller leads which message is
// the flight registry's business, so every item here is a distinct
// message in flight.
type batcher struct {
	tn     *coordTenant
	window time.Duration
	max    int

	mu  sync.Mutex
	cur *formingBatch // nil when no batch is collecting
}

// formingBatch is a batch still inside its collection window.
type formingBatch struct {
	items []*batchItem
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

func newBatcher(tn *coordTenant, window time.Duration, max int) *batcher {
	return &batcher{tn: tn, window: window, max: max}
}

// join adds a leader item to the forming batch, opening a new window when
// none is collecting and dispatching the batch early when it fills — by
// message count or by the encoded-bytes budget. The batch runs detached
// from every caller: it serves them all, and its lifetime is bounded by
// the per-signer timeouts, so a caller hanging up only stops its own wait.
func (b *batcher) join(it *batchItem) {
	est := estEncodedBytes(len(it.msg))
	b.mu.Lock()
	if b.cur != nil && b.cur.bytes+est > batchBytesBudget {
		// This message would push the batch body past what the signers
		// accept: send the current batch on its way and start a fresh
		// one. (A single oversized message forms a batch of one, which
		// fails exactly as it would unbatched.)
		full := b.cur
		b.cur = nil
		go b.send(full.items)
	}
	if b.cur == nil {
		fb := &formingBatch{}
		b.cur = fb
		time.AfterFunc(b.window, func() { b.dispatch(fb) })
	}
	fb := b.cur
	fb.items = append(fb.items, it)
	fb.bytes += est
	if len(fb.items) >= b.max {
		b.cur = nil // full: dispatch now; the window timer becomes a no-op
		go b.send(fb.items)
	}
	b.mu.Unlock()
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
	b.send(fb.items)
}

// send dispatches a closed window batch. The fan-out runs detached from
// any single caller's context, so it carries a fresh request id of its
// own — the per-caller ids are answered by the callers' own handlers;
// the batch's id is what the signers' logs see for the merged trip. A
// panic in it has failed every item already; on this goroutine of its
// own it is logged, not left to kill the process.
func (b *batcher) send(items []*batchItem) {
	defer func() {
		if r := recover(); r != nil {
			b.tn.c.log.Error("window fan-out panicked", "gid", b.tn.id, "panic", r)
		}
	}()
	b.tn.c.met.windowOccupancy.Observe(float64(len(items)))
	//tsiglint:ignore ctxscope a window batch serves many callers and must outlive each of them; a caller hanging up stops only its own wait on its item
	b.tn.fanOut(WithRequestID(context.Background(), newRequestID()), items)
}

// fanOut is fanState's I/O shell: a goroutine per signer asked, the hedge
// timer and cancellation, feeding the policy one event at a time. Every
// item is completed before it returns, all on this one goroutine. A
// probed suspect still out at settle is awaited by a detached goroutine,
// for as long as its request may take (its SignerTimeout), and its answer
// goes to the same fanState.answer as an on-time one.
func (tn *coordTenant) fanOut(ctx context.Context, items []*batchItem) {
	start := time.Now()
	// A panic must not strand the batch: an item whose done channel never
	// closes wedges its flight key, and every caller waiting on it,
	// forever. Each item fails, and the panic goes on up.
	defer func() {
		if r := recover(); r != nil {
			failPending(items, fmt.Errorf("%w: %v", errFlightPanic, r))
			panic(r)
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
	group := tn.group.Load()
	if group == nil {
		err = fmt.Errorf("service: coordinator holds no group yet: %w", ErrNoKeyMaterial)
	}
	if err != nil {
		failPending(items, err)
		return
	}
	// The signer requests do not die with the caller: a probed suspect's
	// may outlive it (the end of fanOut), so the probes are asked on a
	// context of their own. The caller hanging up ends the fan-out, and
	// that cancels both; settling every item cancels ctx, the laggards'.
	caller := ctx
	ctx, cancel := context.WithCancel(context.WithoutCancel(caller))
	defer cancel()
	probeCtx, cancelProbes := context.WithCancel(context.WithoutCancel(caller))
	judgingLate := false // the late judge owns cancelProbes
	defer func() {
		if !judgingLate {
			cancelProbes()
		}
	}()
	f, first := newFanState(tn, group, items)
	results := make(chan answer, group.N) // one request per signer at most
	ask := func(signers []int) {
		for _, i := range signers {
			rctx := ctx
			if f.probed[i] {
				rctx = probeCtx
			}
			go func() {
				asked := time.Now()
				parts, err := tn.fetchPartials(rctx, i, msgs, body)
				results <- answer{index: i, parts: parts, took: time.Since(asked), err: err}
			}()
		}
	}
	ask(first)
	var hedge <-chan time.Time
	if len(f.reserve) > 0 {
		timer := time.NewTimer(f.delay)
		defer timer.Stop()
		hedge = timer.C
	}
	for f.open > 0 {
		select {
		case a := <-results:
			a.at = time.Since(start)
			ask(f.answer(a))
		case <-hedge:
			hedge = nil
			ask(f.hedge())
		case <-caller.Done():
			failPending(items, caller.Err())
			return
		}
	}
	cancel()
	if judgingLate = f.judging(); !judgingLate {
		return
	}
	go func() {
		settled := time.Now()
		defer cancelProbes()
		defer func() {
			if r := recover(); r != nil {
				tn.c.log.Error("judging a late probe panicked", "gid", tn.id, "panic", r)
			}
		}()
		for f.judging() {
			f.answer(<-results)
		}
		tn.c.log.Debug("late probes judged", "gid", tn.id, "after", time.Since(settled))
	}()
}

// failPending completes every item still pending with err. fanOut makes
// every completion on one goroutine, so probing done cannot race a
// concurrent complete.
func failPending(items []*batchItem, err error) {
	for _, it := range items {
		select {
		case <-it.done:
		default:
			it.complete(nil, err)
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
	raw, err := readBody(resp.Body, resp.ContentLength, maxRequestBytes)
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
