package service

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// fanState is the policy of one sign fan-out, the coordinator's one sign
// pipeline; a single message is a batch of one. It signs every item's
// message with at most ONE request per signer: a quorum first
// (coordTenant.wave: t+1 healthy signers plus every suspect, lagging and
// down signer as probes), the reserve only when an open message falls
// short of t+1 — an error or a conviction — or the hedge fires at 4× the
// tenant's pace for this batch size. It combines optimistically: shares
// that decode under their sender's index are held unverified, t+1 of them
// are interpolated, and only a signature core.CheckSignatures accepts is
// cached and completes its item. Share-Verify runs to convict, not to
// acquit: on the shares of a combined signature that failed, and on a
// suspect's answers as they arrive — also after every item settled, from
// a probe the first wave asked. Items that never reach quorum fail with a
// QuorumError whose counts cover verified shares only.
//
// It is pure policy — events in (answer, hedge), signers to ask out — and
// starts no goroutine, reads no clock and arms no timer: fanOut does.
type fanState struct {
	tn    *coordTenant
	group *core.Group // captured once: one fan-out sees one set of keys
	items []*batchItem
	msgs  []msgState // msgs[j] tracks items[j]
	need  int
	delay time.Duration // the hedge; 0 before the class's first signature
	open  int           // items not yet settled

	reserve  []int // healthy signers not asked yet, in rotation order
	inflight int
	// waiting[i]: signer i, asked in the first wave, has not answered.
	// probed[i]: signer i was a suspect, neither lagging nor down, when
	// asked; its answer is judged even after every item settled.
	waiting, probed []bool
	paced           bool
}

// answer is one signer's reply: parts[j] answers items[j] (nil when it did
// not decode); took is its round trip, at its arrival since the start.
type answer struct {
	index    int
	parts    []*core.PartialSignature
	took, at time.Duration
	err      error
}

// heldShare is a share a message holds: decoded under its sender's index
// and not convicted; verified once Share-Verify passed it.
type heldShare struct {
	ps       *core.PartialSignature
	verified bool
	took     time.Duration
}

// msgState tracks one message of a fan-out.
type msgState struct {
	held        []heldShare // in arrival order; never more than t+1 while open
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

// newFanState opens a fan-out of items and returns its first wave.
func newFanState(tn *coordTenant, group *core.Group, items []*batchItem) (f *fanState, first []int) {
	f = &fanState{
		tn: tn, group: group, items: items, msgs: make([]msgState, len(items)),
		need: group.T + 1, delay: tn.hedgeDelay(len(items)), open: len(items),
		waiting: make([]bool, group.N+1), probed: make([]bool, group.N+1),
	}
	for j := range f.msgs {
		f.msgs[j].held = make([]heldShare, 0, f.need)
	}
	first, f.reserve = tn.wave(group.N, f.need, f.delay == 0)
	for _, i := range first {
		f.waiting[i] = true
		f.probed[i] = tn.suspect[i-1].Load() && !tn.lagging[i-1].Load() && !tn.c.backendDown[i-1].Load()
	}
	f.inflight = len(first)
	return f, first
}

// answer books signer a.index's answer and returns the signers to ask
// next. An error or an answer slower than the hedge leaves the rotation;
// an answer in time rejoins it. Once every item is settled only a probe's
// answer counts: the others' requests were canceled at settle.
func (f *fanState) answer(a answer) []int {
	i := a.index
	if f.open == 0 && !f.probed[i] {
		return nil
	}
	f.inflight--
	f.waiting[i] = false
	f.tn.lagging[i-1].Store(a.err != nil || (f.delay > 0 && a.took > f.delay))
	if a.err != nil {
		for j := range f.msgs {
			if st := &f.msgs[j]; !st.done {
				st.unreachable = append(st.unreachable, i)
			}
		}
	} else {
		f.admit(a)
		f.combine(a.at)
	}
	return f.release()
}

// hedge is the first wave running late: whoever in it is still out missed
// the hedge and is marked now, as its answer may never be read, and the
// whole reserve is asked.
func (f *fanState) hedge() []int {
	for i, w := range f.waiting {
		if w {
			f.tn.lagging[i-1].Store(true)
		}
	}
	if len(f.reserve) == 0 {
		return nil
	}
	f.tn.c.met.fanoutHedges.Inc()
	return f.take(len(f.reserve))
}

// judging reports whether a probe is still out once every item settled;
// never before the tenant has a pace.
func (f *fanState) judging() bool {
	for i, p := range f.probed {
		if p && f.waiting[i] {
			return f.open == 0 && f.delay > 0
		}
	}
	return false
}

// admit takes answer a's parts: a part that does not decode under its
// sender's index is a conviction, any other is held. A non-suspect's parts
// count on the open messages only; a suspect's whole answer is judged, on
// settled messages too, Share-Verified at once, and cleared if it is valid
// in full.
func (f *fanState) admit(a answer) {
	i := a.index
	suspect := f.tn.suspect[i-1].Load()
	wellFormed := true
	var judged []int
	for j, ps := range a.parts {
		st := &f.msgs[j]
		switch {
		case st.done && !suspect:
		case ps == nil || ps.Index != i:
			// Undecodable bytes or a replayed share under another index:
			// Byzantine either way.
			f.convict(st, i)
			wellFormed = false
		default:
			st.held = append(st.held, heldShare{ps: ps, took: a.took})
			if suspect {
				judged = append(judged, j)
			}
		}
	}
	if suspect && f.shareVerify(i, judged) && wellFormed {
		f.tn.clearSuspect(i)
	}
}

// combine interpolates every open message that holds t+1 shares and checks
// the signatures together — Verify for one, one BatchVerify for several —
// settling the ones that verify. A failed one sends its unchecked shares
// through CheckShares (one call per signer), and waits for the next
// arrival with the bad ones evicted.
func (f *fanState) combine(at time.Duration) {
	c := f.tn.c
	var ready []core.BatchEntry
	var readyAt []int
	for j := range f.msgs {
		st := &f.msgs[j]
		if st.done || len(st.held) < f.need {
			continue
		}
		parts := make([]*core.PartialSignature, len(st.held))
		for p, h := range st.held {
			parts[p] = h.ps
		}
		sig, err := f.group.CombinePreverified(parts)
		if err != nil {
			f.settle(j, nil, err)
			continue
		}
		ready = append(ready, core.BatchEntry{Msg: f.items[j].msg, Sig: sig})
		readyAt = append(readyAt, j)
	}
	var failed []int
	for q, ok := range core.CheckSignatures(f.group.PK, ready) {
		if !ok {
			failed = append(failed, readyAt[q])
			continue
		}
		c.met.quorumSeconds.Observe(at.Seconds())
		f.accept(readyAt[q], ready[q].Sig)
	}
	if len(failed) == 0 {
		return
	}
	c.met.combineFallbacks.Add(uint64(len(failed)))
	f.shareVerifyAll(failed)
	for _, j := range failed {
		if len(f.msgs[j].held) == f.need {
			// Every share verifies and their interpolation does not: not
			// a Byzantine signer, and not something to wait out.
			f.settle(j, nil, fmt.Errorf("service: combined signature failed verification"))
		}
	}
}

// accept settles message j with its verified signature, feeds the pace
// with the first one's fastest share and caches the signature — only while the tenant still
// serves this key: installGroup swaps a rotated group in before it drops
// the tenant's entries, so an entry added before the check below is
// dropped either by the rotation or here.
func (f *fanState) accept(j int, sig *core.Signature) {
	c, st := f.tn.c, &f.msgs[j]
	signers := make([]int, len(st.held))
	fastest := st.held[0].took
	for p, h := range st.held {
		signers[p] = h.ps.Index
		fastest = min(fastest, h.took)
	}
	if !f.paced {
		f.paced = true
		f.tn.observePace(len(f.items), fastest)
	}
	enc := sig.Marshal()
	c.cache.add(f.items[j].key, enc, signers)
	if g := f.tn.group.Load(); g != f.group && (g == nil || !g.PK.Equal(f.group.PK)) {
		c.cache.dropGroup(f.tn.id)
	}
	f.settle(j, &signOutcome{sig: sig, enc: enc, signers: signers, invalid: st.invalid, unreachable: st.unreachable}, nil)
}

// release asks as many reserve signers as the open message furthest from
// t+1 lacks beyond what it holds and what is in flight. With nothing in
// flight and nobody left to ask, the open messages fail: valid counts
// verified shares only, and every Byzantine answer that arrived is
// convicted before the accounting is read.
func (f *fanState) release() []int {
	short := 0
	for j := range f.msgs {
		if st := &f.msgs[j]; !st.done {
			short = max(short, f.need-len(st.held)-f.inflight)
		}
	}
	if ask := f.take(short); f.inflight > 0 || f.open == 0 {
		return ask
	}
	var open []int
	for j := range f.msgs {
		if !f.msgs[j].done {
			open = append(open, j)
		}
	}
	f.shareVerifyAll(open)
	for _, j := range open {
		st := &f.msgs[j]
		f.settle(j, nil, &QuorumError{Need: f.need, Valid: len(st.held), Invalid: st.invalid, Unreachable: st.unreachable})
	}
	return nil
}

// take asks up to k reserve signers, in rotation order.
func (f *fanState) take(k int) []int {
	k = max(0, min(k, len(f.reserve)))
	ask := f.reserve[:k]
	f.reserve = f.reserve[k:]
	f.inflight += k
	return ask
}

// settle completes item j.
func (f *fanState) settle(j int, out *signOutcome, err error) {
	f.msgs[j].done = true
	f.open--
	f.items[j].complete(out, err)
}

// convict books signer i's bad share of one message. A settled message's
// accounting went out with its outcome and is left as it is.
func (f *fanState) convict(st *msgState, i int) {
	f.tn.c.met.shareVerifyFailures.WithLabelValues(signerIndexLabel(i)).Inc()
	if !st.done {
		st.invalid = append(st.invalid, i)
	}
	f.tn.markSuspect(i)
}

// shareVerify puts signer i's not-yet-checked held shares of messages js
// through one CheckShares call (one VK, so the batch keeps its 4-slot
// shape), evicting and convicting the bad ones. It reports whether every
// share passed.
func (f *fanState) shareVerify(i int, js []int) bool {
	var entries []core.ShareBatchEntry
	var at []*msgState
	for _, j := range js {
		st := &f.msgs[j]
		if p := st.unverifiedFrom(i); p >= 0 {
			entries = append(entries, core.ShareBatchEntry{Msg: f.items[j].msg, VK: f.group.VKs[i], PS: st.held[p].ps})
			at = append(at, st)
		}
	}
	if len(entries) == 0 {
		return true
	}
	f.tn.c.met.shareChecks.Add(uint64(len(entries)))
	clean := true
	for q, ok := range core.CheckShares(f.group.PK, entries) {
		st := at[q]
		p := st.unverifiedFrom(i)
		if ok {
			st.held[p].verified = true
			continue
		}
		st.held = append(st.held[:p], st.held[p+1:]...)
		f.convict(st, i)
		clean = false
	}
	return clean
}

func (f *fanState) shareVerifyAll(js []int) {
	for i := 1; i <= f.group.N; i++ {
		f.shareVerify(i, js)
	}
}
