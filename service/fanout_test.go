package service

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// fanReply is what a scripted signer answers.
type fanReply int

const (
	honest  fanReply = iota
	failed           // an error: down, timed out, refused
	stale            // its own share of another message, as sign_byzantine replays
	foreign          // another signer's share: the wrong index
	garbled          // bytes that do not decode
)

// fanPace is the pace a scripted tenant has; its hedge is hedgeFactor ×.
const fanPace = time.Millisecond

// fanRig runs fanStates by hand. Every answer is built from shares signed
// ahead of time, so a script or a fuzz input decides each arrival, the
// hedge and every round trip: no HTTP, no goroutine, no clock.
type fanRig struct {
	fix  *fixture
	c    *Coordinator
	msgs [][]byte
	// parts[i][j] is signer i's share of msgs[j]; parts[i][len(msgs)] its
	// share of a message no fan-out signs.
	parts [][]*core.PartialSignature
}

var (
	fanPartsOnce sync.Once
	fanMsgs      [][]byte
	fanParts     [][]*core.PartialSignature
	fanPartsErr  error
)

func newFanRig(tb testing.TB) *fanRig {
	tb.Helper()
	fix := testFixture(tb)
	fanPartsOnce.Do(func() {
		for j := range 9 {
			fanMsgs = append(fanMsgs, []byte(fmt.Sprintf("fan-out message %d", j)))
		}
		fanParts = make([][]*core.PartialSignature, fixN+1)
		for i := 1; i <= fixN; i++ {
			if fanParts[i], fanPartsErr = fix.members[i].SignBatch(fanMsgs); fanPartsErr != nil {
				return
			}
		}
	})
	if fanPartsErr != nil {
		tb.Fatal(fanPartsErr)
	}
	urls := make([]string, fixN)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://signer-%d.invalid", i+1)
	}
	c, err := NewCoordinator(fix.group, urls, CoordinatorConfig{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		tb.Fatal(err)
	}
	return &fanRig{fix: fix, c: c, msgs: fanMsgs[:8], parts: fanParts}
}

// tenant is a fresh tenant over the fixture group: with paced set it has
// a pace for every batch size, so its first wave is t+1 signers from
// rotation 0 plus the suspects.
func (r *fanRig) tenant(paced bool, suspects ...int) *coordTenant {
	tn := &coordTenant{c: r.c, id: DefaultGroupID, suspect: make([]atomic.Bool, fixN), lagging: make([]atomic.Bool, fixN)}
	tn.group.Store(r.fix.group)
	if paced {
		for k := range tn.pace {
			tn.pace[k].Store(int64(fanPace))
		}
	}
	for _, i := range suspects {
		tn.suspect[i-1].Store(true)
	}
	return tn
}

func (r *fanRig) items(tn *coordTenant, k int) []*batchItem {
	items := make([]*batchItem, k)
	for j := range items {
		items[j] = &batchItem{msg: r.msgs[j], key: sigKey(tn.id, r.msgs[j]), done: make(chan struct{})}
	}
	return items
}

// answer is signer i's scripted answer on k messages, taking took.
func (r *fanRig) answer(i int, reply fanReply, k int, took time.Duration) answer {
	a := answer{index: i, took: took}
	if reply == failed {
		a.err = errors.New("scripted signer error")
		return a
	}
	a.parts = make([]*core.PartialSignature, k)
	for j := range a.parts {
		switch reply {
		case honest:
			a.parts[j] = r.parts[i][j]
		case stale:
			a.parts[j] = r.parts[i][len(r.msgs)]
		case foreign:
			a.parts[j] = r.parts[i%fixN+1][j]
		}
	}
	return a
}

// fanCounters is the coordinator's Byzantine and hedge accounting.
type fanCounters struct{ checks, fallbacks, failures, hedges uint64 }

func (r *fanRig) counters() fanCounters {
	m := r.c.met
	n := fanCounters{checks: m.shareChecks.Value(), fallbacks: m.combineFallbacks.Value(), hedges: m.fanoutHedges.Value()}
	for i := 1; i <= fixN; i++ {
		n.failures += r.failures(i)
	}
	return n
}

func (r *fanRig) failures(i int) uint64 {
	return r.c.met.shareVerifyFailures.WithLabelValues(signerIndexLabel(i)).Value()
}

func (c fanCounters) minus(o fanCounters) fanCounters {
	return fanCounters{c.checks - o.checks, c.fallbacks - o.fallbacks, c.failures - o.failures, c.hedges - o.hedges}
}

// flagged lists the signers whose flag is set.
func flagged(flags []atomic.Bool) []int {
	var on []int
	for i := range flags {
		if flags[i].Load() {
			on = append(on, i+1)
		}
	}
	return on
}

// fanStep is one scripted event: signer's answer, or the hedge when signer
// is 0. slow puts the answer past the hedge. asks is what the step must ask
// next, and judging what fanState.judging must say after it.
type fanStep struct {
	signer  int
	reply   fanReply
	slow    bool
	asks    []int
	judging bool
}

// fanWant is every item's outcome: a signature over signers, or a
// QuorumError with valid verified shares when quorum is set.
type fanWant struct {
	signers, invalid, unreachable []int
	quorum                        bool
	valid                         int
}

// TestFanStateArrivalOrders scripts arrival orders against the fan-out
// policy: which t+1 shares it holds, whom it convicts, when it asks the
// reserve, whom it marks lagging, and how it judges a probe that answers
// after every item settled. n=7, t=3; a paced tenant's first wave is
// signers 1–4 (plus its suspects), its reserve the rest.
func TestFanStateArrivalOrders(t *testing.T) {
	r := newFanRig(t)
	for _, tc := range []struct {
		name             string
		k                int
		paced            bool
		suspects         []int
		first            []int
		steps            []fanStep
		want             fanWant
		moved            fanCounters
		suspect, lagging []int
	}{{
		name: "honest wave settles on the t+1st answer", k: 1, paced: true,
		first: []int{1, 2, 3, 4},
		steps: []fanStep{{signer: 1}, {signer: 2}, {signer: 3}, {signer: 4}},
		want:  fanWant{signers: []int{1, 2, 3, 4}},
	}, {
		name: "a wave error asks one reserve signer", k: 1, paced: true,
		first:   []int{1, 2, 3, 4},
		steps:   []fanStep{{signer: 1, reply: failed, asks: []int{5}}, {signer: 2}, {signer: 3}, {signer: 4}, {signer: 5}},
		want:    fanWant{signers: []int{2, 3, 4, 5}, unreachable: []int{1}},
		lagging: []int{1},
	}, {
		name: "the hedge asks the whole reserve once and marks who is still out", k: 1, paced: true,
		first: []int{1, 2, 3, 4},
		steps: []fanStep{{signer: 1}, {signer: 2}, {signer: 3}, {asks: []int{5, 6, 7}}, {signer: 5},
			// The straggler's request was canceled at settle; its answer
			// is nobody's business any more.
			{signer: 4, reply: failed}},
		want:    fanWant{signers: []int{1, 2, 3, 5}},
		moved:   fanCounters{hedges: 1},
		lagging: []int{4},
	}, {
		name: "an answer slower than the hedge counts but is lagging", k: 1, paced: true,
		first:   []int{1, 2, 3, 4},
		steps:   []fanStep{{signer: 1, slow: true}, {signer: 2}, {signer: 3}, {signer: 4}},
		want:    fanWant{signers: []int{1, 2, 3, 4}},
		lagging: []int{1},
	}, {
		name: "answers after settle from signers let go are not booked", k: 1,
		first: []int{1, 2, 3, 4, 5, 6, 7},
		steps: []fanStep{{signer: 1}, {signer: 2}, {signer: 3}, {signer: 4}, {signer: 5, reply: failed}, {signer: 6, reply: stale}},
		want:  fanWant{signers: []int{1, 2, 3, 4}},
	}, {
		name: "a Byzantine share among the first t+1 is convicted by the fallback", k: 1,
		first:   []int{1, 2, 3, 4, 5, 6, 7},
		steps:   []fanStep{{signer: 1, reply: stale}, {signer: 2}, {signer: 3}, {signer: 4}, {signer: 5}},
		want:    fanWant{signers: []int{2, 3, 4, 5}, invalid: []int{1}},
		moved:   fanCounters{checks: fixT + 1, fallbacks: 1, failures: 1},
		suspect: []int{1},
	}, {
		name: "a wrong index and undecodable bytes convict without a check", k: 1,
		first:   []int{1, 2, 3, 4, 5, 6, 7},
		steps:   []fanStep{{signer: 1, reply: foreign}, {signer: 2, reply: garbled}, {signer: 3}, {signer: 4}, {signer: 5}, {signer: 6}},
		want:    fanWant{signers: []int{3, 4, 5, 6}, invalid: []int{1, 2}},
		moved:   fanCounters{failures: 2},
		suspect: []int{1, 2},
	}, {
		name: "a suspect's share is checked on arrival", k: 1, paced: true, suspects: []int{1},
		first:   []int{1, 2, 3, 4, 5},
		steps:   []fanStep{{signer: 1, reply: stale}, {signer: 2}, {signer: 3}, {signer: 4}, {signer: 5}},
		want:    fanWant{signers: []int{2, 3, 4, 5}, invalid: []int{1}},
		moved:   fanCounters{checks: 1, failures: 1},
		suspect: []int{1},
	}, {
		name: "a suspect's valid answer clears it", k: 1, paced: true, suspects: []int{1},
		first: []int{1, 2, 3, 4, 5},
		steps: []fanStep{{signer: 1}, {signer: 2}, {signer: 3}, {signer: 4}},
		want:  fanWant{signers: []int{1, 2, 3, 4}},
		moved: fanCounters{checks: 1},
	}, {
		// Three hedge delays after settle, as a real probe may be.
		name: "a probe answering after settle is judged, exactly once", k: 1, paced: true, suspects: []int{1},
		first:   []int{1, 2, 3, 4, 5},
		steps:   []fanStep{{signer: 2}, {signer: 3}, {signer: 4}, {signer: 5, judging: true}, {signer: 1, reply: stale, slow: true}},
		want:    fanWant{signers: []int{2, 3, 4, 5}},
		moved:   fanCounters{checks: 1, failures: 1},
		suspect: []int{1},
		lagging: []int{1},
	}, {
		name: "a probe's valid answer after settle clears it", k: 1, paced: true, suspects: []int{1},
		first:   []int{1, 2, 3, 4, 5},
		steps:   []fanStep{{signer: 2}, {signer: 3}, {signer: 4}, {signer: 5, judging: true}, {signer: 1, slow: true}},
		want:    fanWant{signers: []int{2, 3, 4, 5}},
		moved:   fanCounters{checks: 1},
		lagging: []int{1},
	}, {
		name: "without a pace nobody waits for a late probe", k: 1, suspects: []int{1},
		first:   []int{1, 2, 3, 4, 5, 6, 7},
		steps:   []fanStep{{signer: 2}, {signer: 3}, {signer: 4}, {signer: 5}},
		want:    fanWant{signers: []int{2, 3, 4, 5}},
		suspect: []int{1},
	}, {
		name: "short of quorum the accounting counts verified shares only", k: 1,
		first: []int{1, 2, 3, 4, 5, 6, 7},
		steps: []fanStep{{signer: 1, reply: stale}, {signer: 2, reply: failed}, {signer: 3, reply: failed},
			{signer: 4, reply: failed}, {signer: 5}, {signer: 6}, {signer: 7}},
		want:    fanWant{quorum: true, valid: fixT, invalid: []int{1}, unreachable: []int{2, 3, 4}},
		moved:   fanCounters{checks: fixT + 1, fallbacks: 1, failures: 1},
		suspect: []int{1},
		lagging: []int{2, 3, 4},
	}, {
		name: "a batch's failed combines fall back together", k: 3,
		first: []int{1, 2, 3, 4, 5, 6, 7},
		steps: []fanStep{{signer: 1, reply: stale}, {signer: 2}, {signer: 3}, {signer: 4}, {signer: 5}},
		want:  fanWant{signers: []int{2, 3, 4, 5}, invalid: []int{1}},
		// One CheckShares per signer over the three messages.
		moved:   fanCounters{checks: 3 * (fixT + 1), fallbacks: 3, failures: 3},
		suspect: []int{1},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			tn := r.tenant(tc.paced, tc.suspects...)
			items := r.items(tn, tc.k)
			before := r.counters()
			f, first := newFanState(tn, r.fix.group, items)
			if !slices.Equal(first, tc.first) {
				t.Fatalf("first wave %v, want %v", first, tc.first)
			}
			for n, s := range tc.steps {
				var asks []int
				if s.signer == 0 {
					asks = f.hedge()
				} else {
					took := fanPace
					if s.slow {
						took = 3 * f.delay
					}
					asks = f.answer(r.answer(s.signer, s.reply, tc.k, took))
				}
				if !slices.Equal(asks, s.asks) || f.judging() != s.judging {
					t.Fatalf("step %d %+v: asked %v judging %v, want %v and %v", n, s, asks, f.judging(), s.asks, s.judging)
				}
			}
			for j, it := range items {
				checkOutcome(t, r, j, it, tc.want)
			}
			if got := r.counters().minus(before); got != tc.moved {
				t.Errorf("counters moved by %+v, want %+v", got, tc.moved)
			}
			if got := flagged(tn.suspect); !slices.Equal(got, tc.suspect) {
				t.Errorf("suspects %v, want %v", got, tc.suspect)
			}
			if got := flagged(tn.lagging); !slices.Equal(got, tc.lagging) {
				t.Errorf("lagging %v, want %v", got, tc.lagging)
			}
		})
	}
}

func checkOutcome(t *testing.T, r *fanRig, j int, it *batchItem, want fanWant) {
	t.Helper()
	select {
	case <-it.done:
	default:
		t.Fatalf("item %d not settled", j)
	}
	if want.quorum {
		var qe *QuorumError
		if !errors.As(it.err, &qe) || qe.Valid != want.valid || !slices.Equal(qe.Invalid, want.invalid) || !slices.Equal(qe.Unreachable, want.unreachable) {
			t.Fatalf("item %d: %v, want a QuorumError with %d valid, invalid %v, unreachable %v", j, it.err, want.valid, want.invalid, want.unreachable)
		}
		return
	}
	if it.err != nil {
		t.Fatalf("item %d: %v", j, it.err)
	}
	out := it.out
	if !slices.Equal(out.signers, want.signers) || !slices.Equal(out.invalid, want.invalid) || !slices.Equal(out.unreachable, want.unreachable) {
		t.Fatalf("item %d: signers %v invalid %v unreachable %v, want %v %v %v", j, out.signers, out.invalid, out.unreachable, want.signers, want.invalid, want.unreachable)
	}
	if !r.fix.group.Verify(it.msg, out.sig) {
		t.Fatalf("item %d: the signature does not verify", j)
	}
}

// fuzzBytes reads a fuzz input a byte at a time, zeros once it runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// FuzzFanState drives two fan-outs in a row on one tenant through arrival
// orders the input picks. Up to t signers are Byzantine — a stale replay,
// another signer's share or flipped bytes — any number may err, and the
// input picks each signer's round trip, the order of the answers, where
// the hedge falls and a batch of 1–8 messages. Byzantine signers convicted
// by the first fan-out are suspects in the second. Whatever the order:
// every settled signature verifies, no honest signer is convicted or left
// suspect, and an item fails only with a QuorumError, only when fewer than
// t+1 honest signers answered. The input is read a byte at a time: batch
// size, pace and rotation, one role per signer (a garbling signer takes
// one more byte: which bit it flips), which signers are slow,
// then one pick per event (255 fires the hedge); zeros once it runs out.
// The seed corpus is testdata/fuzz/FuzzFanState.
func FuzzFanState(f *testing.F) {
	r := newFanRig(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		k := 1 + int(in.next()%8)
		flags := in.next()
		tn := r.tenant(flags&1 != 0)
		tn.rotation.Store(uint32(flags >> 1))
		replies := make([]fanReply, fixN+1)
		flip := make([]byte, fixN+1)
		byzantine, honestN := 0, 0
		for i := 1; i <= fixN; i++ {
			switch v := in.next(); v % 8 {
			case 4:
				replies[i] = failed
			case 5, 6, 7:
				if byzantine < fixT {
					byzantine++
					if replies[i] = []fanReply{stale, foreign, garbled}[v%8-5]; replies[i] == garbled {
						flip[i] = in.next()
					}
					continue
				}
				fallthrough
			default:
				replies[i] = honest
				honestN++
			}
		}
		slowMask := in.next()
		for round := range 2 {
			before := make([]uint64, fixN+1)
			for i := 1; i <= fixN; i++ {
				before[i] = r.failures(i)
			}
			items := r.items(tn, k)
			fs, first := newFanState(tn, r.fix.group, items)
			out := append([]int(nil), first...)
			hedged := len(fs.reserve) == 0
			deliver := func(pick byte) {
				p := int(pick) % len(out)
				i := out[p]
				out = append(out[:p], out[p+1:]...)
				took := fanPace
				if slowMask&(1<<i) != 0 {
					took = 10 * fanPace
				}
				a := r.answer(i, replies[i], k, took)
				if replies[i] == garbled {
					a.parts = garble(r.parts[i][:k], flip[i])
				}
				out = append(out, fs.answer(a)...)
			}
			for fs.open > 0 {
				pick := in.next()
				switch {
				case !hedged && pick == 255:
					hedged = true
					out = append(out, fs.hedge()...)
				case len(out) == 0:
					t.Fatalf("round %d: %d items open with nothing in flight", round, fs.open)
				default:
					deliver(pick)
				}
			}
			for fs.judging() {
				deliver(in.next())
			}
			for j, it := range items {
				select {
				case <-it.done:
				default:
					t.Fatalf("round %d: item %d left pending", round, j)
				}
				var qe *QuorumError
				switch {
				case it.err == nil && !r.fix.group.Verify(it.msg, it.out.sig):
					t.Fatalf("round %d: item %d settled with a signature that does not verify", round, j)
				case it.err != nil && !errors.As(it.err, &qe):
					t.Fatalf("round %d: item %d failed with %v", round, j, it.err)
				case it.err != nil && honestN > fixT:
					t.Fatalf("round %d: item %d: %v with %d honest signers", round, j, it.err, honestN)
				}
			}
			for i := 1; i <= fixN; i++ {
				if replies[i] != honest {
					continue
				}
				if r.failures(i) != before[i] || tn.suspect[i-1].Load() {
					t.Fatalf("round %d: honest signer %d convicted (suspect %v)", round, i, tn.suspect[i-1].Load())
				}
			}
		}
	})
}

// garble flips one bit of each share's encoding, chosen by at. Whether the
// bytes then fail to decode, decode under another index or to another
// point, the share is Byzantine.
func garble(parts []*core.PartialSignature, at byte) []*core.PartialSignature {
	out := make([]*core.PartialSignature, len(parts))
	for j, ps := range parts {
		enc := ps.Marshal()
		enc[int(at)%len(enc)] ^= 1 << (at % 8)
		out[j], _ = core.UnmarshalPartialSignature(enc)
	}
	return out
}
