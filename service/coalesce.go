package service

import (
	"errors"
	"sync"

	"repro/internal/core"
	"repro/service/metrics"
)

// flightGroup is the coordinator's one registry of messages in flight:
// it maps a key to the batchItem being signed for it (the singleflight
// pattern). Because partial signing is deterministic, every caller asking
// for the same message under the same public key gets byte-identical
// output, so one item — and one fan-out to the signers — serves them all,
// whether the callers came through Sign, SignBatch or the window batcher.
type flightGroup struct {
	mu sync.Mutex
	m  map[cacheKey]*batchItem

	// coalesced counts callers that joined an existing item; nil-safe,
	// incremented inside claim, the one choke point.
	coalesced *metrics.Counter
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[cacheKey]*batchItem)}
}

// batchItem is one message being signed. Its leader hands it to a fan-out,
// which completes it exactly once; any number of callers wait on done.
type batchItem struct {
	msg []byte
	key cacheKey
	// pk is the public key the tenant served when the item was claimed: a
	// caller joins the item only under the same key.
	pk     *core.PublicKey
	flight *flightGroup // the registry holding the item; nil outside one
	done   chan struct{}
	out    *signOutcome
	err    error
}

// claim returns the item in flight for key under pk for the caller to
// wait on; otherwise it registers a fresh item for msg with the caller as
// its leader (leader=true). A leader MUST hand the item to a fan-out,
// which completes it, or every later call for key under pk waits forever.
func (g *flightGroup) claim(key cacheKey, msg []byte, pk *core.PublicKey) (it *batchItem, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if it, ok := g.m[key]; ok && (it.pk == pk || it.pk.Equal(pk)) {
		g.coalesced.Inc()
		return it, false
	}
	it = &batchItem{msg: msg, key: key, pk: pk, flight: g, done: make(chan struct{})}
	g.m[key] = it
	return it, true
}

// complete publishes the item's outcome and wakes its waiters. The key is
// freed first, so a waiter that retries claims afresh — and only if the
// registry still holds this item: one claimed under a rotated key may have
// taken its place.
func (it *batchItem) complete(out *signOutcome, err error) {
	it.out, it.err = out, err
	if g := it.flight; g != nil {
		g.mu.Lock()
		if g.m[it.key] == it {
			delete(g.m, it.key)
		}
		g.mu.Unlock()
	}
	close(it.done)
}

// errFlightPanic is what every waiter of a fan-out that panicked
// receives, wrapped with the panic value.
var errFlightPanic = errors.New("service: sign fan-out panicked")
