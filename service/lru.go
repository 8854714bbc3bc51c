package service

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/core"
	"repro/service/metrics"
	"repro/service/registry"
)

// sigCache is a bounded LRU cache of combined signatures, keyed by
// (group ID, message digest). The scheme is deterministic — one message
// has exactly one signature under a given key — so cached entries never
// go stale short of a key rotation, which drops the rotated group's
// entries via dropGroup. The group ID is part of the key because the
// cache is shared across tenants: two tenants signing the same message
// have DIFFERENT signatures, and a digest-only key would serve tenant A's
// signature to tenant B.
//
// An entry is one slot of a slab: the signature as its canonical
// encoding (core.SignatureSize bytes, served as stored), the signer
// list, and int32 links in LRU order. An index maps a key's 32-byte id
// to its slot. Slab and index grow with the entries, up to cap, so
// unused capacity costs nothing; a full cache reuses its least recently
// used slot.
type sigCache struct {
	mu         sync.Mutex
	cap        int
	slots      []cacheSlot // every slot holds an entry
	index      map[[32]byte]int32
	head, tail int32 // most and least recently used slot; -1 when empty

	// hits/misses are incremented inside get so every lookup path —
	// Sign, SignBatch, and the window batcher — is counted once. Both
	// are nil-safe (tests build bare caches without metrics).
	hits   *metrics.Counter
	misses *metrics.Counter
}

// cacheSlot is one cached signature.
type cacheSlot struct {
	id         [32]byte
	gid        string // for dropGroup; shares the tenant's string
	sig        [core.SignatureSize]byte
	signers    []uint16 // share indices are 1..65535
	prev, next int32    // neighbours in LRU order; -1 at either end
}

// cacheKey qualifies a message digest with the tenant it was signed
// for. It doubles as the flight-coalescing key, so concurrent identical
// requests coalesce only within one tenant.
type cacheKey struct {
	gid string
	id  [32]byte // SHA-256 of the length-framed gid and SHA-256(msg)
}

// sigKey builds the cache/flight key for one tenant's message, without
// allocating for any registry-valid group ID.
func sigKey(gid string, msg []byte) cacheKey {
	digest := sha256.Sum256(msg)
	var buf [8 + registry.MaxIDLen + sha256.Size]byte
	b := binary.BigEndian.AppendUint64(buf[:0], uint64(len(gid)))
	b = append(b, gid...)
	b = append(b, digest[:]...)
	return cacheKey{gid: gid, id: sha256.Sum256(b)}
}

func newSigCache(capacity int) *sigCache {
	if capacity <= 0 {
		return nil // caching disabled
	}
	// Slots are addressed by int32; 2^31 entries would be ~500 GB.
	return &sigCache{cap: min(capacity, math.MaxInt32), head: -1, tail: -1}
}

// get returns a copy of the cached encoding and signer list of key. The
// signer list is the only allocation: callers surface it in SignReport
// and may append to it.
func (c *sigCache) get(key cacheKey) (sig [core.SignatureSize]byte, signers []int, ok bool) {
	if c == nil {
		return sig, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key.id]
	if !ok {
		c.misses.Inc()
		return sig, nil, false
	}
	c.hits.Inc()
	c.moveToFront(i)
	s := &c.slots[i]
	signers = make([]int, len(s.signers))
	for p, v := range s.signers {
		signers[p] = int(v)
	}
	return s.sig, signers, true
}

// add caches the encoding sig (core.SignatureSize bytes) with its
// signer list; both are copied.
func (c *sigCache) add(key cacheKey, sig []byte, signers []int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key.id]
	switch {
	case ok:
		c.unlink(i)
	case len(c.slots) < c.cap:
		if len(c.slots) == cap(c.slots) {
			grown := make([]cacheSlot, len(c.slots), min(max(2*len(c.slots), 16), c.cap))
			copy(grown, c.slots)
			c.slots = grown
		}
		i = int32(len(c.slots))
		c.slots = c.slots[:i+1]
		if c.index == nil {
			c.index = make(map[[32]byte]int32)
		}
	default:
		i = c.tail // evict the least recently used entry into its slot
		c.unlink(i)
		delete(c.index, c.slots[i].id)
	}
	s := &c.slots[i]
	s.id, s.gid = key.id, key.gid
	copy(s.sig[:], sig)
	s.signers = s.signers[:0]
	for _, v := range signers {
		s.signers = append(s.signers, uint16(v))
	}
	c.index[key.id] = i
	c.pushFront(i)
}

// dropGroup evicts every entry of one tenant — called when a rotation
// replaces the tenant's key, so signatures under the old key cannot be
// served for the new epoch. The survivors move to a fresh slab, least
// recently used first, so they keep their LRU order.
func (c *sigCache) dropGroup(gid string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old, i := c.slots, c.tail
	c.slots, c.head, c.tail = make([]cacheSlot, 0, len(old)), -1, -1
	clear(c.index)
	for ; i >= 0; i = old[i].prev {
		if old[i].gid != gid {
			n := int32(len(c.slots))
			c.slots = append(c.slots, old[i])
			c.index[old[i].id] = n
			c.pushFront(n)
		}
	}
}

func (c *sigCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots)
}

// unlink takes slot i out of the LRU order.
func (c *sigCache) unlink(i int32) {
	s := &c.slots[i]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}

// pushFront makes slot i the most recently used.
func (c *sigCache) pushFront(i int32) {
	s := &c.slots[i]
	s.prev, s.next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

func (c *sigCache) moveToFront(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}
