package service

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func testEnc(b byte) []byte { return bytes.Repeat([]byte{b}, core.SignatureSize) }

// TestSignHandsOutPrivateSignatures: a Go caller that mutates the
// signature it was given cannot change what later callers get — not the
// fan-out's own result (the flight leader's), not a cache hit's.
func TestSignHandsOutPrivateSignatures(t *testing.T) {
	f := testFixture(t)
	c := newTestCoordinator(t, startSigners(t, f, nil), CoordinatorConfig{SignerTimeout: 60 * time.Second})
	ctx := context.Background()
	msg := []byte("a signature mutated by its caller")

	first, report, err := c.Sign(ctx, msg)
	if err != nil || report.Cached {
		t.Fatalf("first sign: cached=%v err=%v", report.Cached, err)
	}
	want := first.Marshal()
	first.Z.Set(first.R)
	for round := 0; round < 2; round++ {
		again, report, err := c.Sign(ctx, msg)
		if err != nil || !report.Cached {
			t.Fatalf("sign %d: cached=%v err=%v", round, report.Cached, err)
		}
		if !bytes.Equal(again.Marshal(), want) {
			t.Fatalf("sign %d: a caller's mutation reached the cached signature", round)
		}
		if !f.group.PK.Verify(msg, again) {
			t.Fatalf("sign %d: the served signature does not verify", round)
		}
		again.R.Set(again.Z)
	}
	results, err := c.SignBatch(ctx, [][]byte{msg})
	if err != nil || results[0].Err != nil {
		t.Fatal(err, results[0].Err)
	}
	if !results[0].Report.Cached || !bytes.Equal(results[0].Sig.Marshal(), want) {
		t.Fatal("SignBatch's hit is not the original signature")
	}
}

// TestSigCacheAllocations: a key is built and a hit served without
// allocating beyond the returned signer list, and an empty cache holds
// no slab or index however large its capacity.
func TestSigCacheAllocations(t *testing.T) {
	if size := reflect.TypeOf(cacheSlot{}).Size(); size > 144 {
		t.Fatalf("cacheSlot is %d bytes, want at most 144", size)
	}
	msg := []byte("allocation gate")
	for _, gid := range []string{DefaultGroupID, strings.Repeat("g", 64)} {
		if n := testing.AllocsPerRun(100, func() { sigKey(gid, msg) }); n != 0 {
			t.Errorf("sigKey(%d-byte gid): %v allocs, want 0", len(gid), n)
		}
	}

	var c *sigCache
	if n := testing.AllocsPerRun(10, func() { c = newSigCache(1 << 20) }); n != 1 {
		t.Errorf("newSigCache(1<<20): %v allocs, want 1 (the cache itself)", n)
	}
	if cap(c.slots) != 0 || c.index != nil {
		t.Fatalf("empty cache holds %d slots and index %v", cap(c.slots), c.index)
	}
	key := sigKey(DefaultGroupID, msg)
	c.add(key, testEnc(1), []int{1, 2, 3})
	if cap(c.slots) > 16 {
		t.Fatalf("one entry grew the slab to %d slots", cap(c.slots))
	}
	if n := testing.AllocsPerRun(100, func() { c.get(key) }); n != 1 {
		t.Errorf("get: %v allocs, want 1 (the signer list)", n)
	}

	// The slab grows with the entries but never past the capacity.
	c = newSigCache(20)
	for i := range 30 {
		c.add(sigKey(DefaultGroupID, []byte{byte(i)}), testEnc(byte(i)), []int{i + 1})
	}
	if c.len() != 20 || cap(c.slots) != 20 || len(c.index) != 20 {
		t.Fatalf("len %d, slab capacity %d, index %d; want 20 each", c.len(), cap(c.slots), len(c.index))
	}
}

// TestSigCacheDropGroupKeepsOrder: dropping a tenant compacts the slab
// and the survivors keep their entries and their LRU order.
func TestSigCacheDropGroupKeepsOrder(t *testing.T) {
	c := newSigCache(8)
	key := func(gid string, i int) cacheKey { return sigKey(gid, []byte(fmt.Sprint(i))) }
	for i := range 3 {
		c.add(key("alpha", i), testEnc(byte(10+i)), []int{i + 1})
		if i < 2 {
			c.add(key("beta", i), testEnc(byte(20+i)), []int{i + 4})
		}
	}
	if _, _, ok := c.get(key("beta", 0)); !ok { // beta 1 is now the older beta
		t.Fatal("missing beta 0")
	}
	c.dropGroup("alpha")
	if c.len() != 2 || len(c.index) != 2 {
		t.Fatalf("after drop: len %d, index %d; want 2", c.len(), len(c.index))
	}
	// Six entries fill the cache and a seventh evicts the least recently
	// used survivor, beta 1.
	for i := range 7 {
		c.add(key("gamma", i), testEnc(byte(30+i)), []int{1})
	}
	if _, _, ok := c.get(key("beta", 1)); ok {
		t.Fatal("beta 1 survived as the least recently used entry")
	}
	sig, signers, ok := c.get(key("beta", 0))
	if !ok || !bytes.Equal(sig[:], testEnc(20)) || signers[0] != 4 {
		t.Fatalf("beta 0 after the compaction: ok=%v signers=%v", ok, signers)
	}
	c.dropGroup("nobody")
	c.dropGroup("gamma")
	c.dropGroup("beta")
	if c.len() != 0 || c.head != -1 || c.tail != -1 {
		t.Fatalf("emptied cache: len %d, head %d, tail %d", c.len(), c.head, c.tail)
	}
	c.add(key("beta", 0), testEnc(1), []int{1})
	if _, _, ok := c.get(key("beta", 0)); !ok {
		t.Fatal("emptied cache does not take a new entry")
	}
}
