package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bn254"
	"repro/internal/shamir"
)

// TestSignPathAllocations pins the allocations of the kernels behind
// Share-Sign, Combine, Verify and the batch checks. Each allocates only
// what it returns, or for a bool-valued check the few values named here;
// the MSM and pairing working space lives on the stack.
func TestSignPathAllocations(t *testing.T) {
	views := keyFixture(t)
	pk := views[1].PK
	g, err := NewGroup("core-test", fixtureN, fixtureT, views[1])
	if err != nil {
		t.Fatal(err)
	}
	m, err := g.Member(views[1].Share)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("allocation gate")
	parts := partials(t, views, msg, []int{1, 2, 3})
	sig, err := g.CombinePreverified(parts)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]BatchEntry, 8)
	shareBatch := make([]ShareBatchEntry, 8)
	for j := range batch {
		m := []byte(fmt.Sprintf("allocation gate %d", j))
		p := partials(t, views, m, []int{1, 2, 3})
		s, err := g.CombinePreverified(p)
		if err != nil {
			t.Fatal(err)
		}
		batch[j] = BatchEntry{Msg: m, Sig: s}
		shareBatch[j] = ShareBatchEntry{Msg: m, VK: views[1].VKs[1], PS: p[0]}
	}
	single := []ShareBatchEntry{{Msg: msg, VK: views[1].VKs[1], PS: parts[0]}}
	cross := crossSignerBatch(t, views)
	ok := true

	for _, tc := range []struct {
		name string
		want float64
		why  string
		fn   func()
	}{
		{"HashMessage", 2, "the two points and their slice",
			func() { fixtureParams.HashMessage(msg) }},
		{"ShareSign", 6, "H(M) (2), the MSM's two outputs and their slice (2), the LHSPS and the partial signature (2)",
			func() { _, err = m.SignShare(msg) }},
		{"CombinePreverified t+1=3", 3, "the signature and its two points",
			func() { _, err = g.CombinePreverified(parts) }},
		{"Verify", 0, "nothing",
			func() { ok = pk.Verify(msg, sig) }},
		{"BatchVerify k=8", 9, "the weights' read buffer, words, integers and slice (4), the hashes (1), the four aggregates (4)",
			func() { ok, err = pk.BatchVerify(batch, nil) }},
		{"CheckShares k=1", 1, "the returned []bool",
			func() { ok = CheckShares(pk, single)[0] }},
		{"CheckShares one signer, k=8", 11, "the returned []bool (1), the weights (4), the hashes and their pointers (2), the four aggregates (4)",
			func() { ok = !slices.Contains(CheckShares(pk, shareBatch), false) }},
		{"CheckShares 5 keys, k=8", 20, "the returned []bool (1), the weights (4), the hashes and their pointers (2), the z and r aggregates (2), two per key (10), the 12 slots (1); the Miller cursors stay on the stack up to 18 slots",
			func() { ok = !slices.Contains(CheckShares(pk, cross), false) }},
	} {
		ok, err = true, nil
		if got := testing.AllocsPerRun(10, tc.fn); got != tc.want {
			t.Errorf("%s: %v allocs/op, want %v (%s)", tc.name, got, tc.want, tc.why)
		}
		if !ok || err != nil {
			t.Errorf("%s: failed (%v)", tc.name, err)
		}
	}
}

// TestLagrangeCache: the cached coefficients equal shamir.LagrangeAtZero
// for every subset of 1..5 and for random subsets of 1..16, and the cache
// never holds more than its bound.
func TestLagrangeCache(t *testing.T) {
	fld, err := shamir.NewField(bn254.Order)
	if err != nil {
		t.Fatal(err)
	}
	check := func(set []int) {
		t.Helper()
		want, err := fld.LagrangeAtZero(set)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 { // a miss, then a hit
			ls, err := lagrangeAtZero(set)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range set {
				if ls.coeff(i).Cmp(want[i]) != 0 {
					t.Fatalf("set %v: coefficient of %d differs from shamir.LagrangeAtZero", set, i)
				}
			}
		}
		if n := lagrangeCacheLen(); n > lagrangeCacheCap {
			t.Fatalf("cache holds %d sets, bound %d", n, lagrangeCacheCap)
		}
	}
	for mask := 1; mask < 1<<5; mask++ {
		var set []int
		for i := 1; i <= 5; i++ {
			if mask&(1<<(i-1)) != 0 {
				set = append(set, i)
			}
		}
		check(set)
	}
	rng := rand.New(rand.NewSource(16))
	for range 3 * lagrangeCacheCap {
		perm := rng.Perm(16)
		set := perm[:1+rng.Intn(16)]
		for k := range set {
			set[k]++
		}
		check(set)
	}
	// An index beyond the key's reach is computed, not cached.
	before := lagrangeCacheLen()
	check([]int{1, lagrangeKeyIndices + 1})
	if lagrangeCacheLen() != before {
		t.Fatal("a set with an index beyond the key was cached")
	}
}

func lagrangeCacheLen() int {
	lagrangeCache.RLock()
	defer lagrangeCache.RUnlock()
	return len(lagrangeCache.m)
}
