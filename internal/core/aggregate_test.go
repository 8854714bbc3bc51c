package core

import (
	"bytes"
	"fmt"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"

	"repro/internal/bn254"
	"repro/internal/dkg"
)

// Aggregation fixture: two independent authorities (key groups) under the
// same parameters.
var (
	aggOnce   sync.Once
	aggParams = NewAggParams("agg-test")
	aggViewsA []*AggKeyShares
	aggViewsB []*AggKeyShares
	aggErr    error
)

const (
	aggN = 3
	aggT = 1
)

func aggFixture(t *testing.T) ([]*AggKeyShares, []*AggKeyShares) {
	t.Helper()
	aggOnce.Do(func() {
		aggViewsA, _, aggErr = AggDistKeygen(aggParams, aggN, aggT)
		if aggErr != nil {
			return
		}
		aggViewsB, _, aggErr = AggDistKeygen(aggParams, aggN, aggT)
	})
	if aggErr != nil {
		t.Fatalf("AggDistKeygen fixture: %v", aggErr)
	}
	return aggViewsA, aggViewsB
}

func aggSign(t *testing.T, views []*AggKeyShares, msg []byte) *Signature {
	t.Helper()
	var parts []*PartialSignature
	for i := 1; i <= aggT+1; i++ {
		ps, err := AggShareSign(views[1].PK, views[i].Share, msg)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, ps)
	}
	sig, err := AggCombine(views[1].PK, views[1].VKs, msg, parts, aggT)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

func TestAggKeySanityCheck(t *testing.T) {
	a, b := aggFixture(t)
	if !a[1].PK.SanityCheck() {
		t.Fatal("authority A's key fails its built-in validity proof")
	}
	if !b[1].PK.SanityCheck() {
		t.Fatal("authority B's key fails its built-in validity proof")
	}
	if a[1].PK.Equal(b[1].PK) {
		t.Fatal("independent authorities produced the same key")
	}
	// A key with a perturbed (Z, R) fails.
	pk := a[1].PK
	bad := &AggPublicKey{
		Params: pk.Params, G1: pk.G1, G2: pk.G2,
		Z: new(bn254.G1).Add(pk.Z, bn254.G1Generator()), R: pk.R,
	}
	if bad.SanityCheck() {
		t.Fatal("perturbed key passed the sanity check")
	}
}

func TestAggSingleSignature(t *testing.T) {
	a, _ := aggFixture(t)
	msg := []byte("single message")
	sig := aggSign(t, a, msg)
	if !AggVerifySingle(a[1].PK, msg, sig) {
		t.Fatal("single aggregation-scheme signature rejected")
	}
	if AggVerifySingle(a[1].PK, []byte("other"), sig) {
		t.Fatal("signature verified on wrong message")
	}
	// Verification is bound to the public key (H(PK||M)).
	_, b := aggFixture(t)
	if AggVerifySingle(b[1].PK, msg, sig) {
		t.Fatal("signature verified under the wrong public key")
	}
}

func TestAggShareVerify(t *testing.T) {
	a, _ := aggFixture(t)
	msg := []byte("partial check")
	ps, err := AggShareSign(a[1].PK, a[2].Share, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !AggShareVerify(a[1].PK, a[1].VKs[2], msg, ps) {
		t.Fatal("valid aggregation partial rejected")
	}
	if AggShareVerify(a[1].PK, a[1].VKs[3], msg, ps) {
		t.Fatal("aggregation partial accepted under wrong VK")
	}
}

func TestAggregateAndVerify(t *testing.T) {
	a, b := aggFixture(t)
	entries := []AggEntry{
		{PK: a[1].PK, Msg: []byte("certificate for server-1")},
		{PK: b[1].PK, Msg: []byte("certificate for server-2")},
		{PK: a[1].PK, Msg: []byte("certificate for server-3")},
	}
	for i := range entries {
		views := aggViewsA
		if i == 1 {
			views = aggViewsB
		}
		entries[i].Sig = aggSign(t, views, entries[i].Msg)
	}
	agg, err := Aggregate(entries)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(agg.Marshal()) * 8; got != 512 {
		t.Fatalf("aggregate is %d bits, want 512", got)
	}
	if !AggregateVerify(entries, agg) {
		t.Fatal("aggregate signature rejected")
	}
	// Swapping the messages of two entries under the SAME key leaves the
	// (PK, M) multiset unchanged, so it must still verify (unrestricted
	// aggregation is order-independent).
	swapped := make([]AggEntry, len(entries))
	copy(swapped, entries)
	swapped[0].Msg, swapped[2].Msg = swapped[2].Msg, swapped[0].Msg
	if !AggregateVerify(swapped, agg) {
		t.Fatal("aggregate verification is order-dependent")
	}
	// Swapping messages ACROSS keys changes the multiset and must fail.
	crossed := make([]AggEntry, len(entries))
	copy(crossed, entries)
	crossed[0].Msg, crossed[1].Msg = crossed[1].Msg, crossed[0].Msg
	if AggregateVerify(crossed, agg) {
		t.Fatal("aggregate verified with messages swapped across keys")
	}
	// Substituting a fresh message must fail.
	tampered := make([]AggEntry, len(entries))
	copy(tampered, entries)
	tampered[0].Msg = []byte("a certificate nobody signed")
	if AggregateVerify(tampered, agg) {
		t.Fatal("aggregate verified with a substituted message")
	}
	// Dropping an entry breaks it.
	if AggregateVerify(entries[:2], agg) {
		t.Fatal("aggregate verified with a missing entry")
	}
}

func TestAggregateRejectsInvalidInput(t *testing.T) {
	a, _ := aggFixture(t)
	msg := []byte("good message")
	sig := aggSign(t, a, msg)
	// An entry whose signature does not verify is refused at aggregation.
	bad := []AggEntry{{PK: a[1].PK, Msg: []byte("not the signed message"), Sig: sig}}
	if _, err := Aggregate(bad); err == nil {
		t.Fatal("aggregated an invalid signature")
	}
	if _, err := Aggregate(nil); err == nil {
		t.Fatal("aggregated an empty list")
	}
	if AggregateVerify(nil, sig) {
		t.Fatal("verified an empty aggregate")
	}
}

func TestAggregateManySameKey(t *testing.T) {
	// Bellare et al. style unrestricted aggregation: multiple messages
	// from the SAME key in one aggregate.
	a, _ := aggFixture(t)
	var entries []AggEntry
	for i := 0; i < 4; i++ {
		msg := []byte(fmt.Sprintf("cert-%d", i))
		entries = append(entries, AggEntry{PK: a[1].PK, Msg: msg, Sig: aggSign(t, a, msg)})
	}
	agg, err := Aggregate(entries)
	if err != nil {
		t.Fatal(err)
	}
	if !AggregateVerify(entries, agg) {
		t.Fatal("same-key aggregate rejected")
	}
}

// TestAggDealProofMatchesScalarMult: the dealer's proof (Z_i0, R_i0),
// computed on the regular ladder, is the bytes the variable-time
// G1.ScalarMult gives, for several seeded dealers.
func TestAggDealProofMatchesScalarMult(t *testing.T) {
	params := NewAggParams("agg-ladder")
	neg := func(p, q *bn254.G1, a, b *big.Int) *bn254.G1 {
		s := new(bn254.G1).Add(new(bn254.G1).ScalarMult(p, a), new(bn254.G1).ScalarMult(q, b))
		return s.Neg(s)
	}
	for _, tc := range []struct {
		seed int64
		id   int
	}{{1, 1}, {2, 2}, {3, 5}} {
		cfg := dkg.Config{N: 5, T: 2, NumSharings: Dim, Scheme: dkg.PedersenScheme{Params: params.LH},
			Rng: mrand.New(mrand.NewSource(tc.seed))}
		hp, err := dkg.NewHonestPlayer(cfg, tc.id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hp.Step(0, nil); err != nil {
			t.Fatal(err)
		}
		z, r, err := aggDealProof(params, hp)
		if err != nil {
			t.Fatal(err)
		}
		wantZ := neg(params.G, params.H, hp.Polys[0][0].Secret(), hp.Polys[1][0].Secret())
		wantR := neg(params.G, params.H, hp.Polys[0][1].Secret(), hp.Polys[1][1].Secret())
		if !bytes.Equal(z.Marshal(), wantZ.Marshal()) || !bytes.Equal(r.Marshal(), wantR.Marshal()) {
			t.Fatalf("seed %d, dealer %d: proof differs from the G1.ScalarMult reference", tc.seed, tc.id)
		}
	}
}
