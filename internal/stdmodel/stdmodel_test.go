package stdmodel

import (
	"bytes"
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"

	"repro/internal/bn254"
	"repro/internal/gs"
)

var (
	smOnce   sync.Once
	smParams = NewParams("stdmodel-test")
	smViews  []*KeyShares
	smErr    error
)

const (
	smN = 5
	smT = 2
)

func smFixture(t *testing.T) []*KeyShares {
	t.Helper()
	smOnce.Do(func() {
		smViews, smErr = DistKeygen(smParams, smN, smT)
	})
	if smErr != nil {
		t.Fatalf("DistKeygen fixture: %v", smErr)
	}
	return smViews
}

func smPartials(t *testing.T, views []*KeyShares, msg []byte, signers []int) []*PartialSignature {
	t.Helper()
	var out []*PartialSignature
	for _, i := range signers {
		ps, err := ShareSign(smParams, views[i].Share, msg, rand.Reader)
		if err != nil {
			t.Fatalf("ShareSign(%d): %v", i, err)
		}
		out = append(out, ps)
	}
	return out
}

func TestStdModelEndToEnd(t *testing.T) {
	views := smFixture(t)
	msg := []byte("standard model, no random oracles")
	parts := smPartials(t, views, msg, []int{1, 3, 5})
	sig, err := Combine(views[1].PK, views[1].VKs, msg, parts, smT, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(views[1].PK, msg, sig) {
		t.Fatal("combined signature rejected")
	}
	if Verify(views[1].PK, []byte("a different message"), sig) {
		t.Fatal("signature verified on wrong message")
	}
}

func TestStdModelShareVerify(t *testing.T) {
	views := smFixture(t)
	msg := []byte("partials")
	ps, err := ShareSign(smParams, views[2].Share, msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if !ShareVerify(views[1].PK, views[1].VKs[2], msg, ps) {
		t.Fatal("valid partial rejected")
	}
	if ShareVerify(views[1].PK, views[1].VKs[3], msg, ps) {
		t.Fatal("partial accepted under wrong VK")
	}
	if ShareVerify(views[1].PK, views[1].VKs[2], []byte("other"), ps) {
		t.Fatal("partial accepted for wrong message")
	}
	if ShareVerify(views[1].PK, nil, msg, ps) || ShareVerify(views[1].PK, views[1].VKs[2], msg, nil) {
		t.Fatal("nil inputs accepted")
	}
}

func TestStdModelPartialsAreRandomized(t *testing.T) {
	// Share-Sign commits with fresh randomness: two partials by the same
	// player on the same message differ (witness indistinguishability
	// depends on it), yet both verify.
	views := smFixture(t)
	msg := []byte("probabilistic signing")
	p1, _ := ShareSign(smParams, views[1].Share, msg, rand.Reader)
	p2, _ := ShareSign(smParams, views[1].Share, msg, rand.Reader)
	if p1.Sig.Cz.Equal(p2.Sig.Cz) {
		t.Fatal("two partial signatures share a commitment")
	}
	if !ShareVerify(views[1].PK, views[1].VKs[1], msg, p1) ||
		!ShareVerify(views[1].PK, views[1].VKs[1], msg, p2) {
		t.Fatal("randomized partials rejected")
	}
}

func TestStdModelCombineIsRerandomized(t *testing.T) {
	// Two combines over the same partials yield different encodings
	// (fresh re-randomization) that both verify.
	views := smFixture(t)
	msg := []byte("re-randomization")
	parts := smPartials(t, views, msg, []int{1, 2, 3})
	s1, err := Combine(views[1].PK, views[1].VKs, msg, parts, smT, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Combine(views[1].PK, views[1].VKs, msg, parts, smT, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Cz.Equal(s2.Cz) {
		t.Fatal("combine output is deterministic — re-randomization missing")
	}
	if !Verify(views[1].PK, msg, s1) || !Verify(views[1].PK, msg, s2) {
		t.Fatal("re-randomized signatures rejected")
	}
}

func TestStdModelDifferentSubsetsVerify(t *testing.T) {
	views := smFixture(t)
	msg := []byte("subsets")
	for _, subset := range [][]int{{1, 2, 3}, {2, 4, 5}, {3, 4, 5}} {
		parts := smPartials(t, views, msg, subset)
		sig, err := Combine(views[1].PK, views[1].VKs, msg, parts, smT, rand.Reader)
		if err != nil {
			t.Fatalf("subset %v: %v", subset, err)
		}
		if !Verify(views[1].PK, msg, sig) {
			t.Fatalf("subset %v signature rejected", subset)
		}
	}
}

func TestStdModelCombineRobustness(t *testing.T) {
	views := smFixture(t)
	msg := []byte("robust combine")
	good := smPartials(t, views, msg, []int{1, 2, 3})
	// A bad partial: player 4's share but claiming index 5.
	bad, err := ShareSign(smParams, views[4].Share, msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bad.Index = 5
	all := append([]*PartialSignature{bad}, good...)
	sig, err := Combine(views[1].PK, views[1].VKs, msg, all, smT, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(views[1].PK, msg, sig) {
		t.Fatal("robust combine failed")
	}
	// Below threshold fails.
	if _, err := Combine(views[1].PK, views[1].VKs, msg, good[:2], smT, rand.Reader); err == nil {
		t.Fatal("combined from t shares")
	}
}

func TestStdModelSignatureSize(t *testing.T) {
	views := smFixture(t)
	msg := []byte("size")
	parts := smPartials(t, views, msg, []int{1, 2, 3})
	sig, err := Combine(views[1].PK, views[1].VKs, msg, parts, smT, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	raw := sig.Marshal()
	if len(raw)*8 != 2048 {
		t.Fatalf("signature is %d bits, paper says 2048", len(raw)*8)
	}
	var back Signature
	if err := back.Unmarshal(raw); err != nil {
		t.Fatal(err)
	}
	if !Verify(views[1].PK, msg, &back) {
		t.Fatal("signature round trip broke verification")
	}
	if err := back.Unmarshal(raw[:17]); err == nil {
		t.Fatal("accepted truncated signature")
	}
}

func TestStdModelShareSizeIsConstant(t *testing.T) {
	views := smFixture(t)
	if got := views[1].Share.SizeBytes(); got != 64 {
		t.Fatalf("share is %d bytes, want 64 (two scalars)", got)
	}
}

func TestStdModelCRSDependsOnEveryBit(t *testing.T) {
	// Flipping any message bit must change the CRS vector f_M.
	crs1 := smParams.CRSFor([]byte("bit sensitivity"))
	crs2 := smParams.CRSFor([]byte("bit sensitivitz"))
	if crs1.U2.Equal(crs2.U2) {
		t.Fatal("distinct messages produced the same CRS")
	}
	if !crs1.U1.Equal(crs2.U1) {
		t.Fatal("the f vector must be message-independent")
	}
}

func TestStdModelTamperedSignatureRejected(t *testing.T) {
	views := smFixture(t)
	msg := []byte("tamper")
	parts := smPartials(t, views, msg, []int{1, 2, 3})
	sig, err := Combine(views[1].PK, views[1].VKs, msg, parts, smT, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	swapped := &Signature{Cz: sig.Cr, Cr: sig.Cz, Proof: sig.Proof}
	if Verify(views[1].PK, msg, swapped) {
		t.Fatal("swapped commitments verified")
	}
	if Verify(views[1].PK, msg, &Signature{Cz: sig.Cz, Cr: sig.Cr}) {
		t.Fatal("missing proof verified")
	}
}

func TestStdModelProactiveRefresh(t *testing.T) {
	views := smFixture(t)
	msg := []byte("refresh in the standard model")

	refresh, err := RunRefresh(smParams, smN, smT)
	if err != nil {
		t.Fatal(err)
	}
	next := make([]*KeyShares, smN+1)
	for i := 1; i <= smN; i++ {
		next[i], err = ApplyRefresh(views[i], refresh.Results[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	if !next[1].PK.Equal(views[1].PK) {
		t.Fatal("refresh changed the public key")
	}
	if next[1].Share.A.Cmp(views[1].Share.A) == 0 {
		t.Fatal("refresh did not change the share")
	}
	// New shares sign under the original key.
	var parts []*PartialSignature
	for _, i := range []int{1, 2, 4} {
		ps, err := ShareSign(smParams, next[i].Share, msg, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, ps)
	}
	sig, err := Combine(next[1].PK, next[1].VKs, msg, parts, smT, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(views[1].PK, msg, sig) {
		t.Fatal("post-refresh signature invalid under original key")
	}
	// Cross-epoch partials are rejected by the refreshed VKs.
	old, err := ShareSign(smParams, views[3].Share, msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if ShareVerify(next[1].PK, next[1].VKs[3], msg, old) {
		t.Fatal("stale share verified against refreshed VK")
	}
	// Validation paths.
	if _, err := ApplyRefresh(views[1], refresh.Results[2]); err == nil {
		t.Fatal("accepted mismatched refresh result")
	}
}

// TestShareSignMatchesScalarMult: the commitments of Share-Sign, whose
// committed values (-A g, -B g) are computed on the regular ladder, are
// the bytes the variable-time G1.ScalarMult gives under the same
// commitment randomness.
func TestShareSignMatchesScalarMult(t *testing.T) {
	params := NewParams("stdmodel-ladder")
	rnd := func(seed int64) *big.Int {
		k, err := bn254.RandScalar(mrand.New(mrand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	for _, tc := range []struct {
		name string
		a, b *big.Int
	}{
		{"zero and one", big.NewInt(0), big.NewInt(1)},
		{"r-1 and r+5", new(big.Int).Sub(bn254.Order, big.NewInt(1)), new(big.Int).Add(bn254.Order, big.NewInt(5))},
		{"random", rnd(1), rnd(2)},
		{"equal", rnd(3), rnd(3)},
	} {
		sk := &PrivateKeyShare{Index: 2, A: tc.a, B: tc.b}
		msg := []byte("ladder " + tc.name)
		ps, err := ShareSign(params, sk, msg, mrand.New(mrand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		rng := mrand.New(mrand.NewSource(9))
		nuZ, err := gs.SampleRandomness(rng)
		if err != nil {
			t.Fatal(err)
		}
		nuR, err := gs.SampleRandomness(rng)
		if err != nil {
			t.Fatal(err)
		}
		crs := params.CRSFor(msg)
		wantZ := crs.Commit(new(bn254.G1).Neg(new(bn254.G1).ScalarMult(params.G, tc.a)), nuZ)
		wantR := crs.Commit(new(bn254.G1).Neg(new(bn254.G1).ScalarMult(params.G, tc.b)), nuR)
		if !bytes.Equal(ps.Sig.Cz.Marshal(), wantZ.Marshal()) || !bytes.Equal(ps.Sig.Cr.Marshal(), wantR.Marshal()) {
			t.Fatalf("%s: commitments differ from the G1.ScalarMult reference", tc.name)
		}
	}
}
