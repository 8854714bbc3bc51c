package lhsps

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/bn254"
)

var testParams = NewParams("lhsps-test")

func randVector(t testing.TB, n int) []*bn254.G1 {
	t.Helper()
	out := make([]*bn254.G1, n)
	for i := range out {
		k, err := bn254.RandScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = new(bn254.G1).ScalarBaseMult(k)
	}
	return out
}

func TestSignVerify(t *testing.T) {
	sk, err := Keygen(testParams, 3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := randVector(t, 3)
	sig, err := sk.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !sk.Public.Verify(msg, sig) {
		t.Fatal("valid signature rejected")
	}
	// Different vector must fail.
	other := randVector(t, 3)
	if sk.Public.Verify(other, sig) {
		t.Fatal("signature verified on wrong vector")
	}
	// Tampered signature must fail.
	bad := &Signature{Z: new(bn254.G1).ScalarBaseMult(big.NewInt(5)), R: sig.R}
	if sk.Public.Verify(msg, bad) {
		t.Fatal("tampered signature accepted")
	}
}

func TestRejectsDimensionMismatchAndZeroVector(t *testing.T) {
	sk, err := Keygen(testParams, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Sign(randVector(t, 3)); err == nil {
		t.Fatal("signed a wrong-dimension vector")
	}
	// The all-identity vector always satisfies the equation trivially with
	// (z, r) = (O, O); Verify must reject it by definition.
	zeroVec := []*bn254.G1{new(bn254.G1), new(bn254.G1)}
	trivial := &Signature{Z: new(bn254.G1), R: new(bn254.G1)}
	if sk.Public.Verify(zeroVec, trivial) {
		t.Fatal("accepted the all-identity vector")
	}
	if sk.Public.Verify(randVector(t, 2), nil) {
		t.Fatal("accepted nil signature")
	}
	if _, err := Keygen(testParams, 0, rand.Reader); err == nil {
		t.Fatal("accepted dimension 0")
	}
}

func TestLinearHomomorphism(t *testing.T) {
	// Signatures on M1, M2 derive a signature on M1^w1 * M2^w2.
	sk, err := Keygen(testParams, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	m1 := randVector(t, 2)
	m2 := randVector(t, 2)
	s1, err := sk.Sign(m1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sk.Sign(m2)
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := bn254.RandScalar(rand.Reader)
	w2, _ := bn254.RandScalar(rand.Reader)
	derived, err := SignDerive([]*big.Int{w1, w2}, []Signature{*s1, *s2})
	if err != nil {
		t.Fatal(err)
	}
	// Combination vector.
	comb := make([]*bn254.G1, 2)
	for k := 0; k < 2; k++ {
		var a, b bn254.G1
		a.ScalarMult(m1[k], w1)
		b.ScalarMult(m2[k], w2)
		comb[k] = new(bn254.G1).Add(&a, &b)
	}
	if !sk.Public.Verify(comb, derived) {
		t.Fatal("derived signature rejected on the linear combination")
	}
}

func TestKeyHomomorphism(t *testing.T) {
	// Footnote 4: Sign(sk1, M) * Sign(sk2, M) verifies under sk1 + sk2.
	sk1, err := Keygen(testParams, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sk2, err := Keygen(testParams, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := randVector(t, 2)
	s1, err := sk1.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sk2.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := AddPrivateKeys(sk1, sk2)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := MulSignatures(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Public.Verify(msg, prod) {
		t.Fatal("key homomorphism failed")
	}
	// And the public key of the sum is the product of public keys.
	pkProd, err := MulPublicKeys(sk1.Public, sk2.Public)
	if err != nil {
		t.Fatal(err)
	}
	for k := range pkProd.Gk {
		if !pkProd.Gk[k].Equal(sum.Public.Gk[k]) {
			t.Fatal("public key homomorphism mismatch")
		}
	}
}

func TestDeterministicSigning(t *testing.T) {
	// Determinism is what makes the threshold scheme non-interactive.
	sk, err := Keygen(testParams, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := randVector(t, 2)
	s1, _ := sk.Sign(msg)
	s2, _ := sk.Sign(msg)
	if !s1.Z.Equal(s2.Z) || !s1.R.Equal(s2.R) {
		t.Fatal("signing is not deterministic")
	}
}

func TestSignatureSerialization(t *testing.T) {
	sk, err := Keygen(testParams, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := randVector(t, 2)
	sig, _ := sk.Sign(msg)
	raw := sig.Marshal()
	if len(raw) != 64 {
		t.Fatalf("signature is %d bytes, want 64 (512 bits)", len(raw))
	}
	var back Signature
	if err := back.Unmarshal(raw); err != nil {
		t.Fatal(err)
	}
	if !back.Z.Equal(sig.Z) || !back.R.Equal(sig.R) {
		t.Fatal("signature round trip failed")
	}
	if err := back.Unmarshal(raw[:10]); err == nil {
		t.Fatal("accepted truncated signature")
	}
}

func TestROSchemeEndToEnd(t *testing.T) {
	scheme := NewROScheme("ro-test")
	sk, err := scheme.Keygen(testParams, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("the paper's generic transform, Appendix D.1")
	sig, err := scheme.Sign(sk, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !scheme.Verify(sk.Public, msg, sig) {
		t.Fatal("RO-scheme signature rejected")
	}
	if scheme.Verify(sk.Public, []byte("different message"), sig) {
		t.Fatal("RO-scheme accepted wrong message")
	}
}

func TestQuickLinearCombinations(t *testing.T) {
	sk, err := Keygen(testParams, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	m1 := randVector(t, 2)
	m2 := randVector(t, 2)
	s1, _ := sk.Sign(m1)
	s2, _ := sk.Sign(m2)
	prop := func(w1Raw, w2Raw int64) bool {
		w1 := big.NewInt(w1Raw)
		w2 := big.NewInt(w2Raw)
		derived, err := SignDerive([]*big.Int{w1, w2}, []Signature{*s1, *s2})
		if err != nil {
			return false
		}
		comb := make([]*bn254.G1, 2)
		allInf := true
		for k := 0; k < 2; k++ {
			var a, b bn254.G1
			a.ScalarMult(m1[k], w1)
			b.ScalarMult(m2[k], w2)
			comb[k] = new(bn254.G1).Add(&a, &b)
			if !comb[k].IsInfinity() {
				allInf = false
			}
		}
		if allInf {
			return true // zero vector is rejected by definition; skip
		}
		return sk.Public.Verify(comb, derived)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRelationAllowsFixedGenerators(t *testing.T) {
	// VerifyRelation is used with "message" slots holding fixed generators
	// (e.g. the aggregation extension's (g, h) proof); it must not apply
	// the non-zero restriction but must still check the equation.
	sk, err := Keygen(testParams, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := randVector(t, 2)
	sig, _ := sk.Sign(msg)
	if !sk.Public.VerifyRelation(msg, sig) {
		t.Fatal("relation check rejected a valid signature")
	}
	bad := &Signature{Z: sig.R, R: sig.Z}
	if sk.Public.VerifyRelation(msg, bad) {
		t.Fatal("relation check accepted swapped components")
	}
}

func TestTemplateViewMatchesVerify(t *testing.T) {
	// The Appendix C template view must accept exactly the signatures the
	// concrete scheme accepts.
	sk, err := Keygen(testParams, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := randVector(t, 2)
	sig, err := sk.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	tv := sk.Public.TemplateView()
	if tv.NS != 2 || tv.M != 1 {
		t.Fatalf("DP scheme template has ns=%d m=%d", tv.NS, tv.M)
	}
	if !tv.VerifyTemplate(msg, []*bn254.G1{sig.Z, sig.R}) {
		t.Fatal("template view rejected a valid signature")
	}
	if tv.VerifyTemplate(msg, []*bn254.G1{sig.R, sig.Z}) {
		t.Fatal("template view accepted swapped components")
	}
	if tv.VerifyTemplate(msg, []*bn254.G1{sig.Z}) {
		t.Fatal("template view accepted wrong tuple length")
	}
}

// AddPrivateKeys returns the key with component-wise summed exponents.
// Signatures under the inputs multiply into signatures under the output —
// the key homomorphism of footnote 4 in the paper.
func AddPrivateKeys(keys ...*PrivateKey) (*PrivateKey, error) {
	if len(keys) == 0 {
		return nil, errors.New("lhsps: no keys to add")
	}
	n := len(keys[0].Chi)
	params := keys[0].Public.Params
	chi := make([]*big.Int, n)
	gamma := make([]*big.Int, n)
	for k := 0; k < n; k++ {
		chi[k] = new(big.Int)
		gamma[k] = new(big.Int)
	}
	for _, key := range keys {
		if len(key.Chi) != n {
			return nil, errors.New("lhsps: mismatched key dimensions")
		}
		for k := 0; k < n; k++ {
			chi[k].Add(chi[k], key.Chi[k])
			chi[k].Mod(chi[k], bn254.Order)
			gamma[k].Add(gamma[k], key.Gamma[k])
			gamma[k].Mod(gamma[k], bn254.Order)
		}
	}
	gk := make([]*bn254.G2, n)
	for k := 0; k < n; k++ {
		gk[k] = commitPair(params, chi[k], gamma[k])
	}
	return &PrivateKey{
		Public: &PublicKey{Params: params, Gk: gk},
		Chi:    chi,
		Gamma:  gamma,
	}, nil
}

// MulPublicKeys multiplies public keys component-wise: the public-key side
// of the key homomorphism.
func MulPublicKeys(keys ...*PublicKey) (*PublicKey, error) {
	if len(keys) == 0 {
		return nil, errors.New("lhsps: no keys to multiply")
	}
	n := keys[0].N()
	params := keys[0].Params
	gk := make([]*bn254.G2, n)
	for k := range gk {
		gk[k] = new(bn254.G2)
	}
	for _, key := range keys {
		if key.N() != n {
			return nil, errors.New("lhsps: mismatched key dimensions")
		}
		for k := 0; k < n; k++ {
			gk[k].Add(gk[k], key.Gk[k])
		}
	}
	return &PublicKey{Params: params, Gk: gk}, nil
}

// MulSignatures multiplies signatures component-wise (the signature side of
// the key homomorphism).
func MulSignatures(sigs ...*Signature) (*Signature, error) {
	if len(sigs) == 0 {
		return nil, errors.New("lhsps: no signatures to multiply")
	}
	z := new(bn254.G1)
	r := new(bn254.G1)
	for _, s := range sigs {
		z.Add(z, s.Z)
		r.Add(r, s.R)
	}
	return &Signature{Z: z, R: r}, nil
}
