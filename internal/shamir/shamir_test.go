package shamir

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bn254"
)

func testField(t *testing.T) *Field {
	t.Helper()
	f, err := NewField(bn254.Order)
	if err != nil {
		t.Fatalf("NewField: %v", err)
	}
	return f
}

func TestNewFieldRejectsBadModulus(t *testing.T) {
	if _, err := NewField(nil); err == nil {
		t.Fatal("accepted nil modulus")
	}
	if _, err := NewField(big.NewInt(0)); err == nil {
		t.Fatal("accepted zero modulus")
	}
	if _, err := NewField(big.NewInt(-7)); err == nil {
		t.Fatal("accepted negative modulus")
	}
}

func TestReconstructRoundTrip(t *testing.T) {
	f := testField(t)
	secret, err := f.Rand(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	const tDeg, n = 3, 10
	poly, err := f.NewPolynomial(tDeg, secret, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	shares := poly.Shares(n)
	if len(shares) != n {
		t.Fatalf("got %d shares", len(shares))
	}
	got, err := f.Interpolate(shares[:tDeg+1], new(big.Int))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(secret) != 0 {
		t.Fatal("reconstruction from first t+1 shares failed")
	}
}

func TestAnySubsetReconstructs(t *testing.T) {
	f := testField(t)
	const tDeg, n = 2, 7
	secret := big.NewInt(424242)
	poly, err := f.NewPolynomial(tDeg, secret, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	shares := poly.Shares(n)
	rng := mrand.New(mrand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(n)[:tDeg+1]
		subset := make([]Share, 0, tDeg+1)
		for _, idx := range perm {
			subset = append(subset, shares[idx])
		}
		got, err := f.Interpolate(subset, new(big.Int))
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(secret) != 0 {
			t.Fatalf("subset %v failed to reconstruct", perm)
		}
	}
}

func TestTooFewSharesGiveWrongSecret(t *testing.T) {
	// t shares interpolate to something, but (whp) not the secret:
	// interpolating a degree-t polynomial from t points assumes degree t-1.
	f := testField(t)
	const tDeg, n = 3, 8
	secret := big.NewInt(99)
	poly, err := f.NewPolynomial(tDeg, secret, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	shares := poly.Shares(n)
	got, err := f.Interpolate(shares[:tDeg], new(big.Int))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(secret) == 0 {
		t.Fatal("t shares reconstructed the secret (astronomically unlikely)")
	}
}

func TestLagrangeIdentity(t *testing.T) {
	// sum_i Delta_{i,S}(0) * f(i) == f(0) for explicit coefficients.
	f := testField(t)
	coeffs := []*big.Int{big.NewInt(5), big.NewInt(7), big.NewInt(11)}
	poly, err := f.PolynomialFromCoeffs(coeffs)
	if err != nil {
		t.Fatal(err)
	}
	indices := []int{2, 5, 9}
	lambda, err := f.LagrangeAtZero(indices)
	if err != nil {
		t.Fatal(err)
	}
	acc := new(big.Int)
	for _, i := range indices {
		acc.Add(acc, f.Mul(lambda[i], poly.EvalAt(i)))
	}
	acc.Mod(acc, f.q)
	if acc.Cmp(big.NewInt(5)) != 0 {
		t.Fatalf("Lagrange identity failed: got %s", acc)
	}
}

func TestLagrangeRejectsBadIndexSets(t *testing.T) {
	f := testField(t)
	if _, err := f.LagrangeAtZero(nil); err == nil {
		t.Fatal("accepted empty set")
	}
	if _, err := f.LagrangeAtZero([]int{1, 2, 1}); err == nil {
		t.Fatal("accepted duplicate index")
	}
	if _, err := f.LagrangeAtZero([]int{0, 1}); err == nil {
		t.Fatal("accepted index 0")
	}
}

func TestInterpolateAtArbitraryPoint(t *testing.T) {
	f := testField(t)
	poly, err := f.NewPolynomial(4, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	shares := poly.Shares(5)
	at := big.NewInt(77)
	got, err := f.Interpolate(shares, at)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(poly.Eval(at)) != 0 {
		t.Fatal("interpolation at x=77 mismatched direct evaluation")
	}
}

func TestPolynomialAdd(t *testing.T) {
	// Sharing additivity: shares of p+q are sums of shares — the core
	// homomorphism the DKG relies on.
	f := testField(t)
	p, err := f.NewPolynomial(3, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	q, err := f.NewPolynomial(3, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sum := p.Add(q)
	for i := 1; i <= 6; i++ {
		want := f.Add(p.EvalAt(i), q.EvalAt(i))
		if sum.EvalAt(i).Cmp(want) != 0 {
			t.Fatalf("additivity failed at %d", i)
		}
	}
	if sum.Secret().Cmp(f.Add(p.Secret(), q.Secret())) != 0 {
		t.Fatal("secret of sum != sum of secrets")
	}
}

func TestQuickReconstruct(t *testing.T) {
	// Property: for random secrets and thresholds, any t+1 of n shares
	// reconstruct.
	f := testField(t)
	cfg := &quick.Config{MaxCount: 25}
	prop := func(seedRaw int64, tRaw, extraRaw uint8) bool {
		tDeg := int(tRaw%5) + 1
		n := 2*tDeg + 1 + int(extraRaw%4)
		secret := f.Reduce(big.NewInt(seedRaw))
		poly, err := f.NewPolynomial(tDeg, secret, rand.Reader)
		if err != nil {
			return false
		}
		shares := poly.Shares(n)
		rng := mrand.New(mrand.NewSource(seedRaw))
		perm := rng.Perm(n)[:tDeg+1]
		subset := make([]Share, 0, tDeg+1)
		for _, idx := range perm {
			subset = append(subset, shares[idx])
		}
		got, err := f.Interpolate(subset, new(big.Int))
		return err == nil && got.Cmp(secret) == 0
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLagrangeSumsToOneOnConstants(t *testing.T) {
	// For a constant polynomial the Lagrange coefficients must sum to 1.
	f := testField(t)
	prop := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		seen := map[int]bool{}
		var indices []int
		for _, r := range raw {
			i := int(r%32) + 1
			if !seen[i] {
				seen[i] = true
				indices = append(indices, i)
			}
		}
		lambda, err := f.LagrangeAtZero(indices)
		if err != nil {
			return false
		}
		acc := new(big.Int)
		for _, l := range lambda {
			acc.Add(acc, l)
		}
		acc.Mod(acc, f.q)
		return acc.Cmp(big.NewInt(1)) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalHorner(t *testing.T) {
	f := testField(t)
	poly, err := f.PolynomialFromCoeffs([]*big.Int{
		big.NewInt(1), big.NewInt(2), big.NewInt(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	// f(10) = 1 + 20 + 300 = 321.
	if got := poly.Eval(big.NewInt(10)); got.Cmp(big.NewInt(321)) != 0 {
		t.Fatalf("Eval(10) = %s, want 321", got)
	}
	if len(poly.coeffs)-1 != 2 {
		t.Fatalf("degree %d", len(poly.coeffs)-1)
	}
	if poly.Coeff(1).Cmp(big.NewInt(2)) != 0 {
		t.Fatal("Coeff(1) wrong")
	}
}
