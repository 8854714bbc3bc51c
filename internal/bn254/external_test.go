package bn254

import (
	"encoding/hex"
	"encoding/json"
	"math/big"
	"os"
	"path/filepath"
	"testing"
)

// Vectors from outside the repository (testdata/eip196_197.json): the
// curve is alt_bn128, so the Ethereum precompiles' known answers pin the
// G1 arithmetic, and the EIP-197 generator is a G2 point this package did
// not derive itself.

type externalVectors struct {
	G1Multiples []struct{ K, X, Y string } `json:"g1_multiples"`
	G2Generator struct {
		XReal string `json:"x_real"`
		XImag string `json:"x_imag"`
		YReal string `json:"y_real"`
		YImag string `json:"y_imag"`
	} `json:"g2_generator"`
}

func loadExternal(t *testing.T) *externalVectors {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "eip196_197.json"))
	if err != nil {
		t.Fatal(err)
	}
	var v externalVectors
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	return &v
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// eip197Generator decodes the EIP-197 G2 generator. EIP-197 writes an Fp2
// element as (imaginary, real), which is also this package's byte order
// c1 || c0; the vector file names the parts so that neither is assumed.
func eip197Generator(t *testing.T, v *externalVectors) *G2 {
	t.Helper()
	g := v.G2Generator
	var enc []byte
	for _, part := range []string{g.XImag, g.XReal, g.YImag, g.YReal} {
		enc = append(enc, mustHex(t, part)...)
	}
	q := new(G2)
	if err := q.Unmarshal(enc); err != nil {
		t.Fatalf("the EIP-197 G2 generator does not decode (on the twist, in the subgroup): %v", err)
	}
	return q
}

func TestEIP196KnownAnswers(t *testing.T) {
	v := loadExternal(t)
	gen := G1Generator()
	acc := new(G1)
	for _, m := range v.G1Multiples {
		k, _ := new(big.Int).SetString(m.K, 10)
		want := new(G1)
		if err := want.Unmarshal(append(mustHex(t, m.X), mustHex(t, m.Y)...)); err != nil {
			t.Fatalf("%s*G from the vector file does not decode: %v", m.K, err)
		}
		if got := new(G1).ScalarMult(gen, k); !got.Equal(want) {
			t.Errorf("ecMul(G, %s) = %s, EIP-196 vector says %s", m.K, got, want)
		}
		acc.Add(acc, gen) // ecAdd along the same multiples
		if !acc.Equal(want) {
			t.Errorf("ecAdd chain at %s*G = %s, EIP-196 vector says %s", m.K, acc, want)
		}
	}
	if !new(G1).Double(gen).Equal(acc.Sub(acc, gen)) {
		t.Error("ecAdd(G, G) != 3G - G")
	}
}

func TestEIP197Generator(t *testing.T) {
	v := loadExternal(t)
	q := eip197Generator(t, v)
	if q.IsInfinity() || !q.isOnTwist() || !q.inSubgroup() {
		t.Fatal("EIP-197 generator rejected")
	}
	// It is a generator of the same group as this package's hashed one, and
	// the codecs round-trip it.
	var back G2
	if err := back.UnmarshalCompressed(q.MarshalCompressed()); err != nil || !back.Equal(q) {
		t.Errorf("compressed round trip of the EIP-197 generator: %v", err)
	}

	// EIP-197-style checks: e(P, Q) e(-P, Q) = 1, and
	// e(aP, bQ) e(-abP, Q) = 1, with Q from outside the repository and in
	// every fresh/precomputed combination.
	p := G1Generator()
	negP := new(G1).Neg(p)
	if !PairingCheck([]*G1{p, negP}, []*G2{q, q}) {
		t.Error("e(P, Q) e(-P, Q) != 1")
	}
	a, b := big.NewInt(1234577), big.NewInt(9876541)
	aP := new(G1).ScalarMult(p, a)
	bQ := new(G2).ScalarMult(q, b)
	abP := new(G1).ScalarMult(negP, new(big.Int).Mul(a, b))
	for _, slots := range [][]*PairingSlot{
		{{P: aP, Q: bQ}, {P: abP, Q: q}},
		{{P: aP, Pre: PrecomputeG2(bQ)}, {P: abP, Q: q}},
		{{P: aP, Pre: PrecomputeG2(bQ)}, {P: abP, Pre: PrecomputeG2(q)}},
	} {
		if !PairingCheckMixed(slots) {
			t.Error("e(aP, bQ) e(-abP, Q) != 1")
		}
	}
	if PairingCheck([]*G1{p, p}, []*G2{q, q}) || Pair(p, q).IsOne() {
		t.Error("pairing with the EIP-197 generator is degenerate")
	}
}

// GTGenerator returns a copy of e(G1Generator, G2Generator) as paired at
// init.
func GTGenerator() *GT { return new(GT).Set(gtGen) }

// IsInSubgroup reports whether e^r = 1.
func (e *GT) IsInSubgroup() bool {
	var t fp12
	t.Exp(&e.v, Order)
	return t.IsOne()
}

// GTGenerator must be the pairing of the two generators. (It once was not:
// the generators were paired at init before the Miller loop's NAF schedule
// had been derived, so the loop body never ran.)
func TestGTGeneratorIsPairingOfGenerators(t *testing.T) {
	if !GTGenerator().Equal(Pair(G1Generator(), G2Generator())) {
		t.Fatal("GTGenerator() != e(G1Generator(), G2Generator())")
	}
	if !GTGenerator().IsInSubgroup() {
		t.Fatal("GTGenerator() is not in the order-r subgroup")
	}
}

// A twist point outside the order-r subgroup must not decode as a G2
// element, in either encoding.
func TestG2UnmarshalRejectsPointsOutsideSubgroup(t *testing.T) {
	raw := hashToTwistPoint("external-test", []byte("cofactor not cleared"))
	if !raw.isOnTwist() {
		t.Fatal("hashToTwistPoint left the twist")
	}
	if err := new(G2).Unmarshal(raw.Marshal()); err == nil {
		t.Error("Unmarshal accepted a twist point outside G2")
	}
	if err := new(G2).UnmarshalCompressed(raw.MarshalCompressed()); err == nil {
		t.Error("UnmarshalCompressed accepted a twist point outside G2")
	}
	if err := new(G2).UnmarshalUnchecked(raw.Marshal()); err != nil {
		t.Errorf("UnmarshalUnchecked validates the curve only: %v", err)
	}
	cleared := new(G2).scalarMultRaw(raw, twistCofactor)
	if err := new(G2).Unmarshal(cleared.Marshal()); err != nil {
		t.Errorf("cofactor-cleared point rejected: %v", err)
	}
}
