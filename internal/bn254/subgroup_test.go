package bn254

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"testing"
)

// inSubgroupByOrder is the definition inSubgroup must agree with: [r]Q is
// the identity. The ladder is the raw one; ScalarMult would reduce r to
// zero first.
func inSubgroupByOrder(q *G2) bool {
	return scalarMultJacG2(q, Order).IsInfinity()
}

// twistPointAt returns a point of the twist with abscissa x, if there is
// one. Nothing clears its cofactor, so it is almost never in G2.
func twistPointAt(x *fp2) (*G2, bool) {
	var rhs, y fp2
	rhs.Square(x)
	rhs.Mul(&rhs, x)
	rhs.Add(&rhs, &bTwist)
	if !y.Sqrt(&rhs) {
		return nil, false
	}
	q := &G2{notInf: true}
	q.x.Set(x)
	q.y.Set(&y)
	return q, true
}

// randomTwistPoint draws abscissas until one lies on the twist.
func randomTwistPoint(t testing.TB) *G2 {
	t.Helper()
	for {
		var buf [64]byte
		if _, err := rand.Read(buf[:]); err != nil {
			t.Fatal(err)
		}
		var x fp2
		x.c0.SetBytesReduce((*[32]byte)(buf[:32]))
		x.c1.SetBytesReduce((*[32]byte)(buf[32:]))
		if q, ok := twistPointAt(&x); ok {
			return q
		}
	}
}

// TestG2SubgroupMatchesOrderCheck: the endomorphism test accepts and
// rejects exactly the points the [r]Q ladder does — on random twist
// points (off the subgroup), pure-cofactor points [r]P (order dividing
// the cofactor), mixed points G + [r]P (both components), random G2
// points, their negatives, and infinity.
func TestG2SubgroupMatchesOrderCheck(t *testing.T) {
	check := func(name string, q *G2, want bool) {
		t.Helper()
		if !q.isOnTwist() {
			t.Fatalf("%s: test point off the twist", name)
		}
		if oracle := inSubgroupByOrder(q); oracle != want {
			t.Fatalf("%s: oracle says %v, the test expected %v", name, oracle, want)
		}
		if got := q.inSubgroup(); got != want {
			t.Fatalf("%s: inSubgroup = %v, [r]Q ladder = %v", name, got, want)
		}
		var neg G2
		neg.Neg(q)
		if got := neg.inSubgroup(); got != want {
			t.Fatalf("%s negated: inSubgroup = %v, want %v", name, got, want)
		}
	}
	check("infinity", new(G2), true)
	check("generator", G2Generator(), true)
	for i := 0; i < 16; i++ {
		g := new(G2).ScalarBaseMult(randScalarT(t))
		p := randomTwistPoint(t)
		cof := new(G2).scalarMultRaw(p, Order)
		if cof.IsInfinity() {
			t.Fatalf("round %d: random twist point lies in G2", i)
		}
		check(fmt.Sprintf("random G2 %d", i), g, true)
		check(fmt.Sprintf("random twist %d", i), p, false)
		check(fmt.Sprintf("cofactor [r]P %d", i), cof, false)
		check(fmt.Sprintf("mixed G+[r]P %d", i), new(G2).Add(g, cof), false)
	}
}

// FuzzG2SubgroupCheck: fuzz bytes become an abscissa, and wherever the
// twist has a point there the endomorphism test agrees with the ladder.
func FuzzG2SubgroupCheck(f *testing.F) {
	f.Add(make([]byte, 64))
	f.Add(G2Generator().Marshal()[:64])
	f.Add(hashToTwistPoint("subgroup-fuzz", []byte("seed")).Marshal()[:64])
	f.Fuzz(func(t *testing.T, raw []byte) {
		var buf [64]byte
		copy(buf[:], raw)
		var x fp2
		x.c1.SetBytesReduce((*[32]byte)(buf[:32]))
		x.c0.SetBytesReduce((*[32]byte)(buf[32:]))
		q, ok := twistPointAt(&x)
		if !ok {
			return
		}
		if got, want := q.inSubgroup(), inSubgroupByOrder(q); got != want {
			t.Fatalf("x = %s: inSubgroup = %v, [r]Q ladder = %v", &x, got, want)
		}
	})
}

// TestSmallOrderTwistPoint pins testdata/twist_order_10069.hex, the point
// the dkg tests plant in a dealer's commitment: the G2 cofactor 2p - r has
// the prime factor 10069, and the file holds a twist point T != 0 with
// [10069]T = 0 — on the curve, so UnmarshalUnchecked takes it, and outside
// G2, so Unmarshal does not. It is [r(2p-r)/10069]P for the twist point P
// with abscissa 1.
func TestSmallOrderTwistPoint(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "twist_order_10069.hex"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
	if err != nil {
		t.Fatal(err)
	}
	order := big.NewInt(10069)
	cofactor := new(big.Int).Sub(new(big.Int).Lsh(P, 1), Order)
	if new(big.Int).Mod(cofactor, order).Sign() != 0 {
		t.Fatal("10069 does not divide the G2 cofactor 2p - r")
	}
	var q G2
	if err := q.UnmarshalUnchecked(enc); err != nil {
		t.Fatalf("UnmarshalUnchecked: %v", err)
	}
	if !q.isOnTwist() || q.IsInfinity() {
		t.Fatal("T must be a finite point of the twist")
	}
	if !new(G2).scalarMultRaw(&q, order).IsInfinity() {
		t.Fatal("[10069]T != 0")
	}
	if q.inSubgroup() || inSubgroupByOrder(&q) {
		t.Fatal("T lies in G2")
	}
	if err := new(G2).Unmarshal(enc); err == nil {
		t.Fatal("Unmarshal accepted a point of order 10069")
	}

	p, ok := twistPointAt(&fp2{c0: fpOne})
	if !ok {
		t.Fatal("no twist point with abscissa 1")
	}
	k := new(big.Int).Mul(Order, new(big.Int).Div(cofactor, order))
	if want := new(G2).scalarMultRaw(p, k); !want.Equal(&q) && !want.Equal(new(G2).Neg(&q)) {
		t.Fatal("T is not [r(2p-r)/10069]P for the point with abscissa 1")
	}
}
