package bn254

import (
	"crypto/rand"
	"fmt"
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
