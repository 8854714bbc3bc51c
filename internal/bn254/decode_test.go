package bn254

import (
	"bytes"
	"math/big"
	"testing"
)

// A decoder that fails must not have touched its receiver: a point half
// overwritten with unvalidated coordinates is a live value that silently
// breaks every later operation on it.

func TestFailedDecodeLeavesReceiverUnchanged(t *testing.T) {
	pBytes := make([]byte, 32)
	P.FillBytes(pBytes)

	g1 := new(G1).ScalarBaseMult(big.NewInt(7))
	g2 := new(G2).ScalarBaseMult(big.NewInt(7))
	gt := Pair(g1, g2)

	// Failing inputs, one per way a decode can fail after its first write.
	g1Good := g1.Marshal()
	g1BadY := append(append([]byte{}, g1Good[:32]...), pBytes...)          // y = p: out of range after x decoded
	g1OffCurve := append(append([]byte{}, g1Good[:32]...), g1Good[:32]...) // (x, x): in range, off the curve
	var g1CompOff []byte                                                   // an x with no y
	for x := int64(1); g1CompOff == nil; x++ {
		var fx, rhs fp
		fx.SetInt64(x)
		rhs.Square(&fx)
		rhs.Mul(&rhs, &fx)
		rhs.Add(&rhs, &bG1)
		if !rhs.isSquare() {
			b := fx.Bytes()
			g1CompOff = b[:]
		}
	}
	g1CompRange := append([]byte{}, pBytes...) // x = p
	g1CompRange[0] &^= flagCompressedY | flagInfinity

	g2Good := g2.Marshal()
	g2BadLast := append(append([]byte{}, g2Good[:96]...), pBytes...) // y.c0 = p: three coordinates already decoded
	g2OffTwist := append(append([]byte{}, g2Good[:64]...), g2Good[:64]...)
	outside := hashToTwistPoint("decode-test", []byte("not in G2")) // on the twist, cofactor not cleared
	if outside.inSubgroup() {
		t.Fatal("test point unexpectedly in the subgroup")
	}
	g2Outside := outside.Marshal()
	g2CompOutside := outside.MarshalCompressed()
	g2CompRange := append(append([]byte{}, g2.MarshalCompressed()[:32]...), pBytes...) // x.c0 = p after x.c1 decoded

	gtGood := gt.Marshal()
	gtBadLast := append(append([]byte{}, gtGood[:GTSize-32]...), pBytes...) // eleven coefficients already decoded

	t.Run("G1", func(t *testing.T) {
		for name, in := range map[string][]byte{"y out of range": g1BadY, "off curve": g1OffCurve, "short": g1Good[:63]} {
			got := new(G1).Set(g1)
			if err := got.Unmarshal(in); err == nil {
				t.Fatalf("%s: accepted", name)
			}
			if !got.Equal(g1) || !bytes.Equal(got.Marshal(), g1Good) {
				t.Errorf("%s: failed Unmarshal changed the receiver", name)
			}
		}
		for name, in := range map[string][]byte{"no root": g1CompOff, "x out of range": g1CompRange} {
			got := new(G1).Set(g1)
			if err := got.UnmarshalCompressed(in); err == nil {
				t.Fatalf("compressed %s: accepted", name)
			}
			if !got.Equal(g1) || !bytes.Equal(got.Marshal(), g1Good) {
				t.Errorf("compressed %s: failed decode changed the receiver", name)
			}
		}
	})
	t.Run("G2", func(t *testing.T) {
		for name, in := range map[string][]byte{"y.c0 out of range": g2BadLast, "off twist": g2OffTwist, "outside subgroup": g2Outside} {
			got := new(G2).Set(g2)
			if err := got.Unmarshal(in); err == nil {
				t.Fatalf("%s: accepted", name)
			}
			if !got.Equal(g2) || !bytes.Equal(got.Marshal(), g2Good) {
				t.Errorf("%s: failed Unmarshal changed the receiver", name)
			}
		}
		for name, in := range map[string][]byte{"y.c0 out of range": g2BadLast, "off twist": g2OffTwist} {
			got := new(G2).Set(g2)
			if err := got.UnmarshalUnchecked(in); err == nil {
				t.Fatalf("unchecked %s: accepted", name)
			}
			if !got.Equal(g2) || !bytes.Equal(got.Marshal(), g2Good) {
				t.Errorf("unchecked %s: failed decode changed the receiver", name)
			}
		}
		for name, in := range map[string][]byte{"x.c0 out of range": g2CompRange, "outside subgroup": g2CompOutside} {
			got := new(G2).Set(g2)
			if err := got.UnmarshalCompressed(in); err == nil {
				t.Fatalf("compressed %s: accepted", name)
			}
			if !got.Equal(g2) || !bytes.Equal(got.Marshal(), g2Good) {
				t.Errorf("compressed %s: failed decode changed the receiver", name)
			}
		}
	})
	t.Run("GT", func(t *testing.T) {
		got := new(GT).Set(gt)
		if err := got.Unmarshal(gtBadLast); err == nil {
			t.Fatal("out-of-range coefficient accepted")
		}
		if !got.Equal(gt) || !bytes.Equal(got.Marshal(), gtGood) {
			t.Error("failed Unmarshal changed the receiver")
		}
	})
	t.Run("fp", func(t *testing.T) {
		var want fp
		want.SetInt64(42)
		for name, in := range map[string][]byte{"p": pBytes, "2^256-1": bytes.Repeat([]byte{0xff}, 32), "31 bytes": pBytes[1:], "33 bytes": make([]byte, 33), "empty": nil} {
			got := want
			if got.SetBytes(in) {
				t.Fatalf("SetBytes(%s) accepted", name)
			}
			if !got.Equal(&want) {
				t.Errorf("rejected SetBytes(%s) changed the receiver", name)
			}
		}
	})
}
