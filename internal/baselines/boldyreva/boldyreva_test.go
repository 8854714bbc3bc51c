package boldyreva

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	mrand "math/rand"
	"testing"

	"repro/internal/bn254"
)

func deal(t *testing.T, n, thr int) (*PublicKey, []*KeyShare, []*bn254.G2) {
	t.Helper()
	params := NewParams("boldyreva-test")
	pk, shares, err := Deal(params, n, thr, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	vks := make([]*bn254.G2, n+1)
	for i := 1; i <= n; i++ {
		vks[i] = shares[i].VK
	}
	return pk, shares, vks
}

func TestEndToEnd(t *testing.T) {
	pk, shares, vks := deal(t, 5, 2)
	msg := []byte("threshold BLS baseline")
	var parts []*PartialSignature
	for _, i := range []int{1, 3, 5} {
		parts = append(parts, ShareSign(pk.Params, shares[i], msg))
	}
	sig, err := Combine(pk, vks, msg, parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(pk, msg, sig) {
		t.Fatal("combined signature rejected")
	}
	if Verify(pk, []byte("other"), sig) {
		t.Fatal("verified wrong message")
	}
}

func TestShareVerifyAndRobustness(t *testing.T) {
	pk, shares, vks := deal(t, 5, 2)
	msg := []byte("robust")
	ps := ShareSign(pk.Params, shares[2], msg)
	if !ShareVerify(pk.Params, vks[2], msg, ps) {
		t.Fatal("valid share rejected")
	}
	if ShareVerify(pk.Params, vks[3], msg, ps) {
		t.Fatal("share accepted under wrong VK")
	}
	junk := &PartialSignature{Index: 1, S: bn254.HashToG1("junk", nil)}
	good := []*PartialSignature{
		ShareSign(pk.Params, shares[2], msg),
		ShareSign(pk.Params, shares[3], msg),
		ShareSign(pk.Params, shares[4], msg),
	}
	sig, err := Combine(pk, vks, msg, append([]*PartialSignature{junk}, good...), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(pk, msg, sig) {
		t.Fatal("robust combine failed")
	}
	if _, err := Combine(pk, vks, msg, good[:2], 2); err == nil {
		t.Fatal("combined below threshold")
	}
}

func TestSignatureSizeIs256Bits(t *testing.T) {
	pk, shares, vks := deal(t, 3, 1)
	msg := []byte("size")
	parts := []*PartialSignature{
		ShareSign(pk.Params, shares[1], msg),
		ShareSign(pk.Params, shares[2], msg),
	}
	sig, err := Combine(pk, vks, msg, parts, 1)
	if err != nil {
		t.Fatal(err)
	}
	raw := sig.Marshal()
	if len(raw)*8 != 256 {
		t.Fatalf("signature is %d bits", len(raw)*8)
	}
	var back Signature
	if err := back.Unmarshal(raw); err != nil {
		t.Fatal(err)
	}
	if !Verify(pk, msg, &back) {
		t.Fatal("round trip failed")
	}
	if got := shares[1].SizeBytes(); got != 32 {
		t.Fatalf("share size %d", got)
	}
}

func TestDealValidation(t *testing.T) {
	params := NewParams("x")
	if _, _, err := Deal(params, 2, 2, rand.Reader); err == nil {
		t.Fatal("accepted n < t+1")
	}
}

// TestDealKeysAreUnchanged pins the public key and every verification key
// of a seeded deal: they are derived on the constant-time comb and must be
// the bytes the variable-time ladder gives.
func TestDealKeysAreUnchanged(t *testing.T) {
	params := NewParams("boldyreva-golden")
	pk, shares, err := Deal(params, 5, 2, mrand.New(mrand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(pk.PK.Marshal())
	for i := 1; i <= 5; i++ {
		if want := new(bn254.G2).ScalarMult(params.Gen, shares[i].X); !shares[i].VK.Equal(want) {
			t.Fatalf("VK_%d differs from g^^x_%d", i, i)
		}
		h.Write(shares[i].VK.Marshal())
	}
	const golden = "c6de96ea38fe71bee98f32790b9bcd7e73702dd81c6a3ad119432d36b4e8143a"
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Fatalf("key bytes digest %s, want %s", got, golden)
	}
}

// TestShareSignMatchesScalarMult: Share-Sign on the regular ladder gives
// the bytes of the variable-time G1.ScalarMult, for edge and random
// shares.
func TestShareSignMatchesScalarMult(t *testing.T) {
	params := NewParams("boldyreva-ladder")
	random, err := bn254.RandScalar(mrand.New(mrand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		x    *big.Int
	}{
		{"zero", big.NewInt(0)},
		{"one", big.NewInt(1)},
		{"r-1", new(big.Int).Sub(bn254.Order, big.NewInt(1))},
		{"r+5", new(big.Int).Add(bn254.Order, big.NewInt(5))},
		{"random", random},
	} {
		for _, msg := range []string{"", "m", "a longer message"} {
			share := &KeyShare{Index: 3, X: tc.x}
			want := new(bn254.G1).ScalarMult(params.HashMessage([]byte(msg)), tc.x)
			if got := ShareSign(params, share, []byte(msg)); !got.S.Equal(want) || got.Index != 3 {
				t.Fatalf("%s, %q: Share-Sign differs from G1.ScalarMult", tc.name, msg)
			}
		}
	}
}
