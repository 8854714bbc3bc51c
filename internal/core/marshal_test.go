package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// One shared small keygen for the marshalling and combiner tests.
var (
	marshalOnce  sync.Once
	marshalViews []*KeyShares
	marshalP     *Params
)

func marshalFixture(t *testing.T) (*Params, []*KeyShares) {
	t.Helper()
	marshalOnce.Do(func() {
		marshalP = NewParams("marshal-test/v1")
		var err error
		marshalViews, _, err = DistKeygen(marshalP, 3, 1)
		if err != nil {
			t.Fatalf("Dist-Keygen: %v", err)
		}
	})
	if marshalViews == nil {
		t.Fatal("fixture keygen failed")
	}
	return marshalP, marshalViews
}

func TestPublicKeyMarshalRoundTrip(t *testing.T) {
	params, views := marshalFixture(t)
	raw := views[1].PK.Marshal()
	pk, err := UnmarshalPublicKey(params, raw)
	if err != nil {
		t.Fatal(err)
	}
	if !pk.Equal(views[1].PK) {
		t.Fatal("round-trip changed the public key")
	}
	if _, err := UnmarshalPublicKey(params, raw[:len(raw)-1]); err == nil {
		t.Fatal("accepted truncated public key")
	}
	bad := bytes.Clone(raw)
	bad[5] ^= 0xff
	if _, err := UnmarshalPublicKey(params, bad); err == nil {
		t.Fatal("accepted corrupted public key")
	}
}

func TestVerificationKeyMarshalRoundTrip(t *testing.T) {
	_, views := marshalFixture(t)
	for i := 1; i <= 3; i++ {
		raw := views[1].VKs[i].Marshal()
		vk, err := UnmarshalVerificationKey(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !vk.Equal(views[1].VKs[i]) {
			t.Fatalf("round-trip changed VK %d", i)
		}
	}
	if _, err := UnmarshalVerificationKey(nil); err == nil {
		t.Fatal("accepted empty verification key")
	}
}

func TestCombinePreverifiedMatchesCombine(t *testing.T) {
	params, views := marshalFixture(t)
	msg := []byte("preverified combine")
	var parts []*PartialSignature
	for i := 1; i <= 2; i++ {
		ps, err := shareSign(params, views[i].Share, msg)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, ps)
	}
	fast, err := combinePreverified(parts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !views[1].PK.Verify(msg, fast) {
		t.Fatal("CombinePreverified signature invalid")
	}
	slow, err := combine(views[1].PK, views[1].VKs, msg, parts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Z.Equal(slow.Z) || !fast.R.Equal(slow.R) {
		t.Fatal("CombinePreverified and Combine disagree")
	}
	// Duplicate indices collapse; below-threshold input errors.
	if _, err := combinePreverified([]*PartialSignature{parts[0], parts[0]}, 1); err == nil {
		t.Fatal("duplicate shares reached the threshold")
	}
	if _, err := combinePreverified(parts[:1], 1); err == nil {
		t.Fatal("one share reached threshold t=1")
	}
}

func TestPrivateKeyShareMarshalRoundTrip(t *testing.T) {
	_, views := marshalFixture(t)
	for i := 1; i <= 3; i++ {
		raw := views[i].Share.Marshal()
		if len(raw) != PrivateKeyShareSize {
			t.Fatalf("share encoding %d bytes, want %d", len(raw), PrivateKeyShareSize)
		}
		sk, err := UnmarshalPrivateKeyShare(raw)
		if err != nil {
			t.Fatal(err)
		}
		if sk.Index != i || sk.A1.Cmp(views[i].Share.A1) != 0 || sk.B1.Cmp(views[i].Share.B1) != 0 ||
			sk.A2.Cmp(views[i].Share.A2) != 0 || sk.B2.Cmp(views[i].Share.B2) != 0 {
			t.Fatalf("share %d round-trip changed the scalars", i)
		}
		if !bytes.Equal(sk.Marshal(), raw) {
			t.Fatalf("share %d re-encoding differs", i)
		}
	}
	if _, err := UnmarshalPrivateKeyShare(nil); err == nil {
		t.Fatal("accepted empty share encoding")
	}
	raw := views[1].Share.Marshal()
	if _, err := UnmarshalPrivateKeyShare(raw[:len(raw)-1]); err == nil {
		t.Fatal("accepted truncated share encoding")
	}
	// Zero index is invalid.
	bad := bytes.Clone(raw)
	bad[0], bad[1] = 0, 0
	if _, err := UnmarshalPrivateKeyShare(bad); err == nil {
		t.Fatal("accepted share with index 0")
	}
	// A scalar >= r is invalid.
	bad = bytes.Clone(raw)
	for j := 2; j < 2+32; j++ {
		bad[j] = 0xff
	}
	if _, err := UnmarshalPrivateKeyShare(bad); err == nil {
		t.Fatal("accepted share with out-of-range scalar")
	}
}

func TestSignatureMarshalRoundTrip(t *testing.T) {
	params, views := marshalFixture(t)
	msg := []byte("signature codec message")
	var parts []*PartialSignature
	for _, i := range []int{1, 3} {
		ps, err := shareSign(params, views[i].Share, msg)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, ps)
	}
	sig, err := combine(views[1].PK, views[1].VKs, msg, parts, 1)
	if err != nil {
		t.Fatal(err)
	}
	raw := sig.Marshal()
	if len(raw) != SignatureSize {
		t.Fatalf("signature encoding %d bytes, want %d", len(raw), SignatureSize)
	}
	out, err := UnmarshalSignature(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Marshal(), raw) {
		t.Fatal("signature re-encoding differs")
	}
	if !views[1].PK.Verify(msg, out) {
		t.Fatal("decoded signature does not verify")
	}
	if _, err := UnmarshalSignature(raw[:SignatureSize-1]); err == nil {
		t.Fatal("accepted truncated signature")
	}
}

func TestKeySharesMarshalRoundTrip(t *testing.T) {
	params, views := marshalFixture(t)
	raw := views[2].Marshal()
	ks, err := UnmarshalKeyShares(params, raw)
	if err != nil {
		t.Fatal(err)
	}
	if !ks.PK.Equal(views[2].PK) {
		t.Fatal("round-trip changed the public key")
	}
	if ks.Share.Index != 2 || ks.Share.A1.Cmp(views[2].Share.A1) != 0 {
		t.Fatal("round-trip changed the share")
	}
	for i := 1; i <= 3; i++ {
		if !ks.VKs[i].Equal(views[2].VKs[i]) {
			t.Fatalf("round-trip changed VK %d", i)
		}
	}
	if !bytes.Equal(ks.Marshal(), raw) {
		t.Fatal("key shares re-encoding differs")
	}
	// The decoded view must actually sign.
	msg := []byte("keyshares codec sign check")
	ps, err := shareSign(params, ks.Share, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !shareVerify(ks.PK, ks.VKs[2], msg, ps) {
		t.Fatal("decoded key shares produced an invalid partial signature")
	}
	for _, cut := range []int{0, 1, 2, len(raw) - 1} {
		if _, err := UnmarshalKeyShares(params, raw[:cut]); err == nil {
			t.Fatalf("accepted key shares truncated to %d bytes", cut)
		}
	}
	// Out-of-group share index must be rejected.
	bad := bytes.Clone(raw)
	bad[2+PublicKeySize] = 0xff
	if _, err := UnmarshalKeyShares(params, bad); err == nil {
		t.Fatal("accepted key shares with share index outside the group")
	}
}

func TestGroupMarshalRoundTrip(t *testing.T) {
	_, views := marshalFixture(t)
	g, err := NewGroup("marshal-test/v1", 3, 1, views[1])
	if err != nil {
		t.Fatal(err)
	}
	raw := g.Marshal()
	out, err := UnmarshalGroup(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.Domain != g.Domain || out.N != g.N || out.T != g.T || !out.PK.Equal(g.PK) {
		t.Fatal("group round-trip changed the metadata or key")
	}
	for i := 1; i <= 3; i++ {
		if !out.VKs[i].Equal(g.VKs[i]) {
			t.Fatalf("group round-trip changed VK %d", i)
		}
	}
	if !bytes.Equal(out.Marshal(), raw) {
		t.Fatal("group re-encoding differs")
	}
	// The decoded group must verify real signatures (params rebuilt from
	// the embedded domain).
	msg := []byte("group codec verify check")
	ps1, _ := shareSign(out.Params, views[1].Share, msg)
	ps2, _ := shareSign(out.Params, views[2].Share, msg)
	sig, err := out.Combine(msg, []*PartialSignature{ps1, ps2})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verify(msg, sig) {
		t.Fatal("decoded group rejects a valid signature")
	}
	for _, cut := range []int{0, 1, 3, len(raw) - 1} {
		if _, err := UnmarshalGroup(raw[:cut]); err == nil {
			t.Fatalf("accepted group truncated to %d bytes", cut)
		}
	}
	// A t breaking n >= 2t+1 must be rejected.
	bad := bytes.Clone(raw)
	dl := int(bad[0])<<8 | int(bad[1])
	bad[2+dl+3] = 2 // t: 1 -> 2 with n=3
	if _, err := UnmarshalGroup(bad); err == nil {
		t.Fatal("accepted group with n < 2t+1")
	}
}

func TestAggPublicKeyMarshalRoundTrip(t *testing.T) {
	params := NewAggParams("marshal-agg-test/v1")
	views, _, err := AggDistKeygen(params, 3, 1)
	if err != nil {
		t.Fatalf("Agg-Dist-Keygen: %v", err)
	}
	raw := views[1].PK.Marshal()
	if len(raw) != AggPublicKeySize {
		t.Fatalf("encoding is %d bytes, want %d", len(raw), AggPublicKeySize)
	}
	pk, err := UnmarshalAggPublicKey(params, raw)
	if err != nil {
		t.Fatal(err)
	}
	if !pk.Equal(views[1].PK) {
		t.Fatal("round-trip changed the aggregate public key")
	}
	if !pk.SanityCheck() {
		t.Fatal("decoded key fails its validity proof")
	}
	for _, cut := range []int{0, 1, AggPublicKeySize - 1} {
		if _, err := UnmarshalAggPublicKey(params, raw[:cut]); err == nil {
			t.Fatalf("accepted aggregate key truncated to %d bytes", cut)
		} else if !errors.Is(err, ErrInvalidEncoding) {
			t.Fatalf("truncation error is not ErrInvalidEncoding-typed: %v", err)
		}
	}
	// Corrupting any component must fail the point decode or the
	// validity proof — never round-trip silently.
	bad := bytes.Clone(raw)
	bad[7] ^= 0xff
	if _, err := UnmarshalAggPublicKey(params, bad); err == nil {
		t.Fatal("accepted corrupted aggregate public key")
	}
	// A structurally valid encoding under the WRONG parameters must be
	// rejected by the built-in proof: the generators g, h differ.
	other := NewAggParams("marshal-agg-test/v2")
	if _, err := UnmarshalAggPublicKey(other, raw); err == nil {
		t.Fatal("accepted aggregate key under foreign parameters")
	} else if !errors.Is(err, ErrInvalidEncoding) {
		t.Fatalf("foreign-parameter error is not ErrInvalidEncoding-typed: %v", err)
	}
}
