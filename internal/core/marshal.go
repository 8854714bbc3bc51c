package core

import (
	"fmt"
	"math/big"

	"repro/internal/bn254"
)

// This file holds the complete wire codecs of the public API: every type
// that crosses a machine boundary or a keystore file has a canonical,
// length-checked Marshal/Unmarshal pair, and every decode failure wraps
// ErrInvalidEncoding so callers can dispatch with errors.Is.

// Encoded sizes of the fixed-length codecs, in bytes.
const (
	// PublicKeySize is len(PublicKey.Marshal()): two uncompressed G2 points.
	PublicKeySize = 2 * bn254.G2SizeUncompressed
	// VerificationKeySize is len(VerificationKey.Marshal()).
	VerificationKeySize = 2 * bn254.G2SizeUncompressed
	// SignatureSize is len(Signature.Marshal()): two compressed G1 points —
	// the paper's 512-bit figure.
	SignatureSize = 2 * bn254.G1SizeCompressed
	// PartialSignatureSize is len(PartialSignature.Marshal()).
	PartialSignatureSize = 2 + 2*bn254.G1SizeCompressed
	// PrivateKeyShareSize is len(PrivateKeyShare.Marshal()): a 2-byte
	// index plus the four 32-byte scalars (the paper's constant-size
	// shares).
	PrivateKeyShareSize = 2 + 4*scalarSize
	// AggPublicKeySize is len(AggPublicKey.Marshal()): two uncompressed
	// G2 points plus the two uncompressed G1 validity-proof points.
	AggPublicKeySize = 2*bn254.G2SizeUncompressed + 2*bn254.G1SizeUncompressed
)

const scalarSize = 32

// Marshal returns the canonical encoding V^_1,i || V^_2,i (two
// uncompressed G2 points, 256 bytes), matching PublicKey.Marshal.
func (vk *VerificationKey) Marshal() []byte {
	out := make([]byte, 0, VerificationKeySize)
	out = append(out, vk.V1.Marshal()...)
	out = append(out, vk.V2.Marshal()...)
	return out
}

// UnmarshalVerificationKey decodes the VerificationKey.Marshal encoding.
func UnmarshalVerificationKey(data []byte) (*VerificationKey, error) {
	if len(data) != VerificationKeySize {
		return nil, fmt.Errorf("core: verification key length %d, want %d: %w", len(data), VerificationKeySize, ErrInvalidEncoding)
	}
	vk := &VerificationKey{V1: new(bn254.G2), V2: new(bn254.G2)}
	if err := vk.V1.Unmarshal(data[:bn254.G2SizeUncompressed]); err != nil {
		return nil, fmt.Errorf("core: verification key v1: %w (%w)", err, ErrInvalidEncoding)
	}
	if err := vk.V2.Unmarshal(data[bn254.G2SizeUncompressed:]); err != nil {
		return nil, fmt.Errorf("core: verification key v2: %w (%w)", err, ErrInvalidEncoding)
	}
	return vk, nil
}

// UnmarshalPublicKey decodes the PublicKey.Marshal encoding against the
// given parameters.
func UnmarshalPublicKey(params *Params, data []byte) (*PublicKey, error) {
	if len(data) != PublicKeySize {
		return nil, fmt.Errorf("core: public key length %d, want %d: %w", len(data), PublicKeySize, ErrInvalidEncoding)
	}
	pk := &PublicKey{Params: params, G1: new(bn254.G2), G2: new(bn254.G2)}
	if err := pk.G1.Unmarshal(data[:bn254.G2SizeUncompressed]); err != nil {
		return nil, fmt.Errorf("core: public key g^_1: %w (%w)", err, ErrInvalidEncoding)
	}
	if err := pk.G2.Unmarshal(data[bn254.G2SizeUncompressed:]); err != nil {
		return nil, fmt.Errorf("core: public key g^_2: %w (%w)", err, ErrInvalidEncoding)
	}
	return pk, nil
}

// UnmarshalAggPublicKey decodes the AggPublicKey.Marshal encoding
// (g^_1 || g^_2 || Z || R) against the given aggregation parameters and
// checks the built-in key-validity proof, so a decoded key is always a
// sane one.
func UnmarshalAggPublicKey(params *AggParams, data []byte) (*AggPublicKey, error) {
	if len(data) != AggPublicKeySize {
		return nil, fmt.Errorf("core: aggregate public key length %d, want %d: %w", len(data), AggPublicKeySize, ErrInvalidEncoding)
	}
	pk := &AggPublicKey{
		Params: params,
		G1:     new(bn254.G2), G2: new(bn254.G2),
		Z: new(bn254.G1), R: new(bn254.G1),
	}
	off := 0
	for _, part := range []struct {
		name string
		dec  func([]byte) error
		size int
	}{
		{"g^_1", pk.G1.Unmarshal, bn254.G2SizeUncompressed},
		{"g^_2", pk.G2.Unmarshal, bn254.G2SizeUncompressed},
		{"z", pk.Z.Unmarshal, bn254.G1SizeUncompressed},
		{"r", pk.R.Unmarshal, bn254.G1SizeUncompressed},
	} {
		if err := part.dec(data[off : off+part.size]); err != nil {
			return nil, fmt.Errorf("core: aggregate public key %s: %w (%w)", part.name, err, ErrInvalidEncoding)
		}
		off += part.size
	}
	if !pk.SanityCheck() {
		return nil, fmt.Errorf("core: aggregate public key fails its validity proof: %w", ErrInvalidEncoding)
	}
	return pk, nil
}

// UnmarshalSignature decodes the Signature.Marshal encoding (two
// compressed G1 points).
func UnmarshalSignature(data []byte) (*Signature, error) {
	sig := new(Signature)
	if err := sig.Unmarshal(data); err != nil {
		return nil, fmt.Errorf("core: signature: %w (%w)", err, ErrInvalidEncoding)
	}
	return sig, nil
}

// Validate checks the structural invariants of a share: a positive
// 16-bit index and four scalars in [0, r). It is the gate every decoder
// and keystore loader funnels through.
func (sk *PrivateKeyShare) Validate() error {
	if sk.Index < 1 || sk.Index > 0xffff {
		return fmt.Errorf("core: share index %d outside 1..65535: %w", sk.Index, ErrIndexOutOfRange)
	}
	for _, s := range []struct {
		name string
		v    *big.Int
	}{{"a1", sk.A1}, {"b1", sk.B1}, {"a2", sk.A2}, {"b2", sk.B2}} {
		if s.v == nil {
			return fmt.Errorf("core: share scalar %s missing: %w", s.name, ErrInvalidEncoding)
		}
		if s.v.Sign() < 0 || s.v.Cmp(bn254.Order) >= 0 {
			return fmt.Errorf("core: share scalar %s out of range [0, r): %w", s.name, ErrInvalidEncoding)
		}
	}
	return nil
}

// Marshal returns the canonical encoding of the share: the 2-byte
// big-endian index followed by the four 32-byte big-endian scalars
// A1 || B1 || A2 || B2 (130 bytes). This is SECRET key material — handle
// the bytes accordingly.
func (sk *PrivateKeyShare) Marshal() []byte {
	out := make([]byte, 2, PrivateKeyShareSize)
	out[0] = byte(sk.Index >> 8)
	out[1] = byte(sk.Index)
	for _, v := range []*big.Int{sk.A1, sk.B1, sk.A2, sk.B2} {
		var buf [scalarSize]byte
		new(big.Int).Mod(v, bn254.Order).FillBytes(buf[:])
		out = append(out, buf[:]...)
	}
	return out
}

// UnmarshalPrivateKeyShare decodes the PrivateKeyShare.Marshal encoding,
// rejecting out-of-range scalars and a zero index.
func UnmarshalPrivateKeyShare(data []byte) (*PrivateKeyShare, error) {
	if len(data) != PrivateKeyShareSize {
		return nil, fmt.Errorf("core: private key share length %d, want %d: %w", len(data), PrivateKeyShareSize, ErrInvalidEncoding)
	}
	sk := &PrivateKeyShare{Index: int(data[0])<<8 | int(data[1])}
	scalars := make([]*big.Int, 4)
	for k := range scalars {
		scalars[k] = new(big.Int).SetBytes(data[2+k*scalarSize : 2+(k+1)*scalarSize])
	}
	sk.A1, sk.B1, sk.A2, sk.B2 = scalars[0], scalars[1], scalars[2], scalars[3]
	if err := sk.Validate(); err != nil {
		return nil, err
	}
	return sk, nil
}

// Marshal returns the canonical encoding of a full post-DKG view:
//
//	[2-byte n] || PK || SK_i || VK_1 || ... || VK_n
//
// (2 + 256 + 130 + 256n bytes). The parameters are NOT embedded — they
// are rebuilt from the domain label at decode time, exactly as every
// server derives them. The bytes contain the private share.
func (ks *KeyShares) Marshal() []byte {
	n := len(ks.VKs) - 1
	out := make([]byte, 2, 2+PublicKeySize+PrivateKeyShareSize+n*VerificationKeySize)
	out[0] = byte(n >> 8)
	out[1] = byte(n)
	out = append(out, ks.PK.Marshal()...)
	out = append(out, ks.Share.Marshal()...)
	for i := 1; i <= n; i++ {
		out = append(out, ks.VKs[i].Marshal()...)
	}
	return out
}

// UnmarshalKeyShares decodes the KeyShares.Marshal encoding against the
// given parameters, length-checking every component and validating that
// the share index lies in 1..n.
func UnmarshalKeyShares(params *Params, data []byte) (*KeyShares, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("core: key shares truncated: %w", ErrInvalidEncoding)
	}
	n := int(data[0])<<8 | int(data[1])
	want := 2 + PublicKeySize + PrivateKeyShareSize + n*VerificationKeySize
	if n < 1 || len(data) != want {
		return nil, fmt.Errorf("core: key shares length %d, want %d for n=%d: %w", len(data), want, n, ErrInvalidEncoding)
	}
	off := 2
	pk, err := UnmarshalPublicKey(params, data[off:off+PublicKeySize])
	if err != nil {
		return nil, err
	}
	off += PublicKeySize
	share, err := UnmarshalPrivateKeyShare(data[off : off+PrivateKeyShareSize])
	if err != nil {
		return nil, err
	}
	off += PrivateKeyShareSize
	if share.Index > n {
		return nil, fmt.Errorf("core: share index %d outside group 1..%d: %w", share.Index, n, ErrIndexOutOfRange)
	}
	vks := make([]*VerificationKey, n+1)
	for i := 1; i <= n; i++ {
		if vks[i], err = UnmarshalVerificationKey(data[off : off+VerificationKeySize]); err != nil {
			return nil, fmt.Errorf("core: key shares vk %d: %w", i, err)
		}
		off += VerificationKeySize
	}
	return &KeyShares{PK: pk, Share: share, VKs: vks}, nil
}
