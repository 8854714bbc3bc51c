// Package lhsps implements the one-time linearly homomorphic
// structure-preserving signature (LHSPS) of Libert, Peters, Joye and Yung
// (Crypto 2013), as recalled in Section 2.3 of the paper. It is the
// primitive from which the paper's threshold signatures are derived.
//
// The scheme signs vectors (M_1, ..., M_N) in G^N under a public key
// (g^_z, g^_r, {g^_k}) in G^^(N+2):
//
//	sk = {(chi_k, gamma_k)},  g^_k = g^_z^chi_k * g^_r^gamma_k
//	Sign(M) = (z, r) = (prod M_k^-chi_k, prod M_k^-gamma_k)
//	Verify:  e(z, g^_z) * e(r, g^_r) * prod e(M_k, g^_k) == 1
//
// Two properties the threshold constructions exploit: the scheme is
// linearly homomorphic in the message space (SignDerive) and homomorphic
// in the key space: signatures under sk1 and sk2 multiply into a
// signature under sk1+sk2 (the package tests check the latter).
package lhsps

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"repro/internal/bn254"
)

// Params holds the common generators g^_z, g^_r in G2. The paper derives
// them from a random oracle so that nobody knows log_{g^_z}(g^_r); see
// NewParams.
type Params struct {
	Gz, Gr *bn254.G2

	// Fixed-base comb tables for the generators, built lazily: the
	// two-generator Pedersen commitment is the hot operation of the DKG
	// and every LHSPS key generation (see internal/bn254/fixedbase.go).
	precompOnce sync.Once
	gzTables    *bn254.FixedBaseG2
	grTables    *bn254.FixedBaseG2

	// Miller-loop line precomputations for the generators, built lazily:
	// g^_z and g^_r occupy two slots of every pairing check the scheme
	// performs, so their G2-side Miller work is done once per Params.
	pairOnce sync.Once
	gzPrep   *bn254.G2Prepared
	grPrep   *bn254.G2Prepared
}

// PreparedGenerators returns the (lazily built) Miller-loop line
// precomputations for g^_z and g^_r.
func (p *Params) PreparedGenerators() (gz, gr *bn254.G2Prepared) {
	p.pairOnce.Do(func() {
		p.gzPrep = bn254.PrecomputeG2(p.Gz)
		p.grPrep = bn254.PrecomputeG2(p.Gr)
	})
	return p.gzPrep, p.grPrep
}

// precomp returns the (lazily built) fixed-base tables.
func (p *Params) precomp() (*bn254.FixedBaseG2, *bn254.FixedBaseG2) {
	p.precompOnce.Do(func() {
		p.gzTables = bn254.NewFixedBaseG2(p.Gz)
		p.grTables = bn254.NewFixedBaseG2(p.Gr)
	})
	return p.gzTables, p.grTables
}

// NewParams derives params from a domain-separation string via hash-to-G2,
// so no party knows the mutual discrete logarithms (the paper's
// requirement for avoiding an extra distributed-generation round).
func NewParams(domain string) *Params {
	return &Params{
		Gz: bn254.HashToG2(domain+"/gz", nil),
		Gr: bn254.HashToG2(domain+"/gr", nil),
	}
}

// PublicKey is an LHSPS verification key for vectors of dimension N.
type PublicKey struct {
	Params *Params
	// Gk[k] = g^_z^chi_k * g^_r^gamma_k for k = 0..N-1.
	Gk []*bn254.G2

	// Miller-loop line precomputations for Gk, built on first use. They
	// pay off when the key object is reused across verifications — the
	// callers' key caches (core's verification-key and public-key caches)
	// exist precisely to keep these alive.
	prepOnce sync.Once
	gkPrep   []*bn254.G2Prepared
}

// N returns the dimension of signable vectors.
func (pk *PublicKey) N() int { return len(pk.Gk) }

// Prepared returns the (lazily built) line precomputations for Gk.
func (pk *PublicKey) Prepared() []*bn254.G2Prepared {
	pk.prepOnce.Do(func() {
		pk.gkPrep = make([]*bn254.G2Prepared, len(pk.Gk))
		for k, g := range pk.Gk {
			pk.gkPrep[k] = bn254.PrecomputeG2(g)
		}
	})
	return pk.gkPrep
}

// PrivateKey is an LHSPS signing key.
type PrivateKey struct {
	Public *PublicKey
	Chi    []*big.Int
	Gamma  []*big.Int
}

// Signature is a pair (z, r) in G^2.
type Signature struct {
	Z, R *bn254.G1
}

// Keygen generates a key pair for dimension-n vectors under params.
func Keygen(params *Params, n int, rng io.Reader) (*PrivateKey, error) {
	if n < 1 {
		return nil, errors.New("lhsps: dimension must be positive")
	}
	chi := make([]*big.Int, n)
	gamma := make([]*big.Int, n)
	gk := make([]*bn254.G2, n)
	for k := 0; k < n; k++ {
		var err error
		if chi[k], err = bn254.RandScalar(rng); err != nil {
			return nil, fmt.Errorf("lhsps keygen: %w", err)
		}
		if gamma[k], err = bn254.RandScalar(rng); err != nil {
			return nil, fmt.Errorf("lhsps keygen: %w", err)
		}
		gk[k] = commitPair(params, chi[k], gamma[k])
	}
	return &PrivateKey{
		Public: &PublicKey{Params: params, Gk: gk},
		Chi:    chi,
		Gamma:  gamma,
	}, nil
}

// commitPair computes g^_z^a * g^_r^b on the precomputed fixed-base comb
// tables, with no branch or table index on a or b.
func commitPair(params *Params, a, b *big.Int) *bn254.G2 {
	gz, gr := params.precomp()
	return bn254.CommitG2(gz, gr, a, b)
}

// CommitPair exposes the Pedersen-style commitment g^_z^a * g^_r^b used by
// the DKG's verifiable secret sharing.
func CommitPair(params *Params, a, b *big.Int) *bn254.G2 { return commitPair(params, a, b) }

// Sign signs the vector msg (dimension must equal the key dimension).
// The signing algorithm is deterministic — the property that makes the
// derived threshold scheme non-interactive.
func (sk *PrivateKey) Sign(msg []*bn254.G1) (*Signature, error) {
	if len(msg) != len(sk.Chi) {
		return nil, fmt.Errorf("lhsps: vector dimension %d, key dimension %d", len(msg), len(sk.Chi))
	}
	// One table over the message bases serves both secret scalar sets.
	// (z, r) = -(Σ chi_k·M_k, Σ gamma_k·M_k): the two outputs are negated
	// rather than the key, so signing makes no copy of a secret scalar.
	zr, err := bn254.MultiScalarMultSharedG1(msg, sk.Chi, sk.Gamma)
	if err != nil {
		return nil, err
	}
	zr[0].Neg(zr[0])
	zr[1].Neg(zr[1])
	return &Signature{Z: zr[0], R: zr[1]}, nil
}

// SignDerive publicly derives a signature on prod_i M_i^{w_i} from
// signatures on the M_i. Up to bn254.StackPoints signatures it allocates
// only the result.
func SignDerive(weights []*big.Int, sigs []Signature) (*Signature, error) {
	if len(weights) != len(sigs) {
		return nil, errors.New("lhsps: mismatched derive inputs")
	}
	if len(sigs) == 0 {
		return nil, errors.New("lhsps: empty derive inputs")
	}
	var zbuf, rbuf [bn254.StackPoints]*bn254.G1
	zs, rs := zbuf[:0], rbuf[:0]
	for i := range sigs {
		zs = append(zs, sigs[i].Z)
		rs = append(rs, sigs[i].R)
	}
	z, err := bn254.G1MSM(zs, weights)
	if err != nil {
		return nil, err
	}
	r, err := bn254.G1MSM(rs, weights)
	if err != nil {
		return nil, err
	}
	return &Signature{Z: z, R: r}, nil
}

// Verify checks e(z, g^_z) * e(r, g^_r) * prod_k e(M_k, g^_k) == 1 and
// rejects the all-identity vector, per the paper's definition.
func (pk *PublicKey) Verify(msg []*bn254.G1, sig *Signature) bool {
	if sig == nil || sig.Z == nil || sig.R == nil || len(msg) != pk.N() {
		return false
	}
	allInf := true
	for _, m := range msg {
		if m == nil {
			return false
		}
		if !m.IsInfinity() {
			allInf = false
		}
	}
	if allInf {
		return false
	}
	return pk.VerifyRelation(msg, sig)
}

// VerifyRelation checks the verification equation WITHOUT the non-zero
// vector restriction. The threshold schemes use this for partial-signature
// checks where the "message" includes fixed generators. All G2 arguments
// are fixed per key, so the check runs on precomputed Miller-loop lines
// in one product loop.
func (pk *PublicKey) VerifyRelation(msg []*bn254.G1, sig *Signature) bool {
	if sig == nil || sig.Z == nil || sig.R == nil || len(msg) != pk.N() {
		return false
	}
	gzPrep, grPrep := pk.Params.PreparedGenerators()
	gkPrep := pk.Prepared()
	n := pk.N() + 2
	var vals [bn254.StackPoints]bn254.PairingSlot
	var ptrs [bn254.StackPoints]*bn254.PairingSlot
	if n > bn254.StackPoints {
		return bn254.PairingCheckMixed(heapSlots(sig, gzPrep, grPrep, msg, gkPrep))
	}
	vals[0] = bn254.PairingSlot{P: sig.Z, Pre: gzPrep}
	vals[1] = bn254.PairingSlot{P: sig.R, Pre: grPrep}
	for k, pre := range gkPrep {
		vals[k+2] = bn254.PairingSlot{P: msg[k], Pre: pre}
	}
	for k := range n {
		ptrs[k] = &vals[k]
	}
	return bn254.PairingCheckMixed(ptrs[:n])
}

// heapSlots is VerifyRelation's slot list for keys too long for the
// stack. It holds copies of the G1 points, so that no caller's point has
// to live on the heap for the sake of this rare path.
func heapSlots(sig *Signature, gzPrep, grPrep *bn254.G2Prepared, msg []*bn254.G1, gkPrep []*bn254.G2Prepared) []*bn254.PairingSlot {
	slots := []*bn254.PairingSlot{
		{P: new(bn254.G1).Set(sig.Z), Pre: gzPrep},
		{P: new(bn254.G1).Set(sig.R), Pre: grPrep},
	}
	for k, pre := range gkPrep {
		slots = append(slots, &bn254.PairingSlot{P: new(bn254.G1).Set(msg[k]), Pre: pre})
	}
	return slots
}

// Marshal encodes the signature as two compressed G1 points (64 bytes,
// i.e. the paper's 512-bit signature).
func (s *Signature) Marshal() []byte {
	out := make([]byte, 0, 2*bn254.G1SizeCompressed)
	out = append(out, s.Z.MarshalCompressed()...)
	out = append(out, s.R.MarshalCompressed()...)
	return out
}

// Unmarshal decodes a 64-byte signature.
func (s *Signature) Unmarshal(data []byte) error {
	if len(data) != 2*bn254.G1SizeCompressed {
		return fmt.Errorf("lhsps: invalid signature length %d", len(data))
	}
	s.Z = new(bn254.G1)
	s.R = new(bn254.G1)
	if err := s.Z.UnmarshalCompressed(data[:bn254.G1SizeCompressed]); err != nil {
		return fmt.Errorf("lhsps: decoding z: %w", err)
	}
	if err := s.R.UnmarshalCompressed(data[bn254.G1SizeCompressed:]); err != nil {
		return fmt.Errorf("lhsps: decoding r: %w", err)
	}
	return nil
}
