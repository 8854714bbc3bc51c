package lhsps

import (
	"io"

	"repro/internal/bn254"
)

// This file implements the generic transform of Appendix D.1 (instantiated
// with K = 1, i.e. under DDH): any one-time LHSPS becomes a fully secure
// ordinary signature scheme in the random oracle model by hashing the
// message to a vector of K+1 = 2 group elements and signing that vector.
// The result is exactly the centralized version of the paper's Section 3
// threshold scheme; the tests use it as a reference.

// ROScheme is a full-fledged (non-threshold) signature scheme built from
// the one-time LHSPS via a random oracle.
type ROScheme struct {
	// Domain separates the H: {0,1}* -> G^2 random oracle.
	Domain string
	// Dim is the hash vector dimension (2 for the DDH instantiation).
	Dim int
}

// NewROScheme returns the K=1 (DDH) instantiation used by the paper.
func NewROScheme(domain string) *ROScheme {
	return &ROScheme{Domain: domain, Dim: 2}
}

// Keygen generates a signing key: an LHSPS key for dimension-Dim vectors.
func (s *ROScheme) Keygen(params *Params, rng io.Reader) (*PrivateKey, error) {
	return Keygen(params, s.Dim, rng)
}

// HashMessage maps a message to the vector (H_1, ..., H_Dim) in G^Dim.
func (s *ROScheme) HashMessage(msg []byte) []*bn254.G1 {
	return bn254.HashToG1Vector(s.Domain, msg, s.Dim)
}

// Sign signs an arbitrary bit-string message.
func (s *ROScheme) Sign(sk *PrivateKey, msg []byte) (*Signature, error) {
	return sk.Sign(s.HashMessage(msg))
}

// Verify verifies an ordinary signature on msg.
func (s *ROScheme) Verify(pk *PublicKey, msg []byte, sig *Signature) bool {
	return pk.Verify(s.HashMessage(msg), sig)
}
