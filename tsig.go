// Package tsig is the public API of this repository: a from-scratch Go
// implementation of Libert, Joye and Yung, "Born and Raised
// Distributively: Fully Distributed Non-Interactive Adaptively-Secure
// Threshold Signatures with Short Shares" (PODC 2014).
//
// The primary scheme (Section 3 of the paper) is a (t, n) threshold
// signature that is
//
//   - fully distributed — the key is generated by the servers themselves
//     with Pedersen's DKG, one broadcast round in the fault-free case;
//   - non-interactive — signing servers send a single message each and
//     never talk to one another;
//   - robust — up to t malformed contributions are detected and discarded;
//   - adaptively secure and erasure-free (Theorem 1 of the paper, under
//     SXDH in the random-oracle model);
//   - short — 512-bit signatures and constant-size (four scalar) shares.
//
// # Object model
//
// The API is organised around three types, and each operation has one
// entry point, on the type that owns the data it reads. A Scheme fixes
// the public parameters (derived from a domain-separation label,
// optionally with the Appendix G aggregation extension) and runs key
// generation and refresh epochs. A Group is the public description of
// one threshold key — the public key, the verification keys, and
// (n, t) — and carries every public-side operation: Verify, ShareVerify,
// Combine, CombinePreverified, batched share verification,
// Byzantine-share location, share recovery (RecoverShare) and binding a
// share to the group (Member). A Member is one server's signing
// identity — the group view plus that server's constant-size private
// share — signs (SignShare, SignBatch), applies refresh epochs
// (ApplyRefresh) and implements crypto.Signer. A bare PublicKey, as a
// remote service advertises it, verifies on its own (PublicKey.Verify).
// A whole round in process:
//
//	scheme := tsig.NewScheme(tsig.WithDomain("my-app/v1"))
//	group, members, err := scheme.Keygen(5, 2) // 5 servers, threshold 2
//	ps1, err := members[0].SignShare(msg)
//	ps3, err := members[2].SignShare(msg)
//	ps5, err := members[4].SignShare(msg)
//	sig, err := group.Combine(msg, []*tsig.PartialSignature{ps1, ps3, ps5})
//	ok := group.Verify(msg, sig)
//
// Every public type has a canonical, length-checked Marshal/Unmarshal
// pair, and failures everywhere wrap the typed sentinel errors
// (ErrInvalidShare, ErrInsufficientShares, ...) so callers dispatch with
// errors.Is.
//
// The sibling packages round out the system: repro/service runs groups
// as a networked signing service (signer daemons plus a coordinator
// gateway with batching, coalescing, and caching) whose daemons also run
// the distributed keygen and proactive refresh over the wire — keys are
// born and raised distributively, with no trusted dealer anywhere — and
// repro/client is the HTTP client for it with a pluggable Transport
// (Sign, SignBatch, RunDKG, RunRefresh).
//
// The internal packages implement every other system of the paper: the
// BN254 pairing substrate (internal/bn254), the one-time linearly
// homomorphic SPS (internal/lhsps), Pedersen's DKG (internal/dkg) over
// the transport-agnostic protocol engine (internal/engine) that drives
// every round-based protocol, in process and over the wire, the
// standard-model construction of Section 4 (internal/stdmodel on
// internal/gs), the DLIN variant of Appendix F (internal/dlin), and the
// baselines the paper compares against (internal/baselines/...).
package tsig

import (
	"fmt"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/keyfile"
)

// Re-exported types of the Section 3 scheme.
type (
	// Params are the common public parameters.
	Params = core.Params
	// PublicKey is PK = (g^_1, g^_2).
	PublicKey = core.PublicKey
	// PrivateKeyShare is a constant-size share SK_i (four scalars).
	PrivateKeyShare = core.PrivateKeyShare
	// VerificationKey is VK_i, enabling public partial-signature checks.
	VerificationKey = core.VerificationKey
	// KeyShares is one server's complete view after Dist-Keygen.
	KeyShares = core.KeyShares
	// PartialSignature is a single server's non-interactive contribution.
	PartialSignature = core.PartialSignature
	// Signature is the 512-bit full signature (z, r).
	Signature = core.Signature

	// Group is the public description of one threshold key: PK, the
	// verification keys, and (n, t), with every public-side operation as
	// a method.
	Group = core.Group
	// Member is one server's signing identity: group view plus private
	// share. It implements crypto.Signer.
	Member = core.Member
	// RefreshEpoch is one proactive zero-sharing refresh run (Section
	// 3.3) that every member applies locally.
	RefreshEpoch = core.RefreshEpoch

	// BatchEntry is one (message, full signature) pair for batched
	// verification.
	BatchEntry = core.BatchEntry
	// ShareBatchEntry is one (message, verification key, partial
	// signature) triple for batched share verification.
	ShareBatchEntry = core.ShareBatchEntry
)

// Aggregation extension of Appendix G (enable with WithAggregation).
type (
	// AggParams extend the parameters with the generators g, h.
	AggParams = core.AggParams
	// AggPublicKey is PK = (g^_1, g^_2, Z, R), carrying the built-in
	// key-validity proof.
	AggPublicKey = core.AggPublicKey
	// AggKeyShares is one server's view after the aggregation-enabled
	// DKG.
	AggKeyShares = core.AggKeyShares
	// AggEntry pairs an aggregation public key with a message (and, for
	// Aggregate, the signature to fold in).
	AggEntry = core.AggEntry
)

// NewGroup builds and validates a Group from one server's Dist-Keygen
// view.
func NewGroup(domain string, n, t int, view *KeyShares) (*Group, error) {
	return core.NewGroup(domain, n, t, view)
}

// Codecs: every public type round-trips through a canonical,
// length-checked encoding. The matching Marshal methods live on the
// types themselves.
var (
	// UnmarshalGroup decodes Group.Marshal (public material only).
	UnmarshalGroup = core.UnmarshalGroup
	// UnmarshalKeyShares decodes KeyShares.Marshal (contains the private
	// share) against the given parameters.
	UnmarshalKeyShares = core.UnmarshalKeyShares
	// UnmarshalPrivateKeyShare decodes PrivateKeyShare.Marshal.
	UnmarshalPrivateKeyShare = core.UnmarshalPrivateKeyShare
	// UnmarshalPublicKey decodes PublicKey.Marshal against the given
	// parameters.
	UnmarshalPublicKey = core.UnmarshalPublicKey
	// UnmarshalVerificationKey decodes VerificationKey.Marshal.
	UnmarshalVerificationKey = core.UnmarshalVerificationKey
	// UnmarshalPartialSignature decodes PartialSignature.Marshal.
	UnmarshalPartialSignature = core.UnmarshalPartialSignature
	// UnmarshalSignature decodes Signature.Marshal.
	UnmarshalSignature = core.UnmarshalSignature
)

// Encoded sizes of the fixed-length codecs, in bytes.
const (
	PublicKeySize        = core.PublicKeySize
	VerificationKeySize  = core.VerificationKeySize
	SignatureSize        = core.SignatureSize
	PartialSignatureSize = core.PartialSignatureSize
	PrivateKeyShareSize  = core.PrivateKeyShareSize
)

// Keystore I/O: the on-disk format tsigcli and tsigd share (group.json
// plus one share-i.json per server). All loading validates the group
// invariants and share bounds, failing fast on corrupt files.

// LoadGroup reads and validates a group file.
func LoadGroup(path string) (*Group, error) { return keyfile.LoadGroup(path) }

// LoadShare reads and validates one server's private share file.
func LoadShare(path string) (*PrivateKeyShare, error) { return keyfile.LoadShare(path) }

// LoadMember loads a group file and a share file together, bounds-
// checking the share index against the group.
func LoadMember(groupPath, sharePath string) (*Member, error) {
	return keyfile.LoadMember(groupPath, sharePath)
}

// WriteGroup writes a group file with 0600 permissions.
func WriteGroup(path string, g *Group) error { return keyfile.WriteGroup(path, g) }

// WriteShare writes one private share file with 0600 permissions.
func WriteShare(path string, sk *PrivateKeyShare) error { return keyfile.WriteShare(path, sk) }

// WriteMember writes one server's complete keystore — group file plus
// private share file — validating that the share belongs to the group
// first. This is the persistence hook the tsigd daemons use after a
// distributed keygen or refresh.
func WriteMember(groupPath, sharePath string, g *Group, sk *PrivateKeyShare) error {
	return keyfile.WriteMember(groupPath, sharePath, g, sk)
}

// SaveKeystore writes a keystore from the object model: group.json for
// the Group plus share-i.json for every Member, into dir.
func SaveKeystore(dir string, g *Group, members []*Member) error {
	if err := keyfile.WriteGroup(filepath.Join(dir, "group.json"), g); err != nil {
		return err
	}
	for _, m := range members {
		path := filepath.Join(dir, fmt.Sprintf("share-%d.json", m.Index()))
		if err := keyfile.WriteShare(path, m.PrivateShare()); err != nil {
			return err
		}
	}
	return nil
}
