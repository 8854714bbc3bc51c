package core

import (
	"crypto"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/bn254"
)

// This file defines the object model of the scheme. A Group is the
// shared public description of one (t, n) threshold key — the public key,
// the verification keys VK_1..VK_n and t, but no secrets — and a Member
// is one server's signing identity inside it: the group view plus that
// server's constant-size private key share SK_i. Each operation lives on
// the type that owns what it reads: Share-Sign (Member.SignShare) reads
// only the share; Share-Verify, Combine and share recovery read the
// verification keys and t (Group); Verify reads only the public key
// (PublicKey.Verify, which Group.Verify forwards to).

// Group is the public portion of a key group: the domain label the
// parameters derive from, the sizes (n, t), the public key and the
// 1-based verification key vector.
type Group struct {
	Domain string
	N, T   int
	Params *Params
	PK     *PublicKey
	// VKs[i] is signer i's verification key, 1-based (index 0 nil).
	VKs []*VerificationKey

	// Guards the one-time warm-up of the group's pairing precompute; see
	// Precompute.
	precompOnce sync.Once
}

// Precompute eagerly builds the Miller-loop line precomputations that
// every signature check consumes: the generators g^_z, g^_r and the public
// key slots (g^_1, g^_2). A verification key's tables are built on its
// first Share-Verify, by the once-only cache behind VerificationKey, so a
// signer no one ever accuses costs nothing here. It reports whether THIS
// call performed the build — false when a previous call (or lazy first
// use) already warmed the group — which is what the service tier's rebuild
// counter observes.
//
// Epoch invalidation is structural: a refresh or rotation produces a NEW
// Group with NEW VerificationKey objects (ApplyRefresh), so stale line
// precomputations cannot outlive the key material they were derived from.
// The unchanged *Params and *PublicKey objects are carried over, and their
// caches — still valid, the public key survives a refresh — are reused.
func (g *Group) Precompute() bool {
	built := false
	g.precompOnce.Do(func() {
		built = true
		g.Params.LH.PreparedGenerators()
		g.PK.lhspsKey().Prepared()
	})
	return built
}

// NewGroup builds and validates a Group from one server's Dist-Keygen
// view. Every server derives the identical Group, so which view is used
// does not matter.
func NewGroup(domain string, n, t int, view *KeyShares) (*Group, error) {
	g := &Group{
		Domain: domain, N: n, T: t,
		Params: view.PK.Params, PK: view.PK, VKs: view.VKs,
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Validate checks the structural invariants every Group must satisfy:
// n >= 2t+1 (the protocol's robustness bound), t >= 1, and a complete
// 1-based verification key vector. Loaders (keyfile, UnmarshalGroup)
// funnel through it so a corrupt group description fails fast with a
// clear error instead of deep inside Combine.
func (g *Group) Validate() error {
	if g.N < 3 || g.T < 1 || g.N < 2*g.T+1 {
		return fmt.Errorf("core: bad group size n=%d t=%d (need t >= 1 and n >= 2t+1): %w", g.N, g.T, ErrInvalidEncoding)
	}
	if g.PK == nil || g.PK.G1 == nil || g.PK.G2 == nil || g.Params == nil {
		return fmt.Errorf("core: group public key incomplete: %w", ErrInvalidEncoding)
	}
	if len(g.VKs) != g.N+1 {
		return fmt.Errorf("core: group lists %d verification keys, want %d: %w", len(g.VKs)-1, g.N, ErrInvalidEncoding)
	}
	for i := 1; i <= g.N; i++ {
		if g.VKs[i] == nil || g.VKs[i].V1 == nil || g.VKs[i].V2 == nil {
			return fmt.Errorf("core: verification key %d incomplete: %w", i, ErrInvalidEncoding)
		}
	}
	return nil
}

// VerificationKey returns signer i's verification key, or nil when i is
// outside 1..n.
func (g *Group) VerificationKey(i int) *VerificationKey {
	if i < 1 || i >= len(g.VKs) {
		return nil
	}
	return g.VKs[i]
}

// Verify checks a full threshold signature on msg under the group key;
// see PublicKey.Verify.
func (g *Group) Verify(msg []byte, sig *Signature) bool {
	return g.PK.Verify(msg, sig)
}

// ShareVerify publicly checks signer ps.Index's partial signature on msg.
func (g *Group) ShareVerify(msg []byte, ps *PartialSignature) bool {
	if ps == nil {
		return false
	}
	vk := g.VerificationKey(ps.Index)
	if vk == nil {
		return false
	}
	return shareVerify(g.PK, vk, msg, ps)
}

// Combine assembles the unique full signature on msg from any t+1 valid
// partial signatures, discarding invalid ones (robustness). The error
// wraps ErrInsufficientShares when too few valid shares remain, and
// additionally ErrInvalidShare when invalid contributions were dropped on
// the way.
func (g *Group) Combine(msg []byte, parts []*PartialSignature) (*Signature, error) {
	return combine(g.PK, g.VKs, msg, parts, g.T)
}

// CombinePreverified interpolates a full signature from partial
// signatures WITHOUT the Share-Verify pairing products Combine performs —
// the combiner's hot path. The caller owes the check: either every part
// already passed ShareVerify, or — the service layer's optimistic path —
// the result is put through Verify before it is used, and a failure sends
// the parts to CheckShares. Duplicate indices are collapsed; the first
// t+1 distinct indices are interpolated.
func (g *Group) CombinePreverified(parts []*PartialSignature) (*Signature, error) {
	var buf [bn254.StackPoints]*PartialSignature
	chosen := buf[:0]
	for _, ps := range parts {
		if len(chosen) == g.T+1 {
			break
		}
		if ps == nil || ps.Index < 1 || ps.Z == nil || ps.R == nil ||
			slices.ContainsFunc(chosen, func(q *PartialSignature) bool { return q.Index == ps.Index }) {
			continue
		}
		chosen = append(chosen, ps)
	}
	if len(chosen) < g.T+1 {
		return nil, fmt.Errorf("core: %d distinct partial signatures, need %d: %w",
			len(chosen), g.T+1, ErrInsufficientShares)
	}
	out, err := interpolate(chosen)
	if err != nil {
		return nil, fmt.Errorf("core: CombinePreverified: %w", err)
	}
	return out, nil
}

// BatchVerify checks k full signatures under the group key; see
// PublicKey.BatchVerify.
func (g *Group) BatchVerify(entries []BatchEntry, rng io.Reader) (bool, error) {
	return g.PK.BatchVerify(entries, rng)
}

// shareEntries builds the ShareBatchEntry vector for parts all signing
// msg, resolving each signer's verification key by index. Out-of-range
// indices get a nil VK, which the batch primitives report as invalid.
func (g *Group) shareEntries(msg []byte, parts []*PartialSignature) []ShareBatchEntry {
	entries := make([]ShareBatchEntry, len(parts))
	for j, ps := range parts {
		entries[j] = ShareBatchEntry{Msg: msg, PS: ps}
		if ps != nil {
			entries[j].VK = g.VerificationKey(ps.Index)
		}
	}
	return entries
}

// BatchShareVerify checks k partial signatures on the same message with
// one batched multi-pairing. It returns true only if (with probability
// 1 - 2^-128) every share is individually valid; use FindInvalidShares to
// pinpoint the bad ones after a failure. rng defaults to crypto/rand.
func (g *Group) BatchShareVerify(msg []byte, parts []*PartialSignature, rng io.Reader) (bool, error) {
	return BatchShareVerify(g.PK, g.shareEntries(msg, parts), rng)
}

// FindInvalidShares pinpoints the invalid entries among partial
// signatures on msg by batched bisection, returning the positions (into
// parts) of the bad ones, sorted ascending.
func (g *Group) FindInvalidShares(msg []byte, parts []*PartialSignature, rng io.Reader) []int {
	return FindInvalidShares(g.PK, g.shareEntries(msg, parts), rng)
}

// Member binds a private key share to this group, validating the group,
// the share's structure and that its index lies in 1..n. The same share
// object may back any number of Members.
func (g *Group) Member(share *PrivateKeyShare) (*Member, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if share == nil {
		return nil, fmt.Errorf("core: nil private key share: %w", ErrInvalidEncoding)
	}
	if err := share.Validate(); err != nil {
		return nil, err
	}
	if share.Index > g.N {
		return nil, fmt.Errorf("core: share index %d outside group 1..%d: %w", share.Index, g.N, ErrIndexOutOfRange)
	}
	return &Member{group: g, share: share}, nil
}

// Marshal returns the canonical public encoding of the group:
//
//	[2-byte domain length] || domain || [2-byte n] || [2-byte t] ||
//	PK || VK_1 || ... || VK_n
//
// No secrets are included; UnmarshalGroup rebuilds the parameters from
// the embedded domain label.
func (g *Group) Marshal() []byte {
	out := make([]byte, 0, 6+len(g.Domain)+PublicKeySize+g.N*VerificationKeySize)
	out = append(out, byte(len(g.Domain)>>8), byte(len(g.Domain)))
	out = append(out, g.Domain...)
	out = append(out, byte(g.N>>8), byte(g.N), byte(g.T>>8), byte(g.T))
	out = append(out, g.PK.Marshal()...)
	for i := 1; i <= g.N; i++ {
		out = append(out, g.VKs[i].Marshal()...)
	}
	return out
}

// UnmarshalGroup decodes the Group.Marshal encoding, length-checking
// every component and enforcing the group invariants (n >= 2t+1, complete
// verification keys).
func UnmarshalGroup(data []byte) (*Group, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("core: group truncated: %w", ErrInvalidEncoding)
	}
	dl := int(data[0])<<8 | int(data[1])
	if len(data) < 2+dl+4 {
		return nil, fmt.Errorf("core: group truncated after domain: %w", ErrInvalidEncoding)
	}
	domain := string(data[2 : 2+dl])
	off := 2 + dl
	n := int(data[off])<<8 | int(data[off+1])
	t := int(data[off+2])<<8 | int(data[off+3])
	off += 4
	want := off + PublicKeySize + n*VerificationKeySize
	if len(data) != want {
		return nil, fmt.Errorf("core: group length %d, want %d for n=%d: %w", len(data), want, n, ErrInvalidEncoding)
	}
	params := NewParams(domain)
	pk, err := UnmarshalPublicKey(params, data[off:off+PublicKeySize])
	if err != nil {
		return nil, err
	}
	off += PublicKeySize
	vks := make([]*VerificationKey, n+1)
	for i := 1; i <= n; i++ {
		if vks[i], err = UnmarshalVerificationKey(data[off : off+VerificationKeySize]); err != nil {
			return nil, fmt.Errorf("core: group vk %d: %w", i, err)
		}
		off += VerificationKeySize
	}
	g := &Group{Domain: domain, N: n, T: t, Params: params, PK: pk, VKs: vks}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Member is one server's signing identity: the public group view plus the
// server's private key share. It implements crypto.Signer — Public
// returns the group's threshold public key and Sign produces the server's
// marshalled partial signature — so a share slots into stdlib-shaped
// signing code.
type Member struct {
	group *Group
	share *PrivateKeyShare
}

// Index returns the member's 1-based server index.
func (m *Member) Index() int { return m.share.Index }

// Group returns the member's public group view.
func (m *Member) Group() *Group { return m.group }

// PrivateShare returns the member's private key share — secret material.
func (m *Member) PrivateShare() *PrivateKeyShare { return m.share }

// Public implements crypto.Signer: it returns the GROUP public key
// (*PublicKey) that the combined threshold signature verifies under —
// members have no individual public key, only the public verification
// key VK_i for their partial signatures.
func (m *Member) Public() crypto.PublicKey { return m.group.PK }

// Sign implements crypto.Signer: it returns the member's marshalled
// partial signature on message (PartialSignatureSize bytes, decodable
// with UnmarshalPartialSignature). Like ed25519, the scheme hashes the
// full message internally, so opts.HashFunc() must be zero (no
// pre-hashing) and rand is unused — partial signing is deterministic.
func (m *Member) Sign(_ io.Reader, message []byte, opts crypto.SignerOpts) ([]byte, error) {
	if opts != nil && opts.HashFunc() != crypto.Hash(0) {
		return nil, fmt.Errorf("core: member signs the full message; pre-hashed input (%v) is not supported", opts.HashFunc())
	}
	ps, err := m.SignShare(message)
	if err != nil {
		return nil, err
	}
	return ps.Marshal(), nil
}

// SignShare produces the member's partial signature on msg: two hash-on-
// curve operations and two 2-base multi-exponentiations, no interaction
// with other members.
func (m *Member) SignShare(msg []byte) (*PartialSignature, error) {
	h := m.group.Params.HashMessage(msg)
	sig, err := m.share.sign(h)
	if err != nil {
		return nil, fmt.Errorf("core: Share-Sign: %w", err)
	}
	return &PartialSignature{Index: m.share.Index, Z: sig.Z, R: sig.R}, nil
}

// SignBatch produces partial signatures for every message. The slice has
// one entry per message, in order; the first failure aborts (partial
// signing has no per-message failure modes short of a broken share).
func (m *Member) SignBatch(msgs [][]byte) ([]*PartialSignature, error) {
	out := make([]*PartialSignature, len(msgs))
	for j, msg := range msgs {
		ps, err := m.SignShare(msg)
		if err != nil {
			return nil, fmt.Errorf("core: batch message %d: %w", j, err)
		}
		out[j] = ps
	}
	return out, nil
}

// RecoverShare restores the lost member's private share from t+1 helper
// members WITHOUT reconstructing the secret and without revealing the
// helpers' shares (Section 3.3, after Herzberg et al.). The recovered
// share is checked against the public verification key VK_lost before a
// Member is returned.
func (g *Group) RecoverShare(helpers []*Member, lost int, rng io.Reader) (*Member, error) {
	if lost < 1 || lost > g.N {
		return nil, fmt.Errorf("core: lost index %d outside group 1..%d: %w", lost, g.N, ErrIndexOutOfRange)
	}
	views := make([]*KeyShares, g.N+1)
	for i := 1; i <= g.N; i++ {
		views[i] = &KeyShares{PK: g.PK, VKs: g.VKs}
	}
	helperIdx := make([]int, 0, len(helpers))
	for _, h := range helpers {
		if h == nil {
			return nil, fmt.Errorf("core: nil helper member")
		}
		views[h.Index()].Share = h.share
		helperIdx = append(helperIdx, h.Index())
	}
	share, err := recoverShare(views, g.T, lost, helperIdx, rng)
	if err != nil {
		return nil, err
	}
	return g.Member(share)
}
