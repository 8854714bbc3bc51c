// Package keyfile defines the on-disk keystore produced by Dist-Keygen
// and consumed by every front end (tsigcli, tsigd): a public group file
// (group.json) describing PK, the verification keys and the threshold,
// and one private share file (share-i.json) per server, holding the
// canonical core codec encoding of the share (one hex blob per file).
//
// All validation funnels through the core types: LoadGroup enforces the
// group invariants (n >= 2t+1, complete verification keys) and LoadShare
// the share invariants (positive index, scalars in range), so a corrupt
// keystore fails fast at load time with a clear error instead of deep
// inside Combine.
package keyfile

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
)

// Group is the public portion of a key group. It is the core object
// model's Group: everything needed to verify partial and full
// signatures, but no secrets.
type Group = core.Group

// groupJSON is the serialized schema (hex-encoded group elements).
type groupJSON struct {
	Domain string   `json:"domain"`
	N      int      `json:"n"`
	T      int      `json:"t"`
	PK1    string   `json:"pk_g1"` // hex of g^_1
	PK2    string   `json:"pk_g2"` // hex of g^_2
	VK1    []string `json:"vk_v1"` // hex of V^_1,i (1-based; index 0 empty)
	VK2    []string `json:"vk_v2"`
}

// shareJSON is one server's private share: the canonical
// core.PrivateKeyShare encoding, with the index repeated in the clear.
type shareJSON struct {
	Index int    `json:"index"`
	Share string `json:"share,omitempty"` // hex of PrivateKeyShare.Marshal
}

// WriteGroup writes the group file at path with 0600 permissions.
func WriteGroup(path string, g *Group) error {
	gj := groupJSON{
		Domain: g.Domain, N: g.N, T: g.T,
		PK1: hex.EncodeToString(g.PK.G1.Marshal()),
		PK2: hex.EncodeToString(g.PK.G2.Marshal()),
		VK1: make([]string, g.N+1),
		VK2: make([]string, g.N+1),
	}
	for i := 1; i <= g.N; i++ {
		gj.VK1[i] = hex.EncodeToString(g.VKs[i].V1.Marshal())
		gj.VK2[i] = hex.EncodeToString(g.VKs[i].V2.Marshal())
	}
	return writeJSON(path, gj)
}

// LoadGroup reads and validates a group file, rebuilding the public
// parameters from the recorded domain label. The group invariants
// (n >= 2t+1, a complete verification key vector) are enforced here, at
// load time.
func LoadGroup(path string) (*Group, error) {
	var gj groupJSON
	if err := readJSON(path, &gj); err != nil {
		return nil, err
	}
	if gj.N < 1 || gj.T < 1 || gj.N < 2*gj.T+1 {
		return nil, fmt.Errorf("keyfile: bad group size n=%d t=%d (need t >= 1 and n >= 2t+1)", gj.N, gj.T)
	}
	if len(gj.VK1) != gj.N+1 || len(gj.VK2) != gj.N+1 {
		return nil, fmt.Errorf("keyfile: group lists %d verification keys, want %d", len(gj.VK1)-1, gj.N)
	}
	params := core.NewParams(gj.Domain)
	pkRaw, err := hexConcat(gj.PK1, gj.PK2)
	if err != nil {
		return nil, fmt.Errorf("keyfile: group pk: %w", err)
	}
	pk, err := core.UnmarshalPublicKey(params, pkRaw)
	if err != nil {
		return nil, fmt.Errorf("keyfile: group pk: %w", err)
	}
	vks := make([]*core.VerificationKey, gj.N+1)
	for i := 1; i <= gj.N; i++ {
		raw, err := hexConcat(gj.VK1[i], gj.VK2[i])
		if err != nil {
			return nil, fmt.Errorf("keyfile: vk %d: %w", i, err)
		}
		if vks[i], err = core.UnmarshalVerificationKey(raw); err != nil {
			return nil, fmt.Errorf("keyfile: vk %d: %w", i, err)
		}
	}
	g := &Group{Domain: gj.Domain, N: gj.N, T: gj.T, Params: params, PK: pk, VKs: vks}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("keyfile: %s: %w", path, err)
	}
	return g, nil
}

// WriteShare writes one server's private share file with 0600
// permissions, using the canonical core codec.
func WriteShare(path string, sk *core.PrivateKeyShare) error {
	if err := sk.Validate(); err != nil {
		return fmt.Errorf("keyfile: refusing to write invalid share: %w", err)
	}
	return writeJSON(path, shareJSON{
		Index: sk.Index,
		Share: hex.EncodeToString(sk.Marshal()),
	})
}

// LoadShare reads and validates one server's private share file. The
// share invariants (index >= 1, scalars in [0, r)) are enforced here; use
// LoadMember to additionally bound the index by the group size.
func LoadShare(path string) (*core.PrivateKeyShare, error) {
	var sj shareJSON
	if err := readJSON(path, &sj); err != nil {
		return nil, err
	}
	if sj.Share == "" {
		return nil, fmt.Errorf("keyfile: %s has no share blob (the pre-codec four-scalar schema is no longer read)", path)
	}
	raw, err := hex.DecodeString(sj.Share)
	if err != nil {
		return nil, fmt.Errorf("keyfile: share blob: %w", err)
	}
	sk, err := core.UnmarshalPrivateKeyShare(raw)
	if err != nil {
		return nil, fmt.Errorf("keyfile: %s: %w", path, err)
	}
	if sj.Index != 0 && sj.Index != sk.Index {
		return nil, fmt.Errorf("keyfile: %s: index field %d contradicts encoded index %d", path, sj.Index, sk.Index)
	}
	return sk, nil
}

// WriteMember writes one server's complete keystore — its group file and
// its private share file — validating first that the share
// cryptographically belongs to the group (its implied verification key
// must equal the group's VK_i). The share is written before the group,
// so a crash between the two writes leaves a share the (old) group file
// does not bind, which LoadMember's own binding check rejects loudly at
// the next startup, rather than a group file promising a share that was
// never saved. This is the persistence hook the tsigd daemons call after
// a distributed keygen or refresh.
func WriteMember(groupPath, sharePath string, g *Group, sk *core.PrivateKeyShare) error {
	if _, err := checkShareBinding(g, sk); err != nil {
		return fmt.Errorf("keyfile: refusing to write mismatched keystore: %w", err)
	}
	if err := WriteShare(sharePath, sk); err != nil {
		return err
	}
	return WriteGroup(groupPath, g)
}

// checkShareBinding verifies that sk is really the share belonging to
// slot sk.Index of g — index bounds plus the cryptographic binding
// VK_i == VerificationKeyOf(sk) — and returns the bound Member.
func checkShareBinding(g *Group, sk *core.PrivateKeyShare) (*core.Member, error) {
	m, err := g.Member(sk)
	if err != nil {
		return nil, err
	}
	if !core.VerificationKeyOf(g.Params, sk).Equal(g.VKs[sk.Index]) {
		return nil, fmt.Errorf("keyfile: share %d does not match the group's verification key (torn write or mixed-up files?)", sk.Index)
	}
	return m, nil
}

// LoadMember loads a group file and a share file together and binds
// them: the share's index is bounds-checked against the group (1..n) AND
// the share must cryptographically match the group's verification key
// VK_i, so a mismatched or torn keystore (e.g. a crash between the share
// and group writes of a refresh) fails here, at load time, not at
// signing time.
func LoadMember(groupPath, sharePath string) (*core.Member, error) {
	g, err := LoadGroup(groupPath)
	if err != nil {
		return nil, err
	}
	sk, err := LoadShare(sharePath)
	if err != nil {
		return nil, err
	}
	m, err := checkShareBinding(g, sk)
	if err != nil {
		return nil, fmt.Errorf("keyfile: %s does not fit %s: %w", sharePath, groupPath, err)
	}
	return m, nil
}

func hexConcat(parts ...string) ([]byte, error) {
	var out []byte
	for _, p := range parts {
		raw, err := hex.DecodeString(p)
		if err != nil {
			return nil, err
		}
		out = append(out, raw...)
	}
	return out, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o600)
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}
