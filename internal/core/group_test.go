package core

import (
	"bytes"
	"crypto"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// Compile-time check: a Member IS a crypto.Signer.
var _ crypto.Signer = (*Member)(nil)

// Model fixture: n=5, t=2 so there is room for Byzantine members.
var (
	modelOnce    sync.Once
	modelGroup   *Group
	modelMembers []*Member
	modelErr     error
)

func modelFixture(t *testing.T) (*Group, []*Member) {
	t.Helper()
	modelOnce.Do(func() {
		params := NewParams("group-model/v1")
		views, _, err := DistKeygen(params, 5, 2)
		if err != nil {
			modelErr = err
			return
		}
		g, err := NewGroup("group-model/v1", 5, 2, views[1])
		if err != nil {
			modelErr = err
			return
		}
		members := make([]*Member, 5)
		for i := 1; i <= 5; i++ {
			if members[i-1], err = g.Member(views[i].Share); err != nil {
				modelErr = err
				return
			}
		}
		modelGroup, modelMembers = g, members
	})
	if modelErr != nil {
		t.Fatalf("model fixture: %v", modelErr)
	}
	return modelGroup, modelMembers
}

func TestGroupMemberSignCombineVerify(t *testing.T) {
	g, members := modelFixture(t)
	msg := []byte("object model message")
	var parts []*PartialSignature
	for _, m := range []*Member{members[0], members[2], members[4]} {
		ps, err := m.SignShare(msg)
		if err != nil {
			t.Fatal(err)
		}
		if !g.ShareVerify(msg, ps) {
			t.Fatalf("member %d produced an invalid share", m.Index())
		}
		if err := g.CheckShare(msg, ps); err != nil {
			t.Fatalf("CheckShare rejected a valid share: %v", err)
		}
		parts = append(parts, ps)
	}
	sig, err := g.Combine(msg, parts)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Verify(msg, sig) {
		t.Fatal("group rejected its own combined signature")
	}
	if g.Verify([]byte("different message"), sig) {
		t.Fatal("signature transferred to another message")
	}
}

func TestMemberCryptoSigner(t *testing.T) {
	g, members := modelFixture(t)
	var signer crypto.Signer = members[1]

	pk, ok := signer.Public().(*PublicKey)
	if !ok || !pk.Equal(g.PK) {
		t.Fatalf("Public() = %T, want the group *PublicKey", signer.Public())
	}
	msg := []byte("crypto.Signer message")
	raw, err := signer.Sign(nil, msg, crypto.Hash(0))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := UnmarshalPartialSignature(raw)
	if err != nil {
		t.Fatalf("Sign output is not a marshalled partial signature: %v", err)
	}
	if ps.Index != members[1].Index() || !g.ShareVerify(msg, ps) {
		t.Fatal("crypto.Signer output is not a valid partial signature")
	}
	// Signing is deterministic: same bytes on every call.
	again, err := signer.Sign(nil, msg, nil)
	if err != nil || !bytes.Equal(raw, again) {
		t.Fatalf("deterministic signing violated: %v", err)
	}
	// Pre-hashed input is not supported.
	if _, err := signer.Sign(nil, msg, crypto.SHA256); err == nil {
		t.Fatal("accepted pre-hashed signing options")
	}
}

func TestGroupTypedErrors(t *testing.T) {
	g, members := modelFixture(t)
	msg := []byte("typed error message")

	// Too few shares -> ErrInsufficientShares.
	ps, err := members[0].SignShare(msg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.Combine(msg, []*PartialSignature{ps})
	if !errors.Is(err, ErrInsufficientShares) {
		t.Fatalf("want ErrInsufficientShares, got %v", err)
	}
	if errors.Is(err, ErrInvalidShare) {
		t.Fatalf("no share was invalid, yet error wraps ErrInvalidShare: %v", err)
	}

	// A Byzantine share among too few valid ones -> both sentinels.
	evil, err := members[1].SignShare([]byte("a different message"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.Combine(msg, []*PartialSignature{ps, evil})
	if !errors.Is(err, ErrInsufficientShares) || !errors.Is(err, ErrInvalidShare) {
		t.Fatalf("want ErrInsufficientShares and ErrInvalidShare, got %v", err)
	}

	// CheckShare types the single-share failure.
	if err := g.CheckShare(msg, evil); !errors.Is(err, ErrInvalidShare) {
		t.Fatalf("want ErrInvalidShare, got %v", err)
	}
	out := *ps
	out.Index = 99
	if err := g.CheckShare(msg, &out); !errors.Is(err, ErrIndexOutOfRange) {
		t.Fatalf("want ErrIndexOutOfRange, got %v", err)
	}

	// Member binding enforces index bounds.
	rogue := *members[0].PrivateShare()
	rogue.Index = g.N + 1
	if _, err := g.Member(&rogue); !errors.Is(err, ErrIndexOutOfRange) {
		t.Fatalf("want ErrIndexOutOfRange, got %v", err)
	}
}

func TestGroupBatchShareVerifyAndLocate(t *testing.T) {
	g, members := modelFixture(t)
	msg := []byte("batched shares")
	parts := make([]*PartialSignature, len(members))
	for i, m := range members {
		ps, err := m.SignShare(msg)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = ps
	}
	ok, err := g.BatchShareVerify(msg, parts, nil)
	if err != nil || !ok {
		t.Fatalf("batch of honest shares rejected: ok=%v err=%v", ok, err)
	}
	// Corrupt members 2 and 4 (positions 1 and 3).
	evil2, _ := members[1].SignShare([]byte("evil"))
	parts[1] = evil2
	parts[3] = &PartialSignature{Index: parts[3].Index, Z: parts[0].Z, R: parts[0].R}
	ok, err = g.BatchShareVerify(msg, parts, nil)
	if err != nil || ok {
		t.Fatalf("batch with Byzantine shares accepted: ok=%v err=%v", ok, err)
	}
	bad := g.FindInvalidShares(msg, parts, nil)
	if len(bad) != 2 || bad[0] != 1 || bad[1] != 3 {
		t.Fatalf("FindInvalidShares = %v, want [1 3]", bad)
	}
}

func TestMemberSignBatch(t *testing.T) {
	g, members := modelFixture(t)
	msgs := [][]byte{[]byte("batch 1"), []byte("batch 2"), []byte("batch 3")}
	parts, err := members[2].SignBatch(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != len(msgs) {
		t.Fatalf("%d partials for %d messages", len(parts), len(msgs))
	}
	for j, ps := range parts {
		if !g.ShareVerify(msgs[j], ps) {
			t.Fatalf("batch partial %d invalid", j)
		}
	}
}

func TestMemberRefreshEpoch(t *testing.T) {
	g, members := modelFixture(t)
	epoch, err := NewRefreshEpoch(g.Params, g.N, g.T)
	if err != nil {
		t.Fatal(err)
	}
	refreshed := make([]*Member, len(members))
	for i, m := range members {
		if refreshed[i], err = m.ApplyRefresh(epoch); err != nil {
			t.Fatalf("member %d: %v", m.Index(), err)
		}
	}
	ng := refreshed[0].Group()
	if !ng.PK.Equal(g.PK) {
		t.Fatal("refresh changed the public key")
	}
	// Old and new shares must not mix; the refreshed quorum must sign.
	msg := []byte("post-refresh message")
	psOld, _ := members[0].SignShare(msg)
	psNew1, _ := refreshed[1].SignShare(msg)
	psNew2, _ := refreshed[2].SignShare(msg)
	if _, err := ng.Combine(msg, []*PartialSignature{psOld, psNew1, psNew2}); err == nil {
		t.Fatal("cross-epoch shares combined")
	}
	psNew0, _ := refreshed[0].SignShare(msg)
	sig, err := ng.Combine(msg, []*PartialSignature{psNew0, psNew1, psNew2})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Verify(msg, sig) {
		t.Fatal("post-refresh signature does not verify under the original group")
	}
}

func TestGroupRecoverShare(t *testing.T) {
	g, members := modelFixture(t)
	// Member 2 lost its share; members 1, 3, 4 (t+1 = 3 helpers) restore it.
	helpers := []*Member{members[0], members[2], members[3]}
	recovered, err := g.RecoverShare(helpers, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Index() != 2 {
		t.Fatalf("recovered index %d", recovered.Index())
	}
	msg := []byte("signed with a recovered share")
	ps, err := recovered.SignShare(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !g.ShareVerify(msg, ps) {
		t.Fatal("recovered share signs invalidly")
	}
	if _, err := g.RecoverShare(helpers[:2], 2, nil); err == nil {
		t.Fatal("accepted fewer than t+1 helpers")
	}
	if _, err := g.RecoverShare(helpers, 99, nil); !errors.Is(err, ErrIndexOutOfRange) {
		t.Fatalf("want ErrIndexOutOfRange, got %v", err)
	}
}

// CheckShare is the error-typed form of ShareVerify: nil for a valid
// partial signature, an error wrapping ErrInvalidShare (or
// ErrIndexOutOfRange) otherwise.
func (g *Group) CheckShare(msg []byte, ps *PartialSignature) error {
	if ps == nil {
		return fmt.Errorf("core: nil partial signature: %w", ErrInvalidShare)
	}
	if g.VerificationKey(ps.Index) == nil {
		return fmt.Errorf("core: partial signature index %d outside group 1..%d: %w (%w)",
			ps.Index, g.N, ErrIndexOutOfRange, ErrInvalidShare)
	}
	if !g.ShareVerify(msg, ps) {
		return fmt.Errorf("core: partial signature of signer %d fails Share-Verify: %w", ps.Index, ErrInvalidShare)
	}
	return nil
}
