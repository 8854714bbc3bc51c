package core

import (
	"testing"
)

// The per-Group pairing-precompute contract: Precompute builds exactly
// once per Group object, a refresh epoch structurally invalidates the
// verification-key precompute (new Group, new VKs), and verification
// keeps working — against the NEW keys only — after the epoch change.

func TestGroupPrecomputeBuildsOnce(t *testing.T) {
	shared, members := modelFixture(t)
	// A Group of its own: the fixture's is shared across tests (and across
	// -count runs), so its precompute may already be built.
	g, err := NewGroup(shared.Domain, shared.N, shared.T, &KeyShares{PK: shared.PK, VKs: shared.VKs})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Precompute() {
		t.Fatal("first Precompute must report a build")
	}
	if g.Precompute() {
		t.Fatal("second Precompute must be a no-op")
	}
	// Warm verification still agrees with the protocol.
	msg := []byte("precompute smoke")
	parts := make([]*PartialSignature, 0, g.T+1)
	for _, m := range members[:g.T+1] {
		ps, err := m.SignShare(msg)
		if err != nil {
			t.Fatal(err)
		}
		if !g.ShareVerify(msg, ps) {
			t.Fatal("share rejected on warm precompute")
		}
		parts = append(parts, ps)
	}
	sig, err := g.Combine(msg, parts)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Verify(msg, sig) {
		t.Fatal("combined signature rejected on warm precompute")
	}
}

func TestRefreshEpochInvalidatesPrecompute(t *testing.T) {
	g, members := modelFixture(t)
	g.Precompute()

	epoch, err := NewRefreshEpoch(g.Params, g.N, g.T)
	if err != nil {
		t.Fatal(err)
	}
	refreshed := make([]*Member, len(members))
	for i, m := range members {
		if refreshed[i], err = m.ApplyRefresh(epoch); err != nil {
			t.Fatal(err)
		}
	}
	ng := refreshed[0].Group()

	// The epoch produced a new Group with new verification keys: the old
	// precompute cannot apply, and the new group's warm-up is a real
	// (one-time) rebuild.
	if ng == g {
		t.Fatal("refresh must produce a new Group object")
	}
	for i := 1; i <= g.N; i++ {
		if ng.VKs[i] == g.VKs[i] {
			t.Fatalf("refresh reused stale VerificationKey object %d", i)
		}
		if ng.VKs[i].Equal(g.VKs[i]) {
			t.Fatalf("refresh did not re-randomize VK %d", i)
		}
	}
	if !ng.Precompute() {
		t.Fatal("refreshed group must rebuild its precompute")
	}
	if ng.Precompute() {
		t.Fatal("refreshed group must rebuild exactly once")
	}

	// Partial signatures verify against the NEW verification keys and are
	// rejected by the stale group view, on the warm paths of both.
	msg := []byte("post-epoch message")
	parts := make([]*PartialSignature, 0, ng.T+1)
	for _, m := range refreshed[:ng.T+1] {
		ps, err := m.SignShare(msg)
		if err != nil {
			t.Fatal(err)
		}
		if !ng.ShareVerify(msg, ps) {
			t.Fatal("post-epoch share rejected by refreshed group")
		}
		if g.ShareVerify(msg, ps) {
			t.Fatal("post-epoch share accepted by stale group view")
		}
		parts = append(parts, ps)
	}
	sig, err := ng.Combine(msg, parts)
	if err != nil {
		t.Fatal(err)
	}
	if !ng.Verify(msg, sig) {
		t.Fatal("post-epoch combined signature rejected")
	}
	// The public key is preserved across the refresh, so the stale view
	// still verifies the FULL signature (only the VKs rotated).
	if !g.Verify(msg, sig) {
		t.Fatal("refresh must preserve the public key")
	}
}

func TestNewParamsMemoized(t *testing.T) {
	a := NewParams("memo-domain/v1")
	b := NewParams("memo-domain/v1")
	if a != b {
		t.Fatal("NewParams must return the memoized object per domain")
	}
	if NewParams("memo-domain/v2") == a {
		t.Fatal("distinct domains must not share params")
	}
	if NewAggParams("memo-domain/v1").Params != a {
		t.Fatal("NewAggParams must reuse the memoized inner params")
	}
}
