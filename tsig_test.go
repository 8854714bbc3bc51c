package tsig

import (
	"errors"
	"testing"
)

// TestObjectModelEndToEnd exercises the v1 Scheme/Group/Member API
// exactly as the package doc comment advertises it; the underlying
// machinery has its own suites in the internal packages. (The pre-v1
// free-function facade was removed after its one-release deprecation
// window; see the README migration guide.)
func TestObjectModelEndToEnd(t *testing.T) {
	scheme := NewScheme(WithDomain("facade-model/v1"))
	if scheme.Domain() != "facade-model/v1" {
		t.Fatalf("domain %q", scheme.Domain())
	}
	group, members, err := scheme.Keygen(3, 1)
	if err != nil {
		t.Fatalf("Keygen: %v", err)
	}
	if len(members) != 3 || members[2].Index() != 3 {
		t.Fatalf("member layout wrong: %d members", len(members))
	}
	msg := []byte("model facade message")
	ps1, err := members[0].SignShare(msg)
	if err != nil {
		t.Fatal(err)
	}
	ps3, err := members[2].SignShare(msg)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := group.Combine(msg, []*PartialSignature{ps1, ps3})
	if err != nil {
		t.Fatal(err)
	}
	if !group.Verify(msg, sig) {
		t.Fatal("Verify rejected the combined signature")
	}

	// Codecs round-trip through the re-exports.
	g2, err := UnmarshalGroup(group.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Verify(msg, sig) {
		t.Fatal("decoded group rejects the signature")
	}
	sk2, err := UnmarshalPrivateKeyShare(members[0].PrivateShare().Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g2.Member(sk2); err != nil {
		t.Fatal(err)
	}

	// Refresh through the model.
	epoch, err := scheme.RunRefresh(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := members[0].ApplyRefresh(epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !nm.Group().PK.Equal(group.PK) {
		t.Fatal("refresh changed the public key")
	}

	// Recovery through the model.
	recovered, err := group.RecoverShare([]*Member{members[0], members[2]}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Index() != 2 {
		t.Fatalf("recovered index %d", recovered.Index())
	}

	// Typed errors surface through the facade aliases.
	_, err = group.Combine(msg, []*PartialSignature{ps1})
	if !errors.Is(err, ErrInsufficientShares) {
		t.Fatalf("want ErrInsufficientShares, got %v", err)
	}
}

// TestSchemeAggregation covers the WithAggregation option end to end:
// two independent groups, one aggregate signature.
func TestSchemeAggregation(t *testing.T) {
	scheme := NewScheme(WithDomain("facade-agg/v1"), WithAggregation())
	if scheme.Aggregation() == nil {
		t.Fatal("aggregation params missing")
	}
	if NewScheme().Aggregation() != nil {
		t.Fatal("default scheme should not carry aggregation params")
	}
	if _, err := NewScheme().AggKeygen(3, 1); err == nil {
		t.Fatal("AggKeygen must require WithAggregation")
	}

	var entries []AggEntry
	for _, label := range []string{"org-a", "org-b"} {
		views, err := scheme.AggKeygen(3, 1)
		if err != nil {
			t.Fatal(err)
		}
		pk := views[1].PK
		if !pk.SanityCheck() {
			t.Fatal("aggregation key fails its validity proof")
		}
		msg := []byte("statement signed by " + label)
		ps1, err := AggShareSign(pk, views[1].Share, msg)
		if err != nil {
			t.Fatal(err)
		}
		ps2, err := AggShareSign(pk, views[2].Share, msg)
		if err != nil {
			t.Fatal(err)
		}
		if !AggShareVerify(pk, views[1].VKs[1], msg, ps1) {
			t.Fatal("aggregation share invalid")
		}
		sig, err := AggCombine(pk, views[1].VKs, msg, []*PartialSignature{ps1, ps2}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !AggVerifySingle(pk, msg, sig) {
			t.Fatal("single aggregation signature invalid")
		}
		entries = append(entries, AggEntry{PK: pk, Msg: msg, Sig: sig})
	}
	agg, err := Aggregate(entries)
	if err != nil {
		t.Fatal(err)
	}
	if !AggregateVerify(entries, agg) {
		t.Fatal("aggregate signature invalid")
	}
}
