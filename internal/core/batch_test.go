package core

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"testing"

	"repro/internal/bn254"
)

func makeBatch(t *testing.T, views []*KeyShares, k int) []BatchEntry {
	t.Helper()
	entries := make([]BatchEntry, k)
	for i := 0; i < k; i++ {
		msg := []byte(fmt.Sprintf("batch message %d", i))
		parts := partials(t, views, msg, []int{1, 2, 3})
		sig, err := combine(views[1].PK, views[1].VKs, msg, parts, fixtureT)
		if err != nil {
			t.Fatal(err)
		}
		entries[i] = BatchEntry{Msg: msg, Sig: sig}
	}
	return entries
}

func TestBatchVerifyAcceptsValidBatch(t *testing.T) {
	views := keyFixture(t)
	entries := makeBatch(t, views, 4)
	ok, err := views[1].PK.BatchVerify(entries, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("valid batch rejected")
	}
	// Single-entry batch degenerates to ordinary verification.
	ok, err = views[1].PK.BatchVerify(entries[:1], rand.Reader)
	if err != nil || !ok {
		t.Fatalf("single-entry batch failed: %v %v", ok, err)
	}
}

func TestBatchVerifyRejectsOneBadSignature(t *testing.T) {
	views := keyFixture(t)
	entries := makeBatch(t, views, 4)
	// Swap components of one signature.
	entries[2].Sig = &Signature{Z: entries[2].Sig.R, R: entries[2].Sig.Z}
	ok, err := views[1].PK.BatchVerify(entries, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("batch with a tampered signature accepted")
	}
}

func TestBatchVerifyRejectsWrongMessagePairing(t *testing.T) {
	// A signature attached to a different (also signed!) message must be
	// caught: individual validity is what batching must preserve.
	views := keyFixture(t)
	entries := makeBatch(t, views, 3)
	entries[0].Msg, entries[1].Msg = entries[1].Msg, entries[0].Msg
	ok, err := views[1].PK.BatchVerify(entries, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("batch with swapped messages accepted")
	}
}

func TestBatchVerifyCatchesComplementaryForgeries(t *testing.T) {
	// The classic attack random weights defend against: two entries whose
	// errors cancel. sig0' = sig0 * D, sig1' = sig1 * D^-1 for a random
	// group element D. A weight-free batcher (all deltas equal) would
	// accept; the randomized one must reject.
	views := keyFixture(t)
	entries := makeBatch(t, views, 2)
	d := bn254.HashToG1("cancel", []byte("d"))
	negD := new(bn254.G1).Neg(d)
	entries[0].Sig = &Signature{
		Z: new(bn254.G1).Add(entries[0].Sig.Z, d),
		R: entries[0].Sig.R,
	}
	entries[1].Sig = &Signature{
		Z: new(bn254.G1).Add(entries[1].Sig.Z, negD),
		R: entries[1].Sig.R,
	}
	// Each individual signature is now invalid.
	if views[1].PK.Verify(entries[0].Msg, entries[0].Sig) {
		t.Fatal("tampered signature 0 verifies individually")
	}
	ok, err := views[1].PK.BatchVerify(entries, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("complementary forgeries passed randomized batching")
	}
}

// makeShareBatch signs k distinct messages with one signer, the
// coordinator's per-signer verification shape.
func makeShareBatch(t *testing.T, views []*KeyShares, signer, k int) []ShareBatchEntry {
	t.Helper()
	entries := make([]ShareBatchEntry, k)
	for i := 0; i < k; i++ {
		msg := []byte(fmt.Sprintf("share batch message %d", i))
		ps, err := shareSign(fixtureParams, views[signer].Share, msg)
		if err != nil {
			t.Fatal(err)
		}
		entries[i] = ShareBatchEntry{Msg: msg, VK: views[1].VKs[signer], PS: ps}
	}
	return entries
}

func TestBatchShareVerifyAcceptsValidBatch(t *testing.T) {
	views := keyFixture(t)
	// One signer, k messages: the collapsed 4-slot path.
	entries := makeShareBatch(t, views, 2, 6)
	ok, err := BatchShareVerify(views[1].PK, entries, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("valid one-signer batch rejected")
	}
	// Single-entry batch degenerates to ordinary share verification.
	ok, err = BatchShareVerify(views[1].PK, entries[:1], rand.Reader)
	if err != nil || !ok {
		t.Fatalf("single-entry share batch failed: %v %v", ok, err)
	}
}

func TestBatchShareVerifyAcceptsCrossSignerBatch(t *testing.T) {
	// k signers on one message: distinct VKs exercise the general
	// 2+2k-slot path.
	views := keyFixture(t)
	msg := []byte("one message, many signers")
	var entries []ShareBatchEntry
	for i := 1; i <= fixtureN; i++ {
		ps, err := shareSign(fixtureParams, views[i].Share, msg)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, ShareBatchEntry{Msg: msg, VK: views[1].VKs[i], PS: ps})
	}
	ok, err := BatchShareVerify(views[1].PK, entries, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("valid cross-signer batch rejected")
	}
}

// crossSignerBatch is the robust Combine's shape across two messages:
// signers 1..5 on one, 1..3 on another, so five keys, three of them twice.
func crossSignerBatch(t *testing.T, views []*KeyShares) []ShareBatchEntry {
	t.Helper()
	var entries []ShareBatchEntry
	for _, m := range []struct {
		msg string
		n   int
	}{{"cross batch A", 5}, {"cross batch B", 3}} {
		for i := 1; i <= m.n; i++ {
			ps, err := shareSign(fixtureParams, views[i].Share, []byte(m.msg))
			if err != nil {
				t.Fatal(err)
			}
			entries = append(entries, ShareBatchEntry{Msg: []byte(m.msg), VK: views[1].VKs[i], PS: ps})
		}
	}
	return entries
}

// TestCrossSignerVerdictsMatchShareVerify: with any one share of the
// mixed-key batch bad, or none, the batch check and CheckShares say what
// per-share ShareVerify says.
func TestCrossSignerVerdictsMatchShareVerify(t *testing.T) {
	views := keyFixture(t)
	pk := views[1].PK
	for bad := -1; bad < 8; bad++ {
		entries := crossSignerBatch(t, views)
		if bad >= 0 {
			ps := *entries[bad].PS
			ps.Z, ps.R = ps.R, ps.Z
			entries[bad].PS = &ps
		}
		want := make([]bool, len(entries))
		allOK := true
		for j, e := range entries {
			want[j] = shareVerify(pk, e.VK, e.Msg, e.PS)
			allOK = allOK && want[j]
		}
		if allOK != (bad < 0) {
			t.Fatalf("bad=%d: ShareVerify disagrees with the tampering", bad)
		}
		if ok, err := BatchShareVerify(pk, entries, rand.Reader); err != nil || ok != allOK {
			t.Errorf("bad=%d: BatchShareVerify = %v, %v; want %v", bad, ok, err, allOK)
		}
		if got := CheckShares(pk, entries); !slices.Equal(got, want) {
			t.Errorf("bad=%d: CheckShares = %v, want %v", bad, got, want)
		}
	}
}

func TestBatchShareVerifyRejectsTamperedShare(t *testing.T) {
	views := keyFixture(t)
	for _, sameVK := range []bool{true, false} {
		entries := makeShareBatch(t, views, 3, 5)
		if !sameVK {
			// Replace one entry with a share from a different signer so the
			// general path is taken.
			ps, err := shareSign(fixtureParams, views[4].Share, entries[4].Msg)
			if err != nil {
				t.Fatal(err)
			}
			entries[4] = ShareBatchEntry{Msg: entries[4].Msg, VK: views[1].VKs[4], PS: ps}
		}
		entries[2].PS = &PartialSignature{Index: 3, Z: entries[2].PS.R, R: entries[2].PS.Z}
		ok, err := BatchShareVerify(views[1].PK, entries, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("batch with a tampered share accepted (sameVK=%v)", sameVK)
		}
	}
}

func TestBatchShareVerifyRejectsWrongKeyAssignment(t *testing.T) {
	// A valid share attributed to the wrong signer must not slip through.
	views := keyFixture(t)
	entries := makeShareBatch(t, views, 1, 4)
	entries[1].VK = views[1].VKs[2]
	ok, err := BatchShareVerify(views[1].PK, entries, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("batch with a misattributed share accepted")
	}
}

func TestFindInvalidSharesPinpointsByzantine(t *testing.T) {
	views := keyFixture(t)
	entries := makeShareBatch(t, views, 2, 8)
	// Corrupt exactly entries 1 and 6; bisection must isolate them and
	// nothing else.
	for _, j := range []int{1, 6} {
		entries[j].PS = &PartialSignature{Index: 2, Z: entries[j].PS.R, R: entries[j].PS.Z}
	}
	bad := FindInvalidShares(views[1].PK, entries, rand.Reader)
	if len(bad) != 2 || bad[0] != 1 || bad[1] != 6 {
		t.Fatalf("bisection found %v, want [1 6]", bad)
	}
	// An all-valid batch yields no suspects.
	if bad := FindInvalidShares(views[1].PK, makeShareBatch(t, views, 4, 5), rand.Reader); len(bad) != 0 {
		t.Fatalf("valid batch flagged %v", bad)
	}
	// Structurally broken entries are reported without pairing work.
	entries = makeShareBatch(t, views, 2, 3)
	entries[0].PS = nil
	bad = FindInvalidShares(views[1].PK, entries, rand.Reader)
	if len(bad) != 1 || bad[0] != 0 {
		t.Fatalf("nil entry flagged as %v, want [0]", bad)
	}
}

func TestBatchShareVerifyInputValidation(t *testing.T) {
	views := keyFixture(t)
	if _, err := BatchShareVerify(views[1].PK, nil, rand.Reader); err == nil {
		t.Fatal("accepted empty share batch")
	}
	entries := makeShareBatch(t, views, 1, 2)
	entries[1].PS = nil
	if _, err := BatchShareVerify(views[1].PK, entries, rand.Reader); err == nil {
		t.Fatal("accepted entry without partial signature")
	}
	entries = makeShareBatch(t, views, 1, 2)
	entries[0].VK = nil
	if _, err := BatchShareVerify(views[1].PK, entries, rand.Reader); err == nil {
		t.Fatal("accepted entry without verification key")
	}
}

func TestBatchVerifyInputValidation(t *testing.T) {
	views := keyFixture(t)
	if _, err := views[1].PK.BatchVerify(nil, rand.Reader); err == nil {
		t.Fatal("accepted empty batch")
	}
	if _, err := views[1].PK.BatchVerify([]BatchEntry{{Msg: []byte("x")}}, rand.Reader); err == nil {
		t.Fatal("accepted entry without signature")
	}
}

// trippedReader fails the test if anything draws randomness from it.
type trippedReader struct{ t *testing.T }

func (r trippedReader) Read([]byte) (int, error) {
	r.t.Error("a single-entry check drew randomness")
	return 0, errors.New("tripped")
}

// TestCheckSharesSingleEntryIsShareVerify: a batch of one gets the
// weight-free check — the same verdict as ShareVerify, for a valid and an
// invalid share, without sampling a batching weight.
func TestCheckSharesSingleEntryIsShareVerify(t *testing.T) {
	views := keyFixture(t)
	saved := rand.Reader
	rand.Reader = trippedReader{t}
	defer func() { rand.Reader = saved }()

	good := makeShareBatch(t, views, 2, 1)
	bad := makeShareBatch(t, views, 2, 1)
	bad[0].PS = &PartialSignature{Index: 2, Z: bad[0].PS.R, R: bad[0].PS.Z}
	for name, entries := range map[string][]ShareBatchEntry{"valid": good, "invalid": bad} {
		e := entries[0]
		want := shareVerify(views[1].PK, e.VK, e.Msg, e.PS)
		if got := CheckShares(views[1].PK, entries); len(got) != 1 || got[0] != want {
			t.Fatalf("%s share: CheckShares = %v, ShareVerify = %v", name, got, want)
		}
	}
	if got := CheckShares(views[1].PK, []ShareBatchEntry{{Msg: []byte("x"), VK: views[1].VKs[2]}}); got[0] {
		t.Fatal("entry without a partial signature accepted")
	}
	if got := CheckShares(views[1].PK, nil); len(got) != 0 {
		t.Fatalf("empty input yielded %v", got)
	}
}

// TestCheckSharesAgreesWithFindInvalidShares: for k entries the verdicts
// are exactly the complement of what bisection reports — all true for a
// clean batch, false at the corrupted positions (a malformed entry
// included) otherwise.
func TestCheckSharesAgreesWithFindInvalidShares(t *testing.T) {
	views := keyFixture(t)
	pk := views[1].PK
	for _, ok := range CheckShares(pk, makeShareBatch(t, views, 3, 5)) {
		if !ok {
			t.Fatal("clean batch has a rejected share")
		}
	}
	entries := makeShareBatch(t, views, 2, 8)
	for _, j := range []int{0, 5} {
		entries[j].PS = &PartialSignature{Index: 2, Z: entries[j].PS.R, R: entries[j].PS.Z}
	}
	entries[7].PS = nil
	got := CheckShares(pk, entries)
	bad := FindInvalidShares(pk, entries, rand.Reader)
	if len(bad) != 3 || bad[0] != 0 || bad[1] != 5 || bad[2] != 7 {
		t.Fatalf("FindInvalidShares = %v, want [0 5 7]", bad)
	}
	for j, ok := range got {
		if want := j != 0 && j != 5 && j != 7; ok != want {
			t.Fatalf("CheckShares[%d] = %v, want %v", j, ok, want)
		}
	}
}

// TestCheckSignatures: the signature twin of CheckShares. One entry is the
// weight-free Verify (no randomness drawn, valid or not); one bad
// signature of 8 is the only false; and the verdicts always agree with
// per-entry Verify, a nil signature included.
func TestCheckSignatures(t *testing.T) {
	views := keyFixture(t)
	pk := views[1].PK
	entries := makeBatch(t, views, 8)
	swapped := func(e BatchEntry) BatchEntry {
		return BatchEntry{Msg: e.Msg, Sig: &Signature{Z: e.Sig.R, R: e.Sig.Z}}
	}

	t.Run("single entry draws no randomness", func(t *testing.T) {
		saved := rand.Reader
		rand.Reader = trippedReader{t}
		defer func() { rand.Reader = saved }()
		if got := CheckSignatures(pk, entries[:1]); len(got) != 1 || !got[0] {
			t.Fatalf("valid signature: %v", got)
		}
		if got := CheckSignatures(pk, []BatchEntry{swapped(entries[0])}); len(got) != 1 || got[0] {
			t.Fatalf("invalid signature: %v", got)
		}
		if got := CheckSignatures(pk, nil); len(got) != 0 {
			t.Fatalf("empty input yielded %v", got)
		}
	})
	for _, tc := range []struct {
		name string
		bad  map[int]BatchEntry
	}{
		{"clean batch", nil},
		{"one bad of eight", map[int]BatchEntry{5: swapped(entries[5])}},
		{"bad and missing", map[int]BatchEntry{0: swapped(entries[0]), 7: {Msg: entries[7].Msg}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batch := append([]BatchEntry(nil), entries...)
			for j, e := range tc.bad {
				batch[j] = e
			}
			got := CheckSignatures(pk, batch)
			for j, e := range batch {
				_, bad := tc.bad[j]
				if got[j] == bad || got[j] != pk.Verify(e.Msg, e.Sig) {
					t.Fatalf("entry %d: CheckSignatures = %v, tampered = %v, Verify = %v", j, got[j], bad, pk.Verify(e.Msg, e.Sig))
				}
			}
		})
	}
}

// TestSampleWeightsMatchRandInt: the one-read weight draw yields the
// weights rand.Int would draw from the same stream, one after the other.
func TestSampleWeightsMatchRandInt(t *testing.T) {
	bound := new(big.Int).Lsh(big.NewInt(1), batchWeightBits)
	for _, k := range []int{1, 3, 8, 65} {
		stream := make([]byte, k*batchWeightBits/8)
		if _, err := rand.Read(stream); err != nil {
			t.Fatal(err)
		}
		got, err := sampleWeights(k, bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(stream)
		for j := range k {
			want, err := rand.Int(r, bound)
			if err != nil {
				t.Fatal(err)
			}
			if got[j].Cmp(want) != 0 {
				t.Fatalf("k=%d: weight %d is %x, rand.Int reads %x", k, j, got[j], want)
			}
		}
	}
	if _, err := sampleWeights(2, bytes.NewReader(make([]byte, 31))); err == nil {
		t.Fatal("a short stream yielded weights")
	}
}
