package core

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/bn254"
)

// Batch verification: an extension enabled by the scheme's structure. All
// signatures under one public key satisfy
//
//	e(z_j, g^_z) e(r_j, g^_r) e(H_1j, g^_1) e(H_2j, g^_2) = 1,
//
// so the small-exponent batching technique (Bellare-Garay-Rabin) verifies
// k signatures with ONE multi-pairing of 2 + 2k slots instead of k
// multi-pairings of 4 slots: random 128-bit weights delta_j are sampled,
// the z and r components are aggregated as prod z_j^{delta_j} (two
// multi-exponentiations), and the hash vectors enter the product with
// exponent delta_j. An adversary who does not know the weights in advance
// passes with probability at most 2^-128.

// BatchEntry is one (message, signature) pair to verify.
type BatchEntry struct {
	Msg []byte
	Sig *Signature
}

// batchWeightBits is the small-exponent size (cheating probability 2^-128).
const batchWeightBits = 128

// BatchVerify verifies all entries under pk at once. It returns true only
// if (with overwhelming probability) every signature is valid. rng
// defaults to crypto/rand.
func (pk *PublicKey) BatchVerify(entries []BatchEntry, rng io.Reader) (bool, error) {
	if len(entries) == 0 {
		return false, errors.New("core: empty batch")
	}
	for i, e := range entries {
		if e.Sig == nil || e.Sig.Z == nil || e.Sig.R == nil {
			return false, fmt.Errorf("core: batch entry %d has no signature", i)
		}
	}
	weights, err := sampleWeights(len(entries), rng)
	if err != nil {
		return false, err
	}

	// Every entry verifies against the same four fixed G2 arguments
	// (g^_z, g^_r, g^_1, g^_2), so the k relations collapse into a single
	// 4-slot multi-pairing on precomputed lines plus four
	// multi-exponentiations: prod_j e(H_kj, g^_k)^{delta_j} =
	// e(prod_j H_kj^{delta_j}, g^_k).
	hs := make([][Dim]bn254.G1, len(entries))
	var buf [4][bn254.StackPoints]*bn254.G1
	cols := newColumns(&buf, len(entries))
	for j, e := range entries {
		pk.Params.hashInto(&hs[j], e.Msg)
		cols.set(j, e.Sig.Z, e.Sig.R, &hs[j])
	}
	pkPrep := pk.lhspsKey().Prepared()
	return cols.check(pk.Params, weights, pkPrep[0], pkPrep[1])
}

// columns are the z, r, H_1 and H_2 columns of a batch whose relations
// all have the same four G2 arguments.
type columns [4][]*bn254.G1

// newColumns returns the columns of k entries, in buf when they fit.
func newColumns(buf *[4][bn254.StackPoints]*bn254.G1, k int) columns {
	var c columns
	for i := range c {
		if k <= bn254.StackPoints {
			c[i] = buf[i][:k]
		} else {
			c[i] = make([]*bn254.G1, k)
		}
	}
	return c
}

// set fills in entry j.
func (c columns) set(j int, z, r *bn254.G1, h *[Dim]bn254.G1) {
	c[0][j], c[1][j], c[2][j], c[3][j] = z, r, &h[0], &h[1]
}

// check aggregates every column under the weights and checks
// e(Z, g^_z) e(R, g^_r) e(H_1, v1) e(H_2, v2) = 1 on precomputed lines.
func (c columns) check(params *Params, weights []*big.Int, v1, v2 *bn254.G2Prepared) (bool, error) {
	gzPrep, grPrep := params.LH.PreparedGenerators()
	pres := [4]*bn254.G2Prepared{gzPrep, grPrep, v1, v2}
	var slots [4]bn254.PairingSlot
	var ptrs [4]*bn254.PairingSlot
	for i := range c {
		agg, err := bn254.G1MSM(c[i], weights)
		if err != nil {
			return false, err
		}
		slots[i] = bn254.PairingSlot{P: agg, Pre: pres[i]}
		ptrs[i] = &slots[i]
	}
	return bn254.PairingCheckMixed(ptrs[:]), nil
}

// ShareBatchEntry is one partial signature to batch-verify: the message
// it signs and the verification key of the signer that produced it.
type ShareBatchEntry struct {
	Msg []byte
	VK  *VerificationKey
	PS  *PartialSignature
}

// wellFormed reports whether the entry has every component a pairing
// check dereferences.
func (e ShareBatchEntry) wellFormed() bool {
	return e.PS != nil && e.PS.Z != nil && e.PS.R != nil && e.VK != nil && e.VK.V1 != nil && e.VK.V2 != nil
}

// sampleWeights draws k independent 128-bit batching weights from rng
// (crypto/rand when nil) with one read: weight j is bytes 16j..16j+15,
// big-endian — the stream rand.Int would read for each weight in turn.
// The weights' words share one backing array.
func sampleWeights(k int, rng io.Reader) ([]*big.Int, error) {
	if rng == nil {
		rng = rand.Reader
	}
	const size = batchWeightBits / 8
	const wordBytes = bits.UintSize / 8
	buf := make([]byte, k*size)
	if _, err := io.ReadFull(rng, buf); err != nil {
		return nil, fmt.Errorf("core: sampling batch weights: %w", err)
	}
	words := make([]big.Word, k*size/wordBytes)
	ints := make([]big.Int, k)
	weights := make([]*big.Int, k)
	for j := range weights {
		ws := words[j*size/wordBytes : (j+1)*size/wordBytes : (j+1)*size/wordBytes]
		for i := range ws { // little-endian words of a big-endian number
			end := (j+1)*size - i*wordBytes
			var w uint64
			for _, b := range buf[end-wordBytes : end] {
				w = w<<8 | uint64(b)
			}
			ws[i] = big.Word(w)
		}
		weights[j] = ints[j].SetBits(ws)
	}
	return weights, nil
}

// hashEntries computes (H_1, H_2) for every entry, hashing a message once
// when consecutive entries sign it — the common shapes (one signer on k
// messages, k signers on one message) do no redundant hash-to-curve work.
func hashEntries(params *Params, entries []ShareBatchEntry) []*[Dim]bn254.G1 {
	pts := make([][Dim]bn254.G1, len(entries))
	hs := make([]*[Dim]bn254.G1, len(entries))
	for j, e := range entries {
		if j > 0 && bytes.Equal(e.Msg, entries[j-1].Msg) {
			hs[j] = hs[j-1]
			continue
		}
		params.hashInto(&pts[j], e.Msg)
		hs[j] = &pts[j]
	}
	return hs
}

// BatchShareVerify checks k partial signatures at once, extending the
// small-exponent technique of BatchVerify to the Share-Verify relation
//
//	e(z_j, g^_z) e(r_j, g^_r) e(H_1j, V^_1,ij) e(H_2j, V^_2,ij) = 1.
//
// With random 128-bit weights delta_j, the k relations collapse into one
// multi-pairing of at most 2 + 2k slots: the z and r components aggregate as
// prod z_j^{delta_j} (two multi-exponentiations) and the hash vectors
// enter the product with exponent delta_j against each signer's key.
// When every entry carries the same *VerificationKey — one signer
// answering a k-message batch, the coordinator's hot path — the key
// slots collapse too and the whole batch is a single 4-slot
// multi-pairing plus four multi-exponentiations. Across signers, the
// entries of one key share its two slots, e(sum_j delta_j H_kj, V_k),
// so the product has 2 + 2·(distinct keys) slots.
//
// It returns true only if (with probability 1 - 2^-128) every share is
// individually valid. Callers needing to know WHICH share is bad after a
// failure use FindInvalidShares. rng defaults to crypto/rand.
func BatchShareVerify(pk *PublicKey, entries []ShareBatchEntry, rng io.Reader) (bool, error) {
	if len(entries) == 0 {
		return false, errors.New("core: empty share batch")
	}
	for j, e := range entries {
		if !e.wellFormed() {
			return false, fmt.Errorf("core: share batch entry %d lacks a partial signature or verification key", j)
		}
	}
	weights, err := sampleWeights(len(entries), rng)
	if err != nil {
		return false, err
	}
	hs := hashEntries(pk.Params, entries)
	sameVK := true
	for _, e := range entries {
		sameVK = sameVK && e.VK == entries[0].VK
	}

	if sameVK {
		// One signer, k messages: prod_j e(H_kj, V_k)^{delta_j} =
		// e(prod_j H_kj^{delta_j}, V_k), so two more multi-exponentiations
		// reduce the check to a 4-slot multi-pairing on precomputed lines.
		var buf [4][bn254.StackPoints]*bn254.G1
		cols := newColumns(&buf, len(entries))
		for j, e := range entries {
			cols.set(j, e.PS.Z, e.PS.R, hs[j])
		}
		vkPrep := entries[0].VK.lhspsKey(pk.Params).Prepared()
		return cols.check(pk.Params, weights, vkPrep[0], vkPrep[1])
	}

	// Several signers: the hash points of one key aggregate under their
	// weights, prod_{j: VK_j = V} e(H_kj, V_k)^{delta_j} =
	// e(sum_j delta_j H_kj, V_k), so each distinct key costs two MSMs and
	// two slots — at most 2 + 2·(distinct keys) slots in all.
	var zbuf, rbuf [bn254.StackPoints]*bn254.G1
	zs, rs := zbuf[:0], rbuf[:0]
	for _, e := range entries {
		zs = append(zs, e.PS.Z)
		rs = append(rs, e.PS.R)
	}
	zAgg, err := bn254.G1MSM(zs, weights)
	if err != nil {
		return false, err
	}
	rAgg, err := bn254.G1MSM(rs, weights)
	if err != nil {
		return false, err
	}
	gzPrep, grPrep := pk.Params.LH.PreparedGenerators()
	var slotBuf [2 + 2*bn254.StackPoints]bn254.PairingSlot
	var ptrBuf [2 + 2*bn254.StackPoints]*bn254.PairingSlot
	slots, ptrs := slotBuf[:0], ptrBuf[:0]
	slots = append(slots,
		bn254.PairingSlot{P: zAgg, Pre: gzPrep},
		bn254.PairingSlot{P: rAgg, Pre: grPrep},
	)
	var h1buf, h2buf [bn254.StackPoints]*bn254.G1
	var wbuf [bn254.StackPoints]*big.Int
	for j, e := range entries {
		if slices.ContainsFunc(entries[:j], func(d ShareBatchEntry) bool { return d.VK == e.VK }) {
			continue // aggregated with the key's first entry
		}
		h1s, h2s, ws := h1buf[:0], h2buf[:0], wbuf[:0]
		for l := j; l < len(entries); l++ {
			if entries[l].VK == e.VK {
				h1s = append(h1s, &hs[l][0])
				h2s = append(h2s, &hs[l][1])
				ws = append(ws, weights[l])
			}
		}
		h1, err := bn254.G1MSM(h1s, ws)
		if err != nil {
			return false, err
		}
		h2, err := bn254.G1MSM(h2s, ws)
		if err != nil {
			return false, err
		}
		vkPrep := e.VK.lhspsKey(pk.Params).Prepared()
		slots = append(slots,
			bn254.PairingSlot{P: h1, Pre: vkPrep[0]},
			bn254.PairingSlot{P: h2, Pre: vkPrep[1]},
		)
	}
	for i := range slots {
		ptrs = append(ptrs, &slots[i])
	}
	return bn254.PairingCheckMixed(ptrs), nil
}

// FindInvalidShares pinpoints the invalid entries of a share batch by
// bisection: a failing batch is split in half and each half re-checked,
// so k shares with b bad ones cost O(b log k) batch verifications instead
// of k individual ones. Entries that are structurally malformed (nil
// partial or key) are reported as invalid without entering a pairing.
// The returned indices (into entries) are sorted ascending; an empty
// result means every share verified.
func FindInvalidShares(pk *PublicKey, entries []ShareBatchEntry, rng io.Reader) []int {
	well := make([]ShareBatchEntry, 0, len(entries))
	pos := make([]int, 0, len(entries)) // original index of well[j]
	var bad []int
	for j, e := range entries {
		if !e.wellFormed() {
			bad = append(bad, j)
			continue
		}
		well = append(well, e)
		pos = append(pos, j)
	}
	var bisect func(entries []ShareBatchEntry, pos []int, suspect bool)
	bisect = func(entries []ShareBatchEntry, pos []int, suspect bool) {
		if len(entries) == 0 {
			return
		}
		if len(entries) == 1 {
			// A single share gets the definitive (weight-free) check.
			if !shareVerify(pk, entries[0].VK, entries[0].Msg, entries[0].PS) {
				bad = append(bad, pos[0])
			}
			return
		}
		if !suspect {
			if ok, err := BatchShareVerify(pk, entries, rng); err == nil && ok {
				return
			}
		}
		mid := len(entries) / 2
		bisect(entries[:mid], pos[:mid], false)
		bisect(entries[mid:], pos[mid:], false)
	}
	// The caller just watched the whole batch fail, so when no entry was
	// filtered as malformed the root set is known bad and its batch check
	// would repeat the most expensive pairing for nothing — start by
	// splitting. With malformed entries removed the rest may well all
	// verify, so the root check earns its keep.
	bisect(well, pos, len(well) == len(entries))
	sort.Ints(bad)
	return bad
}

// CheckShares reports, per entry, whether the partial signature is valid
// for its message under its verification key — the one share check behind
// both Combine and the coordinator's fan-out. A single entry gets the
// weight-free ShareVerify directly (one multi-pairing, no randomness);
// several entries are accepted by one BatchShareVerify when all are
// valid, and a failing batch is attributed by FindInvalidShares.
func CheckShares(pk *PublicKey, entries []ShareBatchEntry) []bool {
	ok := make([]bool, len(entries))
	if len(entries) == 1 {
		ok[0] = shareVerify(pk, entries[0].VK, entries[0].Msg, entries[0].PS)
		return ok
	}
	for j := range ok {
		ok[j] = true
	}
	if pass, err := BatchShareVerify(pk, entries, nil); err != nil || !pass {
		for _, j := range FindInvalidShares(pk, entries, nil) {
			ok[j] = false
		}
	}
	return ok
}

// CheckSignatures reports, per entry, whether the full signature verifies
// under pk — the signature twin of CheckShares, and the one check between
// an interpolated signature and the coordinator's cache. A single entry
// gets the weight-free Verify (no randomness); several are accepted by one
// BatchVerify when all are valid, and only a failing batch pays per-entry
// Verify to say which.
func CheckSignatures(pk *PublicKey, entries []BatchEntry) []bool {
	ok := make([]bool, len(entries))
	if len(entries) > 1 {
		if pass, err := pk.BatchVerify(entries, nil); err == nil && pass {
			for j := range ok {
				ok[j] = true
			}
			return ok
		}
	}
	for j, e := range entries {
		ok[j] = pk.Verify(e.Msg, e.Sig)
	}
	return ok
}
