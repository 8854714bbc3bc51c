package main

import (
	"fmt"
	"math/big"
	"runtime"
	"time"

	tsig "repro"
	"repro/internal/bn254"
	"repro/internal/core"
)

// The in-process layer ops: timed calls into the exported functions of
// internal/bn254, internal/core and internal/dkg. The unexported field and
// tower types are reached through the smallest public op built on them
// (G1.Add for Fp, GT.Mul for Fp12).

// microStat is one op's measurement: the median of the batch means, their
// inter-quartile range, and allocations per op.
type microStat struct {
	name    string
	unit    string // "us" or "ms"
	value   float64
	iqr     float64
	allocs  float64 // heap objects per op, from runtime.MemStats.Mallocs
	batches int
	iters   int // per batch
}

// Batches per op: as many as the budget buys, within these limits. An op
// too slow for its budget still gets minBatches single-call batches.
const (
	minBatches = 5
	maxBatches = 15
)

// measureOp times fn as batches that together fit the budget: one
// calibration call sizes the batch, each batch reports its mean, and the
// op's figure is the median of those means. For an op slower than a batch
// the calibration call is itself a one-call batch and counts as the first.
func measureOp(name, unit string, budget time.Duration, atLeast int, fn func()) microStat {
	scale := float64(time.Millisecond)
	if unit == "us" {
		scale = float64(time.Microsecond)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs

	start := time.Now()
	fn()
	cost := max(time.Since(start), time.Nanosecond)
	calls := 1

	iters := int(max(budget/maxBatches/cost, 1))
	batches := int(budget / (time.Duration(iters) * cost))
	batches = min(max(batches, atLeast), maxBatches)
	means := make([]float64, 0, batches)
	if iters == 1 {
		means = append(means, float64(cost)/scale)
	}
	for len(means) < batches {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		means = append(means, float64(time.Since(t0))/float64(iters)/scale)
		calls += iters
	}
	runtime.ReadMemStats(&ms)
	s := sortedCopy(means)
	return microStat{
		name: name, unit: unit,
		value: quantile(s, 0.5), iqr: quantile(s, 0.75) - quantile(s, 0.25),
		allocs:  float64(ms.Mallocs-mallocs) / float64(calls),
		batches: batches, iters: iters,
	}
}

// microResults carries the stats plus the exact counts read off the ops'
// outputs (sizes, protocol rounds).
type microResults struct {
	stats  []microStat
	counts map[string]float64
}

func (m *microResults) stat(name string) microStat {
	for _, s := range m.stats {
		if s.name == name {
			return s
		}
	}
	return microStat{}
}

// seededScalar derives a full-width scalar from the workload seed.
func seededScalar(seed uint64, label string) *big.Int {
	return bn254.HashToScalar("bench/scalar", fmt.Appendf(nil, "%d/%s", seed, label))
}

func seededG1(seed uint64, label string) *bn254.G1 {
	return bn254.HashToG1("bench/point", fmt.Appendf(nil, "%d/%s", seed, label))
}

// runMicro measures every in-process layer op, giving each an equal share
// of the total budget and at least atLeast batches.
func runMicro(seed uint64, total time.Duration, atLeast int) (*microResults, error) {
	res := &microResults{counts: map[string]float64{}}
	type op struct {
		name, unit string
		fn         func()
	}
	var ops []op
	add := func(name, unit string, fn func()) { ops = append(ops, op{name, unit, fn}) }

	// --- bn254 ---
	k1, k2 := seededScalar(seed, "k1"), seededScalar(seed, "k2")
	p1, p2 := seededG1(seed, "p1"), seededG1(seed, "p2")
	q1 := new(bn254.G2).ScalarBaseMult(k1)
	q2 := new(bn254.G2).ScalarBaseMult(k2)
	gt1, gt2 := bn254.Pair(p1, q1), bn254.Pair(p2, q2)
	pre1 := bn254.PrecomputeG2(q1)
	msg := fmt.Appendf(nil, "bench micro message, seed %d", seed)
	var sinkG1 bn254.G1
	var sinkG2 bn254.G2
	sinkGT := bn254.NewGT()

	msmPoints := make([]*bn254.G1, 64)
	msmScalars := make([]*big.Int, 64)
	for i := range msmPoints {
		msmPoints[i] = seededG1(seed, fmt.Sprintf("msm%d", i))
		msmScalars[i] = seededScalar(seed, fmt.Sprintf("msm%d", i))
	}
	slots := make([]*bn254.PairingSlot, 4)
	for i := range slots {
		q := new(bn254.G2).ScalarBaseMult(seededScalar(seed, fmt.Sprintf("slot%d", i)))
		slots[i] = &bn254.PairingSlot{P: seededG1(seed, fmt.Sprintf("slot%d", i)), Pre: bn254.PrecomputeG2(q)}
	}

	add("bn254.g1_add_us", "us", func() { sinkG1.Add(p1, p2) })
	add("bn254.gt_mul_us", "us", func() { sinkGT.Mul(gt1, gt2) })
	add("bn254.hash_to_g1_us", "us", func() { bn254.HashToG1("bench/hash", msg) })
	add("bn254.g1_scalar_mult_ms", "ms", func() { sinkG1.ScalarMult(p1, k1) })
	add("bn254.g2_scalar_mult_ms", "ms", func() { sinkG2.ScalarMult(q1, k2) })
	add("bn254.g1_msm3_ms", "ms", func() { _, _ = bn254.G1MSM(msmPoints[:3], msmScalars[:3]) })
	add("bn254.g1_msm64_ms", "ms", func() { _, _ = bn254.G1MSM(msmPoints, msmScalars) })
	add("bn254.pair_ms", "ms", func() { bn254.Pair(p1, q1) })
	add("bn254.pair_fixed_ms", "ms", func() { bn254.PairFixed(p1, pre1) })
	add("bn254.multipair4_mixed_ms", "ms", func() { _, _ = bn254.MultiPairMixed(slots) })
	add("bn254.precompute_g2_ms", "ms", func() { bn254.PrecomputeG2(q2) })

	// --- core: a Keygen(5,2) group with its pairing tables warm ---
	scheme := tsig.NewScheme(tsig.WithDomain(fleetDomain))
	group, members, err := scheme.Keygen(fleetN, fleetT)
	if err != nil {
		return nil, fmt.Errorf("micro keygen: %w", err)
	}
	group.Precompute()
	parts := make([]*tsig.PartialSignature, fleetN)
	for i, m := range members {
		if parts[i], err = m.SignShare(msg); err != nil {
			return nil, err
		}
	}
	quorum := parts[:fleetT+1]
	sig, err := group.Combine(msg, quorum)
	if err != nil {
		return nil, err
	}
	if !group.Verify(msg, sig) {
		return nil, fmt.Errorf("micro: combined signature does not verify")
	}
	// Eight messages, signer 1's share and the full signature on each: the
	// shape batchFanOut hands to BatchShareVerify.
	shareEntries := make([]core.ShareBatchEntry, batchSize)
	sigEntries := make([]tsig.BatchEntry, batchSize)
	for j := range shareEntries {
		m := fmt.Appendf(nil, "bench micro batch message %d, seed %d", j, seed)
		ps, err := members[0].SignShare(m)
		if err != nil {
			return nil, err
		}
		shareEntries[j] = core.ShareBatchEntry{Msg: m, VK: group.VKs[1], PS: ps}
		ms := make([]*tsig.PartialSignature, fleetT+1)
		for i := range ms {
			if ms[i], err = members[i].SignShare(m); err != nil {
				return nil, err
			}
		}
		if sigEntries[j].Sig, err = group.CombinePreverified(ms); err != nil {
			return nil, err
		}
		sigEntries[j].Msg = m
	}
	oneBad := append([]core.ShareBatchEntry(nil), shareEntries...)
	oneBad[5].PS = parts[0] // signer 1's share on a different message
	if bad := core.FindInvalidShares(group.PK, oneBad, nil); len(bad) != 1 || bad[0] != 5 {
		return nil, fmt.Errorf("micro: FindInvalidShares located %v, want [5]", bad)
	}
	partBytes, sigBytes, groupBytes := parts[0].Marshal(), sig.Marshal(), group.Marshal()

	add("core.share_sign_ms", "ms", func() { _, _ = members[0].SignShare(msg) })
	add("core.share_verify_ms", "ms", func() { group.ShareVerify(msg, parts[0]) })
	add("core.combine_preverified_ms", "ms", func() { _, _ = group.CombinePreverified(quorum) })
	add("core.combine_ms", "ms", func() { _, _ = group.Combine(msg, quorum) })
	add("core.verify_ms", "ms", func() { group.Verify(msg, sig) })
	add("core.batch_share_verify1_ms", "ms", func() { _, _ = core.BatchShareVerify(group.PK, shareEntries[:1], nil) })
	add("core.batch_share_verify8_ms", "ms", func() { _, _ = core.BatchShareVerify(group.PK, shareEntries, nil) })
	add("core.batch_verify8_ms", "ms", func() { _, _ = group.BatchVerify(sigEntries, nil) })
	add("core.find_invalid8_ms", "ms", func() { core.FindInvalidShares(group.PK, oneBad, nil) })
	add("core.partial_unmarshal_us", "us", func() { _, _ = tsig.UnmarshalPartialSignature(partBytes) })
	add("core.sig_unmarshal_us", "us", func() { _, _ = tsig.UnmarshalSignature(sigBytes) })
	add("core.group_precompute_ms", "ms", func() {
		if g, err := tsig.UnmarshalGroup(groupBytes); err == nil {
			g.Precompute()
		}
	})
	res.counts["core.share_bytes"] = float64(len(members[0].PrivateShare().Marshal()))
	res.counts["core.sig_bytes"] = float64(len(sigBytes))
	res.counts["core.partial_bytes"] = float64(len(partBytes))

	// --- dkg: in-process, engine simulator ---
	params := scheme.Params()
	add("dkg.keygen_ms", "ms", func() {
		if _, out, err := core.DistKeygen(params, fleetN, fleetT); err == nil {
			res.counts["dkg.keygen_rounds"] = float64(out.Stats.CommunicationRounds())
			res.counts["dkg.keygen_messages"] = float64(out.Stats.TotalMessages())
			res.counts["dkg.keygen_bytes"] = float64(out.Stats.BroadcastBytes + out.Stats.UnicastBytes)
		}
	})
	add("dkg.refresh_ms", "ms", func() { _, _ = core.RunRefresh(params, fleetN, fleetT) })

	budget := total / time.Duration(len(ops))
	for _, o := range ops {
		res.stats = append(res.stats, measureOp(o.name, o.unit, budget, atLeast, o.fn))
	}
	return res, nil
}
