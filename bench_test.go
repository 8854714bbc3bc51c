package tsig

// Benchmark harness: one benchmark (or benchmark family) per experiment in
// DESIGN.md's per-experiment index. Run with
//
//	go test -bench=. -benchmem
//
// Size-oriented "tables" (E1, E4) are emitted as benchmark metrics
// (sig_bits, share_bytes, storage_bytes) so that a single bench run
// regenerates every number in EXPERIMENTS.md; cmd/benchtables prints the
// same data as formatted tables.

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"sync"
	"testing"

	"repro/internal/baselines/adnstorage"
	"repro/internal/baselines/boldyreva"
	"repro/internal/baselines/shouprsa"
	"repro/internal/bn254"
	"repro/internal/core"
	"repro/internal/dkg"
	"repro/internal/dlin"
	"repro/internal/lhsps"
	"repro/internal/stdmodel"
)

const (
	benchN = 5
	benchT = 2
)

var benchMsg = []byte("benchmark message for every scheme")

// ---- shared fixtures (built once; the DKGs themselves are benchmarked
// separately in BenchmarkDKG) ----

var (
	fixOnce sync.Once

	coreGroup   *Group
	coreMembers []*Member // coreMembers[i-1] holds share i
	coreParts   []*core.PartialSignature
	coreSig     *core.Signature

	smParams *stdmodel.Params
	smViews  []*stdmodel.KeyShares
	smParts  []*stdmodel.PartialSignature
	smSig    *stdmodel.Signature

	dlParams *dlin.Params
	dlViews  []*dlin.KeyShares
	dlParts  []*dlin.PartialSignature
	dlSig    *dlin.Signature

	blsParams *boldyreva.Params
	blsPK     *boldyreva.PublicKey
	blsShares []*boldyreva.KeyShare
	blsVKs    []*bn254.G2
	blsParts  []*boldyreva.PartialSignature
	blsSig    *boldyreva.Signature

	rsaPK     *shouprsa.PublicKey
	rsaShares []*shouprsa.KeyShare
	rsaParts  []*shouprsa.PartialSignature
	rsaSig    *shouprsa.Signature

	aggParams  *core.AggParams
	aggViews   []*core.AggKeyShares
	aggEntries []core.AggEntry
	aggSig     *core.Signature

	fixErr error
)

func mustB[T any](v T, err error) T {
	if err != nil && fixErr == nil {
		fixErr = err
	}
	return v
}

func setupFixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		// Section 3.
		coreGroup, coreMembers, fixErr = NewScheme(WithDomain("bench/core")).Keygen(benchN, benchT)
		for _, i := range []int{1, 2, 3} {
			coreParts = append(coreParts, mustB(coreMembers[i-1].SignShare(benchMsg)))
		}
		coreSig = mustB(coreGroup.Combine(benchMsg, coreParts))

		// Section 4.
		smParams = stdmodel.NewParams("bench/sm")
		smViews = mustB(stdmodel.DistKeygen(smParams, benchN, benchT))
		for _, i := range []int{1, 2, 3} {
			smParts = append(smParts, mustB(stdmodel.ShareSign(smParams, smViews[i].Share, benchMsg, rand.Reader)))
		}
		smSig = mustB(stdmodel.Combine(smViews[1].PK, smViews[1].VKs, benchMsg, smParts, benchT, rand.Reader))

		// Appendix F.
		dlParams = dlin.NewParams("bench/dlin")
		dlViews = mustB(dlin.DistKeygen(dlParams, benchN, benchT))
		for _, i := range []int{1, 2, 3} {
			dlParts = append(dlParts, mustB(dlin.ShareSign(dlParams, dlViews[i].Share, benchMsg)))
		}
		dlSig = mustB(dlin.Combine(dlViews[1].PK, dlViews[1].VKs, benchMsg, dlParts, benchT))

		// Boldyreva.
		blsParams = boldyreva.NewParams("bench/bls")
		var err error
		blsPK, blsShares, err = boldyreva.Deal(blsParams, benchN, benchT, rand.Reader)
		if err != nil {
			fixErr = err
			return
		}
		blsVKs = make([]*bn254.G2, benchN+1)
		for i := 1; i <= benchN; i++ {
			blsVKs[i] = blsShares[i].VK
		}
		for _, i := range []int{1, 2, 3} {
			blsParts = append(blsParts, boldyreva.ShareSign(blsParams, blsShares[i], benchMsg))
		}
		blsSig = mustB(boldyreva.Combine(blsPK, blsVKs, benchMsg, blsParts, benchT))

		// Shoup RSA at the paper's 3072-bit level.
		rsaPK, rsaShares, err = shouprsa.Deal(shouprsa.DefaultModulusBits, benchN, benchT, rand.Reader)
		if err != nil {
			fixErr = err
			return
		}
		for _, i := range []int{1, 2, 3} {
			rsaParts = append(rsaParts, mustB(shouprsa.ShareSign(rsaPK, rsaShares[i], benchMsg, rand.Reader)))
		}
		rsaSig = mustB(shouprsa.Combine(rsaPK, benchMsg, rsaParts))

		// Aggregation (Appendix G): a 4-entry chain.
		aggParams = core.NewAggParams("bench/agg")
		aggViews, _, err = core.AggDistKeygen(aggParams, 3, 1)
		if err != nil {
			fixErr = err
			return
		}
		for i := 0; i < 4; i++ {
			msg := []byte(fmt.Sprintf("bench cert %d", i))
			var parts []*core.PartialSignature
			for j := 1; j <= 2; j++ {
				parts = append(parts, mustB(core.AggShareSign(aggViews[1].PK, aggViews[j].Share, msg)))
			}
			sig := mustB(core.AggCombine(aggViews[1].PK, aggViews[1].VKs, msg, parts, 1))
			aggEntries = append(aggEntries, core.AggEntry{PK: aggViews[1].PK, Msg: msg, Sig: sig})
		}
		aggSig = mustB(core.Aggregate(aggEntries))
	})
	if fixErr != nil {
		b.Fatalf("fixture: %v", fixErr)
	}
}

// ---- E2: Share-Sign cost ----

func BenchmarkShareSign(b *testing.B) {
	setupFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coreMembers[0].SignShare(benchMsg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E3: Verify = product of four pairings (one multi-pairing) ----

func BenchmarkVerify(b *testing.B) {
	setupFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !coreGroup.Verify(benchMsg, coreSig) {
			b.Fatal("verify failed")
		}
	}
}

// BenchmarkFourPairingsNaive quantifies what the shared final
// exponentiation of the multi-pairing saves.
func BenchmarkFourPairingsNaive(b *testing.B) {
	p := bn254.G1Generator()
	q := bn254.G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := bn254.NewGT()
		for j := 0; j < 4; j++ {
			acc.Mul(acc, bn254.Pair(p, q))
		}
	}
}

func BenchmarkShareVerify(b *testing.B) {
	setupFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !coreGroup.ShareVerify(benchMsg, coreParts[0]) {
			b.Fatal("share verify failed")
		}
	}
}

func BenchmarkCombine(b *testing.B) {
	setupFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coreGroup.Combine(benchMsg, coreParts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCombinePreverified is the coordinator's optimistic combine:
// interpolation of t+1 shares with no Share-Verify.
func BenchmarkCombinePreverified(b *testing.B) {
	setupFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coreGroup.CombinePreverified(coreParts); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E5: DKG cost vs n ----

func BenchmarkDKG(b *testing.B) {
	for _, n := range []int{3, 5, 9} {
		t := (n - 1) / 2
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := dkg.Config{N: n, T: t, NumSharings: core.Dim,
				Scheme: dkg.PedersenScheme{Params: lhsps.NewParams("bench/dkg")}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := dkg.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(out.Stats.CommunicationRounds()), "rounds")
				b.ReportMetric(float64(out.Stats.BroadcastBytes+out.Stats.UnicastBytes), "proto_bytes")
			}
		})
	}
}

// ---- E8: proactive refresh ----

func BenchmarkProactiveRefresh(b *testing.B) {
	setupFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := core.RunRefresh(coreGroup.Params, benchN, benchT)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := coreMembers[0].ApplyRefreshResult(out.Results[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E9: aggregation ----

func BenchmarkAggregate(b *testing.B) {
	setupFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Aggregate(aggEntries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregateVerify(b *testing.B) {
	setupFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !core.AggregateVerify(aggEntries, aggSig) {
			b.Fatal("aggregate verify failed")
		}
	}
}

// ---- E10: all schemes side by side ----

func BenchmarkTableAllSchemes(b *testing.B) {
	setupFixtures(b)
	b.Run("S3/ShareSign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = coreMembers[0].SignShare(benchMsg)
		}
	})
	b.Run("S3/Verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coreGroup.Verify(benchMsg, coreSig)
		}
	})
	b.Run("S4/ShareSign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = stdmodel.ShareSign(smParams, smViews[1].Share, benchMsg, rand.Reader)
		}
	})
	b.Run("S4/Verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stdmodel.Verify(smViews[1].PK, benchMsg, smSig)
		}
	})
	b.Run("AppF/ShareSign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = dlin.ShareSign(dlParams, dlViews[1].Share, benchMsg)
		}
	})
	b.Run("AppF/Verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dlin.Verify(dlViews[1].PK, benchMsg, dlSig)
		}
	})
	b.Run("BoldyrevaBLS/ShareSign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			boldyreva.ShareSign(blsParams, blsShares[1], benchMsg)
		}
	})
	b.Run("BoldyrevaBLS/Verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			boldyreva.Verify(blsPK, benchMsg, blsSig)
		}
	})
	b.Run("ShoupRSA3072/ShareSign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = shouprsa.ShareSign(rsaPK, rsaShares[1], benchMsg, rand.Reader)
		}
	})
	b.Run("ShoupRSA3072/Verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			shouprsa.Verify(rsaPK, benchMsg, rsaSig)
		}
	})
}

// ---- E1/E6: sizes, reported as metrics ----

func BenchmarkTableSizes(b *testing.B) {
	setupFixtures(b)
	report := func(name string, sigBits, shareBytes int) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
			}
			b.ReportMetric(float64(sigBits), "sig_bits")
			b.ReportMetric(float64(shareBytes), "share_bytes")
			b.ReportMetric(0, "ns/op")
		})
	}
	report("S3", len(coreSig.Marshal())*8, coreMembers[0].PrivateShare().SizeBytes())
	report("S4", len(smSig.Marshal())*8, smViews[1].Share.SizeBytes())
	report("AppF", len(dlSig.Marshal())*8, dlViews[1].Share.SizeBytes())
	report("BoldyrevaBLS", len(blsSig.Marshal())*8, blsShares[1].SizeBytes())
	report("ShoupRSA3072", len(rsaSig.Marshal(rsaPK))*8, rsaShares[1].SizeBytes())
}

// ---- E4: share storage vs n ----

func BenchmarkTableShareStorage(b *testing.B) {
	for _, n := range []int{5, 9, 17} {
		t := (n - 1) / 2
		b.Run(fmt.Sprintf("ADN/n=%d", n), func(b *testing.B) {
			sys, err := adnstorage.Deal(1024, n, t, rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				_ = sys.Player(1).StorageBytes()
			}
			b.ReportMetric(float64(sys.Player(1).StorageBytes()), "storage_bytes")
		})
		b.Run(fmt.Sprintf("S3/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
			}
			b.ReportMetric(128, "storage_bytes") // four 32-byte scalars, any n
		})
	}
}

// ---- E12: primitives ----

func BenchmarkPairing(b *testing.B) {
	p := bn254.G1Generator()
	q := bn254.G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bn254.Pair(p, q)
	}
}

func BenchmarkMultiPair4(b *testing.B) {
	p := bn254.G1Generator()
	q := bn254.G2Generator()
	ps := []*bn254.G1{p, p, p, p}
	qs := []*bn254.G2{q, q, q, q}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bn254.MultiPair(ps, qs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashToG1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bn254.HashToG1("bench", benchMsg)
	}
}

func BenchmarkG1ScalarMult(b *testing.B) {
	k, _ := bn254.RandScalar(rand.Reader)
	p := bn254.G1Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(bn254.G1).ScalarMult(p, k)
	}
}

func BenchmarkG2ScalarMult(b *testing.B) {
	k, _ := bn254.RandScalar(rand.Reader)
	q := bn254.G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(bn254.G2).ScalarMult(q, k)
	}
}

func BenchmarkG1MultiScalar2(b *testing.B) {
	k1, _ := bn254.RandScalar(rand.Reader)
	k2, _ := bn254.RandScalar(rand.Reader)
	p1 := bn254.HashToG1("bench/h1", nil)
	p2 := bn254.HashToG1("bench/h2", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bn254.MultiScalarMultG1([]*bn254.G1{p1, p2}, []*big.Int{k1, k2}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- batch verification extension ----

func BenchmarkBatchVerify8(b *testing.B) {
	setupFixtures(b)
	entries := make([]core.BatchEntry, 8)
	for i := range entries {
		msg := []byte(fmt.Sprintf("batch bench %d", i))
		var parts []*core.PartialSignature
		for _, j := range []int{1, 2, 3} {
			parts = append(parts, mustB(coreMembers[j-1].SignShare(msg)))
		}
		sig := mustB(coreGroup.Combine(msg, parts))
		entries[i] = core.BatchEntry{Msg: msg, Sig: sig}
	}
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := coreGroup.BatchVerify(entries, rand.Reader)
		if err != nil || !ok {
			b.Fatal("batch verify failed")
		}
	}
}

// ---- batched share verification (the coordinator's hot path) ----

// shareBatch8 is one signer's answers to an 8-message batch — exactly
// what the coordinator batcher verifies per signer per round-trip.
func shareBatch8(b *testing.B) []core.ShareBatchEntry {
	b.Helper()
	setupFixtures(b)
	entries := make([]core.ShareBatchEntry, 8)
	for i := range entries {
		msg := []byte(fmt.Sprintf("share batch bench %d", i))
		entries[i] = core.ShareBatchEntry{
			Msg: msg,
			VK:  coreGroup.VKs[2],
			PS:  mustB(coreMembers[1].SignShare(msg)),
		}
	}
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return entries
}

func BenchmarkBatchShareVerify8(b *testing.B) {
	entries := shareBatch8(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := core.BatchShareVerify(coreGroup.PK, entries, rand.Reader)
		if err != nil || !ok {
			b.Fatal("batch share verify failed")
		}
	}
}

func BenchmarkShareVerify8Individually(b *testing.B) {
	entries := shareBatch8(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range entries {
			if !coreGroup.ShareVerify(e.Msg, e.PS) {
				b.Fatal("share verify failed")
			}
		}
	}
}

// BenchmarkBatchShareVerifyCrossSigner8 uses distinct verification keys
// (signers 1..5 on one message, 1..3 on another), forcing the general
// 2+2k-slot multi-pairing instead of the collapsed 4-slot one.
func BenchmarkBatchShareVerifyCrossSigner8(b *testing.B) {
	setupFixtures(b)
	msgA, msgB := []byte("cross batch A"), []byte("cross batch B")
	var entries []core.ShareBatchEntry
	for i := 1; i <= 5; i++ {
		entries = append(entries, core.ShareBatchEntry{
			Msg: msgA, VK: coreGroup.VKs[i],
			PS: mustB(coreMembers[i-1].SignShare(msgA)),
		})
	}
	for i := 1; i <= 3; i++ {
		entries = append(entries, core.ShareBatchEntry{
			Msg: msgB, VK: coreGroup.VKs[i],
			PS: mustB(coreMembers[i-1].SignShare(msgB)),
		})
	}
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := core.BatchShareVerify(coreGroup.PK, entries, rand.Reader)
		if err != nil || !ok {
			b.Fatal("cross-signer batch verify failed")
		}
	}
}

func BenchmarkVerify8Individually(b *testing.B) {
	setupFixtures(b)
	entries := make([]core.BatchEntry, 8)
	for i := range entries {
		msg := []byte(fmt.Sprintf("batch bench %d", i))
		var parts []*core.PartialSignature
		for _, j := range []int{1, 2, 3} {
			parts = append(parts, mustB(coreMembers[j-1].SignShare(msg)))
		}
		sig := mustB(coreGroup.Combine(msg, parts))
		entries[i] = core.BatchEntry{Msg: msg, Sig: sig}
	}
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range entries {
			if !coreGroup.Verify(e.Msg, e.Sig) {
				b.Fatal("verify failed")
			}
		}
	}
}
