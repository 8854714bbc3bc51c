// Command benchtables regenerates every quantitative claim of the paper's
// evaluation as a text table:
//
//	benchtables -table sizes     E1/E6: signature & key sizes across schemes
//	benchtables -table ops       E2/E3/E10: per-operation costs across schemes
//	benchtables -table storage   E4: per-player private storage vs n
//	benchtables -table dkg       E5: DKG rounds / messages / bytes vs n
//	benchtables -table rounds    E7: signing-flow interactivity comparison
//	benchtables -table aggregate E9: aggregation compression & verify cost
//	benchtables -table bias      E11: Pedersen-DKG bias attack frequency
//	benchtables -table prims     E12: pairing-substrate microbenchmarks
//	benchtables -table all       everything above
//
// With -json PATH the command instead measures the core benchmark
// families (the BenchmarkShareSign/Verify/Combine/DKG/... set from
// bench_test.go) and writes them as one machine-readable JSON document —
// the committed BENCH_core.json at the repo root is produced this way:
//
//	benchtables -json BENCH_core.json
//
// The service layer is measured end to end by the repo's benchmark,
// go run ./bench (see bench/README.md), not here.
package main

import (
	"crypto/rand"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/big"
	"os"
	"runtime"
	"slices"
	"time"

	tsig "repro"
	"repro/internal/baselines/adnstorage"
	"repro/internal/baselines/boldyreva"
	"repro/internal/baselines/shouprsa"
	"repro/internal/bn254"
	"repro/internal/core"
	"repro/internal/dkg"
	"repro/internal/dlin"
	"repro/internal/engine"
	"repro/internal/lhsps"
	"repro/internal/stdmodel"
)

var (
	tableFlag = flag.String("table", "all", "which table to print: sizes|ops|storage|dkg|rounds|aggregate|bias|prims|all")
	quickFlag = flag.Bool("quick", false, "smaller sweeps and RSA moduli for a fast run")
	trials    = flag.Int("bias-trials", 20, "trials for the bias-attack experiment")
	jsonFlag  = flag.String("json", "", "measure the core benchmark families and write them as JSON to this path (skips the tables)")
)

func main() {
	flag.Parse()
	if *jsonFlag != "" {
		if err := writeBenchJSON(*jsonFlag); err != nil {
			log.Fatal(err)
		}
		return
	}
	run := func(name string, fn func()) {
		if *tableFlag == name || *tableFlag == "all" {
			fn()
			fmt.Println()
		}
	}
	run("sizes", tableSizes)
	run("ops", tableOps)
	run("storage", tableStorage)
	run("dkg", tableDKG)
	run("rounds", tableRounds)
	run("aggregate", tableAggregate)
	run("bias", tableBias)
	run("prims", tablePrims)
}

func rsaBits() int {
	if *quickFlag {
		return 1024
	}
	return shouprsa.DefaultModulusBits
}

// timeIt returns the average duration of fn over iters runs.
func timeIt(iters int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(iters)
}

// ---------------------------------------------------------------- E1/E6

func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

type sizesRow struct {
	scheme    string
	model     string
	dealer    string
	adaptive  string
	sigBits   int
	shareB    int
	paperBits string
}

func tableSizes() {
	fmt.Println("== E1/E6: signature sizes and share sizes at the 128-bit level ==")
	msg := []byte("size probe")

	rows := []sizesRow{}

	// Section 3 scheme.
	group, members := must2(tsig.NewScheme(tsig.WithDomain("tables/core")).Keygen(3, 1))
	parts := []*core.PartialSignature{
		must(members[0].SignShare(msg)),
		must(members[1].SignShare(msg)),
	}
	sig := must(group.Combine(msg, parts))
	rows = append(rows, sizesRow{"this paper S3 (LHSPS+DKG)", "RO", "none (DKG)", "yes",
		len(sig.Marshal()) * 8, members[0].PrivateShare().SizeBytes(), "512"})

	// Section 4 standard model.
	smParams := stdmodel.NewParams("tables/sm")
	smViews := must(stdmodel.DistKeygen(smParams, 3, 1))
	smParts := []*stdmodel.PartialSignature{
		must(stdmodel.ShareSign(smParams, smViews[1].Share, msg, rand.Reader)),
		must(stdmodel.ShareSign(smParams, smViews[2].Share, msg, rand.Reader)),
	}
	smSig := must(stdmodel.Combine(smViews[1].PK, smViews[1].VKs, msg, smParts, 1, rand.Reader))
	rows = append(rows, sizesRow{"this paper S4 (GS proofs)", "standard", "none (DKG)", "yes",
		len(smSig.Marshal()) * 8, smViews[1].Share.SizeBytes(), "2048"})

	// Appendix F DLIN.
	dlParams := dlin.NewParams("tables/dlin")
	dlViews := must(dlin.DistKeygen(dlParams, 3, 1))
	dlParts := []*dlin.PartialSignature{
		must(dlin.ShareSign(dlParams, dlViews[1].Share, msg)),
		must(dlin.ShareSign(dlParams, dlViews[2].Share, msg)),
	}
	dlSig := must(dlin.Combine(dlViews[1].PK, dlViews[1].VKs, msg, dlParts, 1))
	rows = append(rows, sizesRow{"this paper App.F (DLIN)", "RO", "none (DKG)", "yes",
		len(dlSig.Marshal()) * 8, dlViews[1].Share.SizeBytes(), "768"})

	// Boldyreva threshold BLS.
	bParams := boldyreva.NewParams("tables/bls")
	bPK, bShares, err := boldyreva.Deal(bParams, 3, 1, rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	bVKs := []*bn254.G2{nil, bShares[1].VK, bShares[2].VK, bShares[3].VK}
	bParts := []*boldyreva.PartialSignature{
		boldyreva.ShareSign(bParams, bShares[1], msg),
		boldyreva.ShareSign(bParams, bShares[2], msg),
	}
	bSig := must(boldyreva.Combine(bPK, bVKs, msg, bParts, 1))
	rows = append(rows, sizesRow{"Boldyreva threshold BLS [10]", "RO", "trusted", "no (static)",
		len(bSig.Marshal()) * 8, bShares[1].SizeBytes(), "256"})

	// Shoup threshold RSA.
	rPK, rShares, err := shouprsa.Deal(rsaBits(), 3, 1, rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	rParts := []*shouprsa.PartialSignature{
		must(shouprsa.ShareSign(rPK, rShares[1], msg, rand.Reader)),
		must(shouprsa.ShareSign(rPK, rShares[2], msg, rand.Reader)),
	}
	rSig := must(shouprsa.Combine(rPK, msg, rParts))
	rows = append(rows, sizesRow{"Shoup threshold RSA [67]", "RO", "trusted", "no (static)",
		len(rSig.Marshal(rPK)) * 8, rShares[1].SizeBytes(), "3076"})

	fmt.Printf("%-30s %-9s %-12s %-12s %10s %12s %10s\n",
		"scheme", "model", "dealer", "adaptive?", "sig bits", "share bytes", "paper")
	for _, r := range rows {
		fmt.Printf("%-30s %-9s %-12s %-12s %10d %12d %10s\n",
			r.scheme, r.model, r.dealer, r.adaptive, r.sigBits, r.shareB, r.paperBits)
	}
}

func must2[A any, B any](a A, b B, err error) (A, B) {
	if err != nil {
		log.Fatal(err)
	}
	return a, b
}

// ---------------------------------------------------------------- E2/E3/E10

func tableOps() {
	fmt.Printf("== E2/E3/E10: per-operation wall time, n=5 t=2 (%s substrate) ==\n", bn254.Substrate)
	msg := []byte("ops probe")
	iters := 5

	type row struct {
		scheme                                string
		shareSign, shareVerify, combine, vrfy time.Duration
	}
	var rows []row

	{
		group, members := must2(tsig.NewScheme(tsig.WithDomain("tables/ops-core")).Keygen(5, 2))
		parts := func() []*core.PartialSignature {
			var ps []*core.PartialSignature
			for _, m := range members[:3] {
				ps = append(ps, must(m.SignShare(msg)))
			}
			return ps
		}()
		sig := must(group.Combine(msg, parts))
		rows = append(rows, row{
			scheme:      "S3 (this paper, RO)",
			shareSign:   timeIt(iters, func() { _, _ = members[0].SignShare(msg) }),
			shareVerify: timeIt(iters, func() { group.ShareVerify(msg, parts[0]) }),
			combine:     timeIt(iters, func() { _, _ = group.Combine(msg, parts) }),
			vrfy:        timeIt(iters, func() { group.Verify(msg, sig) }),
		})
	}
	{
		params := stdmodel.NewParams("tables/ops-sm")
		views := must(stdmodel.DistKeygen(params, 5, 2))
		var parts []*stdmodel.PartialSignature
		for _, i := range []int{1, 2, 3} {
			parts = append(parts, must(stdmodel.ShareSign(params, views[i].Share, msg, rand.Reader)))
		}
		sig := must(stdmodel.Combine(views[1].PK, views[1].VKs, msg, parts, 2, rand.Reader))
		rows = append(rows, row{
			scheme:      "S4 (this paper, std model)",
			shareSign:   timeIt(iters, func() { _, _ = stdmodel.ShareSign(params, views[1].Share, msg, rand.Reader) }),
			shareVerify: timeIt(iters, func() { stdmodel.ShareVerify(views[1].PK, views[1].VKs[1], msg, parts[0]) }),
			combine:     timeIt(iters, func() { _, _ = stdmodel.Combine(views[1].PK, views[1].VKs, msg, parts, 2, rand.Reader) }),
			vrfy:        timeIt(iters, func() { stdmodel.Verify(views[1].PK, msg, sig) }),
		})
	}
	{
		params := dlin.NewParams("tables/ops-dlin")
		views := must(dlin.DistKeygen(params, 5, 2))
		var parts []*dlin.PartialSignature
		for _, i := range []int{1, 2, 3} {
			parts = append(parts, must(dlin.ShareSign(params, views[i].Share, msg)))
		}
		sig := must(dlin.Combine(views[1].PK, views[1].VKs, msg, parts, 2))
		rows = append(rows, row{
			scheme:      "App.F (this paper, DLIN)",
			shareSign:   timeIt(iters, func() { _, _ = dlin.ShareSign(params, views[1].Share, msg) }),
			shareVerify: timeIt(iters, func() { dlin.ShareVerify(views[1].PK, views[1].VKs[1], msg, parts[0]) }),
			combine:     timeIt(iters, func() { _, _ = dlin.Combine(views[1].PK, views[1].VKs, msg, parts, 2) }),
			vrfy:        timeIt(iters, func() { dlin.Verify(views[1].PK, msg, sig) }),
		})
	}
	{
		params := boldyreva.NewParams("tables/ops-bls")
		pk, shares, err := boldyreva.Deal(params, 5, 2, rand.Reader)
		if err != nil {
			log.Fatal(err)
		}
		vks := make([]*bn254.G2, 6)
		for i := 1; i <= 5; i++ {
			vks[i] = shares[i].VK
		}
		var parts []*boldyreva.PartialSignature
		for _, i := range []int{1, 2, 3} {
			parts = append(parts, boldyreva.ShareSign(params, shares[i], msg))
		}
		sig := must(boldyreva.Combine(pk, vks, msg, parts, 2))
		rows = append(rows, row{
			scheme:      "Boldyreva BLS (static)",
			shareSign:   timeIt(iters, func() { boldyreva.ShareSign(params, shares[1], msg) }),
			shareVerify: timeIt(iters, func() { boldyreva.ShareVerify(params, vks[1], msg, parts[0]) }),
			combine:     timeIt(iters, func() { _, _ = boldyreva.Combine(pk, vks, msg, parts, 2) }),
			vrfy:        timeIt(iters, func() { boldyreva.Verify(pk, msg, sig) }),
		})
	}
	{
		pk, shares, err := shouprsa.Deal(rsaBits(), 5, 2, rand.Reader)
		if err != nil {
			log.Fatal(err)
		}
		var parts []*shouprsa.PartialSignature
		for _, i := range []int{1, 2, 3} {
			parts = append(parts, must(shouprsa.ShareSign(pk, shares[i], msg, rand.Reader)))
		}
		sig := must(shouprsa.Combine(pk, msg, parts))
		rows = append(rows, row{
			scheme:      fmt.Sprintf("Shoup RSA-%d (static)", rsaBits()),
			shareSign:   timeIt(iters, func() { _, _ = shouprsa.ShareSign(pk, shares[1], msg, rand.Reader) }),
			shareVerify: timeIt(iters, func() { shouprsa.ShareVerify(pk, msg, parts[0]) }),
			combine:     timeIt(iters, func() { _, _ = shouprsa.Combine(pk, msg, parts) }),
			vrfy:        timeIt(iters, func() { shouprsa.Verify(pk, msg, sig) }),
		})
	}

	fmt.Printf("%-28s %14s %14s %14s %14s\n", "scheme", "Share-Sign", "Share-Verify", "Combine(t+1)", "Verify")
	for _, r := range rows {
		fmt.Printf("%-28s %14v %14v %14v %14v\n", r.scheme,
			r.shareSign.Round(time.Microsecond), r.shareVerify.Round(time.Microsecond),
			r.combine.Round(time.Microsecond), r.vrfy.Round(time.Microsecond))
	}
}

// ---------------------------------------------------------------- E4

func tableStorage() {
	fmt.Println("== E4: per-player private-key storage vs n (bytes) ==")
	fmt.Println("   this paper: 4 scalars, O(1).  ADN'06-style additive+backup: Theta(n).")
	bits := 1024 // ADN dealing with big moduli is prime-generation bound; sizes scale linearly
	ns := []int{5, 9, 17, 33}
	if *quickFlag {
		ns = []int{5, 9}
	}
	fmt.Printf("%6s %18s %22s %28s\n", "n", "S3 share (O(1))", "ADN measured @1024b", "ADN projected @3072b")
	for _, n := range ns {
		t := (n - 1) / 2
		sys, err := adnstorage.Deal(bits, n, t, rand.Reader)
		if err != nil {
			log.Fatal(err)
		}
		measured := sys.Player(1).StorageBytes()
		// Projection: storage is (1 additive share of |N| bits) + n backup
		// shares of |N|+16 bits.
		projected := 3072/8 + n*(3072+16)/8
		fmt.Printf("%6d %18d %22d %28d\n", n, 4*32, measured, projected)
	}
}

// ---------------------------------------------------------------- E5

func tableDKG() {
	fmt.Println("== E5: Dist-Keygen cost vs n (honest run; one communication round) ==")
	ns := []int{3, 5, 9, 13}
	if *quickFlag {
		ns = []int{3, 5}
	}
	fmt.Printf("%6s %4s %8s %12s %12s %14s %12s\n", "n", "t", "rounds", "broadcasts", "unicasts", "bytes", "wall time")
	for _, n := range ns {
		t := (n - 1) / 2
		cfg := dkg.Config{N: n, T: t, NumSharings: core.Dim,
			Scheme: dkg.PedersenScheme{Params: lhsps.NewParams("tables/dkg")}}
		start := time.Now()
		out, err := dkg.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		el := time.Since(start)
		st := out.Stats
		fmt.Printf("%6d %4d %8d %12d %12d %14d %12v\n",
			n, t, st.CommunicationRounds(), st.BroadcastMessages, st.UnicastMessages,
			st.BroadcastBytes+st.UnicastBytes, el.Round(time.Millisecond))
	}
	// Faulty case: one wrong-share dealer forces the complaint path.
	n, t := 5, 2
	cfg := dkg.Config{N: n, T: t, NumSharings: core.Dim,
		Scheme: dkg.PedersenScheme{Params: lhsps.NewParams("tables/dkg-f")}}
	players := make([]engine.Player, n)
	honest := make([]*dkg.HonestPlayer, n+1)
	for i := 1; i <= n; i++ {
		hp, err := dkg.NewHonestPlayer(cfg, i)
		if err != nil {
			log.Fatal(err)
		}
		honest[i] = hp
		if i == 2 {
			players[i-1] = &dkg.WrongShareDealer{HonestPlayer: hp, Victims: []int{3}}
			continue
		}
		players[i-1] = hp
	}
	out, err := dkg.RunWithPlayers(cfg, players, honest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%6d %4d %8d   (with one faulty dealer: complaint + response rounds)\n",
		n, t, out.Stats.CommunicationRounds())
}

// ---------------------------------------------------------------- E7

func tableRounds() {
	fmt.Println("== E7: interactivity of the signing flow ==")
	scheme := tsig.NewScheme(tsig.WithDomain("tables/rounds"))
	group, members, err := scheme.Keygen(5, 2)
	if err != nil {
		log.Fatal(err)
	}
	msg := []byte("round probe")

	fmt.Printf("%-34s %8s %10s %12s %20s\n", "flow", "rounds", "unicasts", "broadcasts", "signer<->signer msgs")
	st := signRound(group, members, []int{1, 3, 5}, nil, msg)
	fmt.Printf("%-34s %8d %10d %12d %20d\n", "S3 signing (3 signers, fault-free)",
		st.CommunicationRounds(), st.UnicastMessages, st.BroadcastMessages, 0)
	st = signRound(group, members, []int{1, 2, 3, 4, 5}, map[int]bool{2: true, 5: true}, msg)
	fmt.Printf("%-34s %8d %10d %12d %20d\n", "S3 signing (5 signers, 2 faulty)",
		st.CommunicationRounds(), st.UnicastMessages, st.BroadcastMessages, 0)

	// ADN-style additive sharing: fault-free 1 round, any failure forces a
	// reconstruction round among the signers.
	sys, err := adnstorage.Deal(1024, 5, 2, rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	h := big.NewInt(1234567)
	_, rounds, err := sys.Sign(h, []int{1, 2, 3, 4, 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-34s %8d %10s %12s %20s\n", "ADN additive RSA (fault-free)", rounds, "n", "0", "0")
	_, rounds, err = sys.Sign(h, []int{1, 2, 3, 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-34s %8d %10s %12s %20s\n", "ADN additive RSA (1 signer down)", rounds, "n", "0", "t+1 (backup shares)")
}

// stepPlayer is an engine.Player whose behaviour is one closure, which
// returns the round's messages and whether the player is done.
type stepPlayer struct {
	id   int
	step func(round int, in []engine.Message) ([]engine.Message, bool)
	done bool
}

func (p *stepPlayer) ID() int    { return p.id }
func (p *stepPlayer) Done() bool { return p.done }
func (p *stepPlayer) Step(round int, in []engine.Message) ([]engine.Message, error) {
	out, done := p.step(round, in)
	p.done = done
	return out, nil
}

// signRound runs one signing request through the engine and returns its
// traffic: in round 0 every listed signer sends its partial signature
// (one bit flipped if faulty) to a combiner, player n+1, without talking
// to any other signer; in round 1 the combiner combines what arrived.
func signRound(g *tsig.Group, members []*tsig.Member, signers []int, faulty map[int]bool, msg []byte) engine.Stats {
	combiner := len(members) + 1
	players := make([]engine.Player, combiner)
	for i, m := range members {
		players[i] = &stepPlayer{id: i + 1, step: func(round int, _ []engine.Message) ([]engine.Message, bool) {
			if round > 0 || !slices.Contains(signers, m.Index()) {
				return nil, true
			}
			payload := must(m.SignShare(msg)).Marshal()
			if faulty[m.Index()] {
				payload[len(payload)-1] ^= 1
			}
			return []engine.Message{{To: combiner, Kind: "sign/partial", Payload: payload}}, true
		}}
	}
	players[combiner-1] = &stepPlayer{id: combiner, step: func(round int, in []engine.Message) ([]engine.Message, bool) {
		var parts []*tsig.PartialSignature
		for _, m := range in {
			if ps, err := tsig.UnmarshalPartialSignature(m.Payload); err == nil {
				parts = append(parts, ps)
			}
		}
		if round > 0 {
			must(g.Combine(msg, parts))
		}
		return nil, round > 0
	}}
	return must(engine.RunLocal(players, 4)).Stats
}

// ---------------------------------------------------------------- E9

func tableAggregate() {
	fmt.Println("== E9: aggregation (Appendix G): size and verify cost vs chain length ==")
	params := core.NewAggParams("tables/agg")
	views, _, err := core.AggDistKeygen(params, 3, 1)
	if err != nil {
		log.Fatal(err)
	}
	sign := func(msg []byte) *core.Signature {
		var parts []*core.PartialSignature
		for i := 1; i <= 2; i++ {
			parts = append(parts, must(core.AggShareSign(views[1].PK, views[i].Share, msg)))
		}
		return must(core.AggCombine(views[1].PK, views[1].VKs, msg, parts, 1))
	}
	lengths := []int{1, 2, 4, 8}
	if *quickFlag {
		lengths = []int{1, 2, 4}
	}
	fmt.Printf("%8s %16s %16s %16s\n", "chain", "naive bytes", "aggregate bytes", "agg-verify")
	for _, l := range lengths {
		entries := make([]core.AggEntry, l)
		for i := range entries {
			msg := []byte(fmt.Sprintf("certificate %d", i))
			entries[i] = core.AggEntry{PK: views[1].PK, Msg: msg, Sig: sign(msg)}
		}
		agg := must(core.Aggregate(entries))
		d := timeIt(2, func() {
			if !core.AggregateVerify(entries, agg) {
				log.Fatal("aggregate verify failed")
			}
		})
		fmt.Printf("%8d %16d %16d %16v\n", l, l*64, len(agg.Marshal()), d.Round(time.Millisecond))
	}
}

// ---------------------------------------------------------------- E11

func tableBias() {
	fmt.Printf("== E11: Pedersen-DKG bias attack (Gennaro et al. [41]), %d trials ==\n", *trials)
	predicate := func(pk *bn254.G2) bool {
		return pk.Marshal()[bn254.G2SizeUncompressed-1]&1 == 0
	}
	params := lhsps.NewParams("tables/bias")
	cfg := dkg.Config{N: 5, T: 2, NumSharings: 1, Scheme: dkg.PedersenScheme{Params: params}}

	count := func(attack bool) int {
		hit := 0
		for trial := 0; trial < *trials; trial++ {
			players := make([]engine.Player, cfg.N)
			honest := make([]*dkg.HonestPlayer, cfg.N+1)
			rule := dkg.ExclusionRule(func(deals map[int][][][]*bn254.G2) bool {
				if !attack {
					return false
				}
				with := new(bn254.G2)
				without := new(bn254.G2)
				for j, comms := range deals {
					with.Add(with, comms[0][0][0])
					if j != 2 {
						without.Add(without, comms[0][0][0])
					}
				}
				return !predicate(with) && predicate(without)
			})
			for i := 1; i <= cfg.N; i++ {
				hp, err := dkg.NewHonestPlayer(cfg, i)
				if err != nil {
					log.Fatal(err)
				}
				switch {
				case attack && i == 2:
					players[i-1] = &dkg.BiasAttacker{HonestPlayer: hp, Rule: rule}
				case attack && i == 4:
					players[i-1] = &dkg.BiasHelper{HonestPlayer: hp, AttackerID: 2, Rule: rule}
					honest[i] = hp
				default:
					players[i-1] = hp
					honest[i] = hp
				}
			}
			out, err := dkg.RunWithPlayers(cfg, players, honest)
			if err != nil {
				log.Fatal(err)
			}
			if predicate(out.Results[1].PK[0][0]) {
				hit++
			}
		}
		return hit
	}

	honestHits := count(false)
	attackHits := count(true)
	fmt.Printf("%-26s %12s %12s\n", "run", "Pr[lsb=0]", "expected")
	fmt.Printf("%-26s %9d/%-3d %12s\n", "honest players", honestHits, *trials, "~1/2")
	fmt.Printf("%-26s %9d/%-3d %12s\n", "2-player bias attack", attackHits, *trials, "~3/4")
	fmt.Println("   (the key is biased, yet Theorem 1 proves the SCHEME stays secure —")
	fmt.Println("    the paper's point: Pedersen DKG is safe here without uniformity)")
}

// ---------------------------------------------------------------- E12

func tablePrims() {
	fmt.Printf("== E12: pairing-substrate microbenchmarks (%s field) ==\n", bn254.Substrate)
	p := bn254.G1Generator()
	q := bn254.G2Generator()
	k := must(bn254.RandScalar(rand.Reader))
	e := bn254.Pair(p, q)
	rows := []struct {
		name string
		d    time.Duration
	}{
		{"pairing e(P,Q)", timeIt(5, func() { bn254.Pair(p, q) })},
		{"4-way multi-pairing (Verify)", timeIt(5, func() {
			_, _ = bn254.MultiPair([]*bn254.G1{p, p, p, p}, []*bn254.G2{q, q, q, q})
		})},
		{"hash-to-G1", timeIt(20, func() { bn254.HashToG1("tables/prims", []byte("m")) })},
		{"G1 scalar mult", timeIt(20, func() { new(bn254.G1).ScalarMult(p, k) })},
		{"G2 scalar mult", timeIt(10, func() { new(bn254.G2).ScalarMult(q, k) })},
		{"2-base G1 multi-exp (Share-Sign core)", timeIt(10, func() {
			_, _ = bn254.MultiScalarMultG1([]*bn254.G1{p, p}, []*big.Int{k, k})
		})},
		{"GT exponentiation", timeIt(5, func() { new(bn254.GT).Exp(e, k) })},
	}
	for _, r := range rows {
		fmt.Printf("%-40s %12v\n", r.name, r.d.Round(10*time.Microsecond))
	}
	fmt.Fprintln(os.Stderr)
}

// ---------------------------------------------------------------- -json

// benchResult is one measured family in the BENCH_core.json document.
type benchResult struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	Iters   int     `json:"iters"`
}

// benchDoc is the machine-readable benchmark trajectory format: one
// document per suite, committed at the repo root so successive runs can
// be diffed.
type benchDoc struct {
	Schema     string        `json:"schema"`
	Suite      string        `json:"suite"`
	Substrate  string        `json:"substrate"`
	NProc      int           `json:"nproc"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	GoVersion  string        `json:"go_version"`
	GoOS       string        `json:"go_os"`
	GoArch     string        `json:"go_arch"`
	N          int           `json:"n"`
	T          int           `json:"t"`
	Results    []benchResult `json:"results"`
}

// newBenchDoc starts a suite's document with the facts without which two
// documents cannot be compared: the field substrate and the host.
func newBenchDoc(suite string, n, t int) benchDoc {
	return benchDoc{
		Schema: "tsig-bench/v1", Suite: suite, Substrate: bn254.Substrate,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		N: n, T: t,
	}
}

// writeBenchJSON measures the core benchmark families — the same
// operations bench_test.go's BenchmarkShareSign/ShareVerify/Combine/
// Verify/DKG/ProactiveRefresh and the substrate microbenchmarks time —
// and writes them as one JSON document. The historical result names stay
// pinned to (n=5, t=2) so successive documents diff cleanly; scaling
// sweeps over (n, t) and batch sizes carry their shape in the name.
// -quick shrinks every family to one iteration and drops the larger
// sweeps, for CI smoke runs.
func writeBenchJSON(path string) error {
	const n, t = 5, 2
	iters := func(full int) int {
		if *quickFlag {
			return 1
		}
		return full
	}
	msg := []byte("bench probe")
	scheme := tsig.NewScheme(tsig.WithDomain("bench/json"))
	group, members, err := scheme.Keygen(n, t)
	if err != nil {
		return err
	}
	var parts []*core.PartialSignature
	for _, i := range []int{1, 3, 5} {
		ps, err := members[i-1].SignShare(msg)
		if err != nil {
			return err
		}
		parts = append(parts, ps)
	}
	sig, err := group.Combine(msg, parts)
	if err != nil {
		return err
	}

	doc := newBenchDoc("core", n, t)
	measure := func(name string, it int, fn func()) {
		it = iters(it)
		doc.Results = append(doc.Results, benchResult{
			Name: name, NsPerOp: float64(timeIt(it, fn).Nanoseconds()), Iters: it,
		})
	}
	measure("ShareSign", 10, func() { _, _ = members[0].SignShare(msg) })
	measure("ShareVerify", 5, func() { group.ShareVerify(msg, parts[0]) })
	measure("Combine", 10, func() { _, _ = group.Combine(msg, parts) })
	measure("Verify", 5, func() { group.Verify(msg, sig) })
	measure("DKG/n=5", 2, func() {
		cfg := dkg.Config{N: n, T: t, NumSharings: core.Dim,
			Scheme: dkg.PedersenScheme{Params: lhsps.NewParams("bench/json-dkg")}}
		if _, err := dkg.Run(cfg); err != nil {
			log.Fatal(err)
		}
	})
	measure("ProactiveRefresh/n=5", 2, func() {
		out, err := core.RunRefresh(scheme.Params(), n, t)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := members[0].ApplyRefreshResult(out.Results[1]); err != nil {
			log.Fatal(err)
		}
	})
	p, q := bn254.G1Generator(), bn254.G2Generator()
	k := must(bn254.RandScalar(rand.Reader))
	measure("Pairing", 5, func() { bn254.Pair(p, q) })
	measure("MultiPair4", 5, func() {
		_, _ = bn254.MultiPair([]*bn254.G1{p, p, p, p}, []*bn254.G2{q, q, q, q})
	})
	measure("HashToG1", 20, func() { bn254.HashToG1("bench/json", []byte("m")) })
	measure("G1ScalarMult", 20, func() { new(bn254.G1).ScalarMult(p, k) })
	measure("G2ScalarMult", 10, func() { new(bn254.G2).ScalarMult(q, k) })

	// Scaling sweep: the hot-path families at growing committee shapes.
	// (5,2) is already covered by the unsuffixed names above.
	sweeps := [][2]int{{9, 4}, {16, 5}}
	if *quickFlag {
		sweeps = nil
	}
	for _, nt := range sweeps {
		sn, st := nt[0], nt[1]
		sgroup, smembers, err := scheme.Keygen(sn, st)
		if err != nil {
			return err
		}
		var sparts []*core.PartialSignature
		for _, m := range smembers[:st+1] {
			ps, err := m.SignShare(msg)
			if err != nil {
				return err
			}
			sparts = append(sparts, ps)
		}
		ssig, err := sgroup.Combine(msg, sparts)
		if err != nil {
			return err
		}
		suffix := fmt.Sprintf("/n=%d,t=%d", sn, st)
		measure("ShareSign"+suffix, 5, func() { _, _ = smembers[0].SignShare(msg) })
		measure("ShareVerify"+suffix, 5, func() { sgroup.ShareVerify(msg, sparts[0]) })
		measure("Combine"+suffix, 5, func() { _, _ = sgroup.Combine(msg, sparts) })
		measure("Verify"+suffix, 5, func() { sgroup.Verify(msg, ssig) })
	}

	// Batch sweep: k full signatures through BatchVerify and k partials
	// from one signer through BatchShareVerify (the coordinator hot path).
	ks := []int{1, 8, 32}
	if *quickFlag {
		ks = []int{1, 8}
	}
	for _, bk := range ks {
		entries := make([]core.BatchEntry, bk)
		shareEntries := make([]core.ShareBatchEntry, bk)
		for j := 0; j < bk; j++ {
			bmsg := []byte(fmt.Sprintf("batch probe %d", j))
			var bparts []*core.PartialSignature
			for _, i := range []int{1, 3, 5} {
				ps, err := members[i-1].SignShare(bmsg)
				if err != nil {
					return err
				}
				bparts = append(bparts, ps)
			}
			bsig, err := group.Combine(bmsg, bparts)
			if err != nil {
				return err
			}
			entries[j] = core.BatchEntry{Msg: bmsg, Sig: bsig}
			shareEntries[j] = core.ShareBatchEntry{Msg: bmsg, VK: group.VKs[1], PS: bparts[0]}
		}
		measure(fmt.Sprintf("BatchVerify/k=%d", bk), 5, func() {
			if ok, err := group.BatchVerify(entries, nil); err != nil || !ok {
				log.Fatalf("BatchVerify(k=%d) = %v, %v", bk, ok, err)
			}
		})
		measure(fmt.Sprintf("BatchShareVerify/k=%d", bk), 5, func() {
			if ok, err := core.BatchShareVerify(group.PK, shareEntries, nil); err != nil || !ok {
				log.Fatalf("BatchShareVerify(k=%d) = %v, %v", bk, ok, err)
			}
		})
	}

	return writeBenchDoc(path, doc)
}

// writeBenchDoc marshals one suite document to its committed path.
func writeBenchDoc(path string, doc benchDoc) error {
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchtables: wrote %d results -> %s\n", len(doc.Results), path)
	return nil
}
