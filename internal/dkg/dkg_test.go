package dkg

import (
	"bytes"
	"encoding/hex"
	"math/big"
	mathrand "math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bn254"
	"repro/internal/engine"
	"repro/internal/lhsps"
	"repro/internal/shamir"
)

var testParams = lhsps.NewParams("dkg-test")

func testConfig(n, t, pairs int) Config {
	return Config{N: n, T: t, NumSharings: pairs, Scheme: PedersenScheme{Params: testParams}}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewHonestPlayer(Config{N: 4, T: 2, NumSharings: 2, Scheme: PedersenScheme{Params: testParams}}, 1); err == nil {
		t.Fatal("accepted n < 2t+1")
	}
	if _, err := NewHonestPlayer(testConfig(5, 2, 0), 1); err == nil {
		t.Fatal("accepted NumSharings = 0")
	}
	if _, err := NewHonestPlayer(testConfig(5, 2, 1), 9); err == nil {
		t.Fatal("accepted out-of-range id")
	}
	if _, err := NewHonestPlayer(Config{N: 5, T: 2, NumSharings: 1}, 1); err == nil {
		t.Fatal("accepted missing params")
	}
}

func TestHonestRunAgreesAndIsOneRound(t *testing.T) {
	cfg := testConfig(5, 2, 2)
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := out.Results[1]
	if len(ref.Qual) != 5 {
		t.Fatalf("QUAL = %v, want all 5 players", ref.Qual)
	}
	for i := 2; i <= 5; i++ {
		r := out.Results[i]
		for k := 0; k < 2; k++ {
			if !r.PK[k][0].Equal(ref.PK[k][0]) {
				t.Fatalf("player %d disagrees on PK[%d]", i, k)
			}
		}
		if len(r.Qual) != len(ref.Qual) {
			t.Fatalf("player %d disagrees on QUAL", i)
		}
	}
	// Optimistic case: a single communication round (the paper's claim).
	if got := out.Stats.CommunicationRounds(); got != 1 {
		t.Fatalf("optimistic DKG used %d communication rounds, want 1", got)
	}
}

func TestSharesInterpolateToDealtSecrets(t *testing.T) {
	// Run honest players locally so we can access every polynomial: the
	// interpolated shares must equal the sum of the dealers' secrets, and
	// PK must equal g^_z^a g^_r^b for the reconstructed (a, b).
	cfg := testConfig(5, 2, 2)
	players := make([]engine.Player, cfg.N)
	honest := make([]*HonestPlayer, cfg.N+1)
	for i := 1; i <= cfg.N; i++ {
		hp, err := NewHonestPlayer(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		players[i-1] = hp
		honest[i] = hp
	}
	out, err := RunWithPlayers(cfg, players, honest)
	if err != nil {
		t.Fatal(err)
	}

	fld, _ := shamir.NewField(bn254.Order)
	for k := 0; k < cfg.NumSharings; k++ {
		// Expected secrets: sum over dealers of constant terms.
		wantA := new(big.Int)
		wantB := new(big.Int)
		for i := 1; i <= cfg.N; i++ {
			wantA = fld.Add(wantA, honest[i].Polys[k][0].Secret())
			wantB = fld.Add(wantB, honest[i].Polys[k][1].Secret())
		}
		// Reconstruct from shares of players 2, 4, 5.
		idx := []int{2, 4, 5}
		var sharesA, sharesB []shamir.Share
		for _, i := range idx {
			sharesA = append(sharesA, shamir.Share{X: i, Y: out.Results[i].Share[k][0]})
			sharesB = append(sharesB, shamir.Share{X: i, Y: out.Results[i].Share[k][1]})
		}
		gotA, err := fld.Interpolate(sharesA, new(big.Int))
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := fld.Interpolate(sharesB, new(big.Int))
		if err != nil {
			t.Fatal(err)
		}
		if gotA.Cmp(wantA) != 0 || gotB.Cmp(wantB) != 0 {
			t.Fatalf("sharing %d: reconstructed secret mismatch", k)
		}
		// PK[k] == g^_z^a g^_r^b.
		expect := lhsps.CommitPair(testParams, wantA, wantB)
		if !out.Results[1].PK[k][0].Equal(expect) {
			t.Fatalf("PK[%d] != commitment to reconstructed secrets", k)
		}
	}
}

func TestVerificationKeysMatchShares(t *testing.T) {
	cfg := testConfig(5, 2, 2)
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := out.Results[3]
	for i := 1; i <= cfg.N; i++ {
		vk := ref.VerificationKey(i)
		share := out.Results[i].Share
		for k := 0; k < cfg.NumSharings; k++ {
			expect := lhsps.CommitPair(testParams, share[k][0], share[k][1])
			if !vk[k][0].Equal(expect) {
				t.Fatalf("VK_%d[%d] != g^_z^A g^_r^B", i, k)
			}
		}
	}
	all := ref.AllVerificationKeys()
	if len(all) != cfg.N+1 {
		t.Fatalf("AllVerificationKeys length %d", len(all))
	}
}

func TestCrashPlayerIsExcluded(t *testing.T) {
	cfg := testConfig(5, 2, 2)
	players := make([]engine.Player, cfg.N)
	honest := make([]*HonestPlayer, cfg.N+1)
	for i := 1; i <= cfg.N; i++ {
		if i == 4 {
			players[i-1] = &CrashPlayer{Id: 4}
			continue
		}
		hp, err := NewHonestPlayer(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		players[i-1] = hp
		honest[i] = hp
	}
	out, err := RunWithPlayers(cfg, players, honest)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2, 3, 5} {
		for _, q := range out.Results[i].Qual {
			if q == 4 {
				t.Fatal("crashed player remained in QUAL")
			}
		}
		if len(out.Results[i].Qual) != 4 {
			t.Fatalf("QUAL = %v", out.Results[i].Qual)
		}
	}
}

func TestWrongShareDealerHealsViaResponse(t *testing.T) {
	cfg := testConfig(5, 2, 2)
	players := make([]engine.Player, cfg.N)
	honest := make([]*HonestPlayer, cfg.N+1)
	for i := 1; i <= cfg.N; i++ {
		hp, err := NewHonestPlayer(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		honest[i] = hp
		if i == 2 {
			players[i-1] = &WrongShareDealer{HonestPlayer: hp, Victims: []int{3}}
			continue
		}
		players[i-1] = hp
	}
	out, err := RunWithPlayers(cfg, players, honest)
	if err != nil {
		t.Fatal(err)
	}
	// Dealer 2 justified the complaint, so stays qualified; player 3 got
	// the corrected share from the broadcast response and its share is
	// consistent with the verification keys.
	found := false
	for _, q := range out.Results[1].Qual {
		if q == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("dealer with a justified complaint was disqualified")
	}
	vk := out.Results[1].VerificationKey(3)
	share := out.Results[3].Share
	for k := 0; k < cfg.NumSharings; k++ {
		if !vk[k][0].Equal(lhsps.CommitPair(testParams, share[k][0], share[k][1])) {
			t.Fatal("victim's healed share inconsistent with VK")
		}
	}
	// The run needed complaint and response rounds: 3 communication rounds.
	if got := out.Stats.CommunicationRounds(); got != 3 {
		t.Fatalf("faulty-dealer DKG used %d communication rounds, want 3", got)
	}
}

func TestUnresponsiveAccusedDealerIsDisqualified(t *testing.T) {
	cfg := testConfig(5, 2, 2)
	players := make([]engine.Player, cfg.N)
	honest := make([]*HonestPlayer, cfg.N+1)
	for i := 1; i <= cfg.N; i++ {
		hp, err := NewHonestPlayer(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			players[i-1] = &WrongShareDealer{HonestPlayer: hp, Victims: []int{3}, RefuseResponse: true}
			continue
		}
		players[i-1] = hp
		honest[i] = hp
	}
	out, err := RunWithPlayers(cfg, players, honest)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 3, 4, 5} {
		for _, q := range out.Results[i].Qual {
			if q == 2 {
				t.Fatal("unresponsive accused dealer stayed in QUAL")
			}
		}
	}
}

func TestFalseComplaintDoesNotDisqualify(t *testing.T) {
	cfg := testConfig(5, 2, 2)
	players := make([]engine.Player, cfg.N)
	honest := make([]*HonestPlayer, cfg.N+1)
	for i := 1; i <= cfg.N; i++ {
		hp, err := NewHonestPlayer(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		honest[i] = hp
		if i == 5 {
			players[i-1] = &FalseComplainer{HonestPlayer: hp, Target: 1}
			continue
		}
		players[i-1] = hp
	}
	out, err := RunWithPlayers(cfg, players, honest)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results[2].Qual) != 5 {
		t.Fatalf("QUAL = %v, false complaint should not disqualify", out.Results[2].Qual)
	}
}

func TestRefreshPreservesKeyAndChangesShares(t *testing.T) {
	// First a normal DKG, then a refresh run; merged shares must still be
	// consistent (checked in core's tests end-to-end; here we check the
	// refresh invariants: PK contribution is the identity, shares are a
	// sharing of zero).
	cfg := testConfig(5, 2, 2)
	cfg.Refresh = true
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := out.Results[1]
	for k := 0; k < cfg.NumSharings; k++ {
		if !ref.PK[k][0].IsInfinity() {
			t.Fatal("refresh public-key contribution is not the identity")
		}
	}
	// The shares interpolate to zero.
	fld, _ := shamir.NewField(bn254.Order)
	for k := 0; k < cfg.NumSharings; k++ {
		var shares []shamir.Share
		for _, i := range []int{1, 3, 5} {
			shares = append(shares, shamir.Share{X: i, Y: out.Results[i].Share[k][0]})
		}
		secret, err := fld.Interpolate(shares, new(big.Int))
		if err != nil {
			t.Fatal(err)
		}
		if secret.Sign() != 0 {
			t.Fatal("refresh shares do not share zero")
		}
	}
}

func TestRefreshRejectsNonZeroConstantTerm(t *testing.T) {
	// A dealer that runs the NON-refresh dealing inside a refresh run
	// commits to a non-identity W^0 and must be disqualified by everyone.
	refreshCfg := testConfig(5, 2, 1)
	refreshCfg.Refresh = true
	normalCfg := testConfig(5, 2, 1)

	players := make([]engine.Player, refreshCfg.N)
	honest := make([]*HonestPlayer, refreshCfg.N+1)
	for i := 1; i <= refreshCfg.N; i++ {
		c := refreshCfg
		if i == 3 {
			c = normalCfg // deviating dealer shares a random secret
		}
		hp, err := NewHonestPlayer(c, i)
		if err != nil {
			t.Fatal(err)
		}
		players[i-1] = hp
		if i != 3 {
			honest[i] = hp
		}
	}
	out, err := RunWithPlayers(refreshCfg, players, honest)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2, 4, 5} {
		for _, q := range out.Results[i].Qual {
			if q == 3 {
				t.Fatal("non-zero refresh dealing stayed in QUAL")
			}
		}
	}
}

// smallOrderDealer is honest except that it adds a point of order 10069
// to the constant commitment of its first sharing. Only the per-dealer
// share checks stand between that point and the group key: deals are
// decoded without a G2 membership test (codec.go).
type smallOrderDealer struct {
	*HonestPlayer
	torsion *bn254.G2
}

func (p *smallOrderDealer) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	msgs, err := p.HonestPlayer.Step(round, delivered)
	if err != nil || round != 0 {
		return msgs, err
	}
	cfg := p.HonestPlayer.cfg
	for i := range msgs {
		if msgs[i].Kind != KindDeal {
			continue
		}
		comms, err := decodeDeal(msgs[i].Payload, cfg.NumSharings, cfg.T, cfg.Scheme.CommitDim())
		if err != nil {
			return nil, err
		}
		comms[0][0][0] = new(bn254.G2).Add(comms[0][0][0], p.torsion)
		msgs[i].Payload = encodeDeal(comms)
	}
	return msgs, nil
}

// complaintRecorder is an honest player that notes whom it accuses.
type complaintRecorder struct {
	*HonestPlayer
	accused []int
}

func (p *complaintRecorder) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	msgs, err := p.HonestPlayer.Step(round, delivered)
	for _, m := range msgs {
		if m.Kind == KindComplaint {
			if j, err := decodeComplaint(m.Payload); err == nil {
				p.accused = append(p.accused, j)
			}
		}
	}
	return msgs, err
}

func TestDealerWithSmallOrderCommitmentIsDisqualified(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "bn254", "testdata", "twist_order_10069.hex"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
	if err != nil {
		t.Fatal(err)
	}
	torsion := new(bn254.G2)
	if err := torsion.UnmarshalUnchecked(enc); err != nil {
		t.Fatal(err)
	}

	const bad = 2
	cfg := testConfig(5, 2, 2)
	players := make([]engine.Player, cfg.N)
	honest := make([]*HonestPlayer, cfg.N+1)
	recorders := make(map[int]*complaintRecorder)
	for i := 1; i <= cfg.N; i++ {
		hp, err := NewHonestPlayer(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		if i == bad {
			players[i-1] = &smallOrderDealer{HonestPlayer: hp, torsion: torsion}
			continue
		}
		recorders[i] = &complaintRecorder{HonestPlayer: hp}
		players[i-1] = recorders[i]
		honest[i] = hp
	}
	out, err := RunWithPlayers(cfg, players, honest)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recorders {
		if len(r.accused) != 1 || r.accused[0] != bad {
			t.Errorf("player %d accused %v, want [%d]", i, r.accused, bad)
		}
		res := out.Results[i]
		for _, q := range res.Qual {
			if q == bad {
				t.Errorf("player %d kept dealer %d in Qual %v", i, bad, res.Qual)
			}
		}
		rows := append([][]*bn254.G2(nil), res.PK...)
		for j := 1; j <= cfg.N; j++ {
			rows = append(rows, res.VerificationKey(j)...)
		}
		for _, row := range rows {
			for _, w := range row {
				if err := new(bn254.G2).Unmarshal(w.Marshal()); err != nil {
					t.Fatalf("player %d: key element outside G2: %v", i, err)
				}
			}
		}
	}
}

func TestInternalStateExposesEverything(t *testing.T) {
	// The erasure-free model: after the run, corruption reveals the
	// polynomials and all received shares.
	cfg := testConfig(3, 1, 2)
	players := make([]engine.Player, cfg.N)
	honest := make([]*HonestPlayer, cfg.N+1)
	for i := 1; i <= cfg.N; i++ {
		hp, _ := NewHonestPlayer(cfg, i)
		players[i-1] = hp
		honest[i] = hp
	}
	if _, err := RunWithPlayers(cfg, players, honest); err != nil {
		t.Fatal(err)
	}
	st := honest[2].InternalState()
	if st.ID != 2 || len(st.Polys) != 2 || len(st.Polys[0]) != 2 {
		t.Fatal("internal state missing polynomials")
	}
	if len(st.ReceivedShares) != 3 {
		t.Fatalf("internal state has shares from %d dealers, want 3", len(st.ReceivedShares))
	}
	// The revealed polynomial really is the dealt one: its evaluation at
	// player 1 matches what player 1 received from dealer 2.
	other := honest[1].InternalState()
	if other.ReceivedShares[2][0][0].Cmp(st.Polys[0][0].EvalAt(1)) != 0 {
		t.Fatal("revealed polynomial inconsistent with dealt share")
	}
}

func TestPedersenBiasAttack(t *testing.T) {
	// E11: an adversary with two players biases Pr[lsb(PK) = 0] from 1/2
	// to ~3/4 by selectively disqualifying its own contribution. We run
	// many DKGs and compare empirical frequencies. The trials share one
	// seeded entropy stream, so the count is reproducible.
	const trials = 160
	predicate := func(pk *bn254.G2) bool {
		return pk.Marshal()[bn254.G2SizeUncompressed-1]&1 == 0
	}
	cfg := testConfig(5, 2, 1)
	cfg.Rng = newStreamRand("pedersen-bias-attack")

	biased := 0
	for trial := 0; trial < trials; trial++ {
		players := make([]engine.Player, cfg.N)
		honest := make([]*HonestPlayer, cfg.N+1)
		var attacker *BiasAttacker
		rule := ExclusionRule(func(deals map[int][][][]*bn254.G2) bool {
			// Candidate PK with everyone: prod W_j0. Without attacker: drop 2.
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
			hp, err := NewHonestPlayer(cfg, i)
			if err != nil {
				t.Fatal(err)
			}
			switch i {
			case 2:
				attacker = &BiasAttacker{HonestPlayer: hp, Rule: rule}
				players[i-1] = attacker
			case 4:
				players[i-1] = &BiasHelper{HonestPlayer: hp, AttackerID: 2, Rule: rule}
				honest[i] = hp
			default:
				players[i-1] = hp
				honest[i] = hp
			}
		}
		out, err := RunWithPlayers(cfg, players, honest)
		if err != nil {
			t.Fatal(err)
		}
		if predicate(out.Results[1].PK[0][0]) {
			biased++
		}
		// Consistency: all honest players agree even under attack.
		for _, i := range []int{3, 4, 5} {
			if !out.Results[i].PK[0][0].Equal(out.Results[1].PK[0][0]) {
				t.Fatal("honest players disagree under bias attack")
			}
		}
	}
	// Expected ~3/4 of trials satisfy the predicate; binomial with p=3/4,
	// n=160 puts <=60% about 4.4 sigma below the mean. A uniform key
	// would give ~50%.
	if biased <= trials*60/100 {
		t.Fatalf("bias attack ineffective: %d/%d trials satisfied the predicate", biased, trials)
	}
	t.Logf("bias attack: predicate held in %d/%d trials (uniform would be ~%d)", biased, trials, trials/2)
}

func TestResultBeforeDoneErrors(t *testing.T) {
	hp, err := NewHonestPlayer(testConfig(3, 1, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hp.Result(); err == nil {
		t.Fatal("Result before completion should error")
	}
}

func TestCodecRoundTrips(t *testing.T) {
	shares := []Share{
		{big.NewInt(123), big.NewInt(456)},
		{big.NewInt(789), big.NewInt(12)},
	}
	enc := encodeShares(shares)
	dec, err := decodeShares(enc, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range shares {
		if shares[i][0].Cmp(dec[i][0]) != 0 || shares[i][1].Cmp(dec[i][1]) != 0 {
			t.Fatal("share codec mismatch")
		}
	}
	if _, err := decodeShares(enc[:10], 2, 2); err == nil {
		t.Fatal("accepted truncated shares")
	}

	comp := encodeComplaint(7)
	if got, err := decodeComplaint(comp); err != nil || got != 7 {
		t.Fatal("complaint codec mismatch")
	}
	if _, err := decodeComplaint([]byte{1}); err == nil {
		t.Fatal("accepted malformed complaint")
	}

	entries := []responseEntry{{Complainer: 3, Shares: shares}}
	encR := encodeResponse(entries)
	decR, err := decodeResponse(encR, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(decR) != 1 || decR[0].Complainer != 3 {
		t.Fatal("response codec mismatch")
	}
	if _, err := decodeResponse(encR[:5], 2, 2); err == nil {
		t.Fatal("accepted malformed response")
	}
}

func TestCodecNeverPanicsOnGarbage(t *testing.T) {
	rng := mathrand.New(mathrand.NewSource(11))
	lengths := []int{0, 1, 2, 31, 32, 64, 127, 128, 256, 257, 640}
	for trial := 0; trial < 200; trial++ {
		n := lengths[rng.Intn(len(lengths))]
		data := make([]byte, n)
		rng.Read(data)
		_, _ = decodeDeal(data, 2, 2, 1)
		_, _ = decodeDeal(data, 3, 1, 2)
		_, _ = decodeShares(data, 2, 2)
		_, _ = decodeShares(data, 3, 3)
		_, _ = decodeComplaint(data)
		_, _ = decodeResponse(data, 2, 2)
	}
}

func TestScalarCodecRejectsOutOfRange(t *testing.T) {
	// A share scalar >= r must be rejected (malleability guard).
	over := make([]byte, 2*2*scalarLen)
	bn254.P.FillBytes(over[:scalarLen]) // P > Order, so out of range
	if _, err := decodeShares(over, 2, 2); err == nil {
		t.Fatal("accepted an out-of-range scalar")
	}
}

func TestLargerConfiguration(t *testing.T) {
	// A 3-of-9 DKG end to end with the full consistency checks.
	if testing.Short() {
		t.Skip("large DKG in -short mode")
	}
	cfg := testConfig(9, 3, 2)
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := out.Results[1]
	if len(ref.Qual) != 9 {
		t.Fatalf("QUAL = %v", ref.Qual)
	}
	for i := 2; i <= 9; i++ {
		for k := 0; k < 2; k++ {
			if !out.Results[i].PK[k][0].Equal(ref.PK[k][0]) {
				t.Fatalf("player %d disagrees on PK", i)
			}
		}
	}
	if out.Stats.CommunicationRounds() != 1 {
		t.Fatalf("9-player honest DKG used %d rounds", out.Stats.CommunicationRounds())
	}
	// Shares of any 4 players interpolate consistently with VK.
	vk := ref.VerificationKey(7)
	share := out.Results[7].Share
	if !vk[0][0].Equal(lhsps.CommitPair(testParams, share[0][0], share[0][1])) {
		t.Fatal("VK_7 inconsistent with share")
	}
}

// countingScheme counts the tuples committed to.
type countingScheme struct {
	CommitScheme
	calls *int
}

func (s countingScheme) Commit(coeffs []*big.Int) []*bn254.G2 {
	*s.calls++
	return s.CommitScheme.Commit(coeffs)
}

// roundZero steps fresh players through round 0 and returns them with the
// inbox each one receives for round 1.
func roundZero(t *testing.T, cfg Config) ([]*HonestPlayer, [][]engine.Message) {
	t.Helper()
	players := make([]*HonestPlayer, cfg.N+1)
	inbox := make([][]engine.Message, cfg.N+1)
	for i := 1; i <= cfg.N; i++ {
		hp, err := NewHonestPlayer(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		players[i] = hp
	}
	for i := 1; i <= cfg.N; i++ {
		msgs, err := players[i].Step(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			m.From = i
			for j := 1; j <= cfg.N; j++ {
				if m.IsBroadcast() || m.To == j {
					inbox[j] = append(inbox[j], m)
				}
			}
		}
	}
	return players, inbox
}

func complaintsAgainst(t *testing.T, msgs []engine.Message) []int {
	t.Helper()
	var out []int
	for _, m := range msgs {
		if m.Kind == KindComplaint {
			j, err := decodeComplaint(m.Payload)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, j)
		}
	}
	return out
}

// TestDealSkipsZeroRowsAndOwnShares: in Refresh mode a dealer does not
// commit to its publicly zero constant terms, and a player checks the
// other dealers' shares but not its own, delivered unchanged.
func TestDealSkipsZeroRowsAndOwnShares(t *testing.T) {
	for _, refresh := range []bool{false, true} {
		var calls int
		cfg := testConfig(5, 2, 2)
		cfg.Refresh = refresh
		cfg.Scheme = countingScheme{cfg.Scheme, &calls}
		players, inbox := roundZero(t, cfg)
		rows := cfg.T + 1
		if refresh {
			rows = cfg.T
		}
		if want := cfg.N * cfg.NumSharings * rows; calls != want {
			t.Fatalf("refresh=%v: %d dealers committed to %d tuples, want %d", refresh, cfg.N, calls, want)
		}
		calls = 0
		out, err := players[1].Step(1, inbox[1])
		if err != nil {
			t.Fatal(err)
		}
		if c := complaintsAgainst(t, out); len(c) != 0 {
			t.Fatalf("refresh=%v: honest round 1 complained about %v", refresh, c)
		}
		if want := (cfg.N - 1) * cfg.NumSharings; calls != want {
			t.Fatalf("refresh=%v: round 1 committed to %d tuples, want %d", refresh, calls, want)
		}
	}
}

// TestOwnDealAlteredInDeliveryDrawsComplaint: the shortcut for a player's
// own deal holds only for the bytes it sent; a deal or share payload
// altered on the way back is checked, fails, and draws the complaint.
func TestOwnDealAlteredInDeliveryDrawsComplaint(t *testing.T) {
	for _, kind := range []string{KindDeal, KindShare} {
		cfg := testConfig(3, 1, 1)
		players, inbox := roundZero(t, cfg)
		var other []byte
		for _, m := range inbox[1] {
			if m.Kind == kind && m.From == 2 {
				other = m.Payload
			}
		}
		for i, m := range inbox[1] {
			if m.Kind == kind && m.From == 1 {
				// Dealer 2's payload: well formed, but not what dealer 1
				// committed to or sent.
				inbox[1][i].Payload = other
			}
		}
		out, err := players[1].Step(1, inbox[1])
		if err != nil {
			t.Fatal(err)
		}
		if c := complaintsAgainst(t, out); len(c) != 1 || c[0] != 1 {
			t.Fatalf("%s altered: complaints against %v, want [1]", kind, c)
		}
	}
}

// TestOwnDealAlteredInDeliveryStillFinishes replays
// TestOwnDealAlteredInDeliveryDrawsComplaint's altered deal and altered
// share through rounds 2 and 3: a player's own dealer entry is what it
// dealt, so the complaint it draws is ignored, every player finishes with
// the same public key, and player 1's share matches its verification key.
func TestOwnDealAlteredInDeliveryStillFinishes(t *testing.T) {
	for _, kind := range []string{KindDeal, KindShare} {
		cfg := testConfig(3, 1, 1)
		players, inbox := roundZero(t, cfg)
		var other []byte
		for _, m := range inbox[1] {
			if m.Kind == kind && m.From == 2 {
				other = m.Payload
			}
		}
		for i, m := range inbox[1] {
			if m.Kind == kind && m.From == 1 {
				inbox[1][i].Payload = other
			}
		}
		for round := 1; round <= 3; round++ {
			next := make([][]engine.Message, cfg.N+1)
			for i := 1; i <= cfg.N; i++ {
				out, err := players[i].Step(round, inbox[i])
				if err != nil {
					t.Fatalf("%s altered: player %d, round %d: %v", kind, i, round, err)
				}
				for _, m := range out {
					m.From = i
					for j := 1; j <= cfg.N; j++ {
						if m.IsBroadcast() || m.To == j {
							next[j] = append(next[j], m)
						}
					}
				}
			}
			inbox = next
		}
		var ref *Result
		for i := 1; i <= cfg.N; i++ {
			res, err := players[i].Result()
			if err != nil {
				t.Fatalf("%s altered: player %d: %v", kind, i, err)
			}
			if len(res.Qual) != cfg.N {
				t.Fatalf("%s altered: player %d QUAL = %v, want every dealer", kind, i, res.Qual)
			}
			if ref == nil {
				ref = res
			} else if !res.PK[0][0].Equal(ref.PK[0][0]) {
				t.Fatalf("%s altered: player %d disagrees on the public key", kind, i)
			}
		}
		res, _ := players[1].Result()
		vk := res.VerificationKey(1)
		for ki, share := range res.Share {
			for d, c := range cfg.Scheme.Commit(share) {
				if !c.Equal(vk[ki][d]) {
					t.Fatalf("%s altered: player 1's share does not match its verification key", kind)
				}
			}
		}
	}
}
