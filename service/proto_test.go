package service

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"repro/internal/bn254"
	"repro/internal/dkg"
	"repro/internal/engine"
	"repro/service/registry"
)

// startDaemonQuorum starts n keyless signer daemons on loopback HTTP and
// a keyless coordinator over them: zero pre-distributed key material
// anywhere. mutate, when non-nil, may replace a daemon's player factory
// (Byzantine injection) before its server starts; down marks daemon
// indices whose server is torn down immediately (a crashed machine).
func startDaemonQuorum(t *testing.T, n int, cfg CoordinatorConfig,
	mutate func(i int, s *Signer), down map[int]bool) (*Coordinator, []*Signer) {
	t.Helper()
	urls := make([]string, n)
	signers := make([]*Signer, n+1)
	for i := 1; i <= n; i++ {
		s, err := NewDaemonSigner(DaemonConfig{Index: i})
		if err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(i, s)
		}
		signers[i] = s
		srv := httptest.NewServer(s)
		if down[i] {
			srv.Close()
		} else {
			t.Cleanup(srv.Close)
		}
		urls[i-1] = srv.URL
	}
	coord, err := NewKeylessCoordinator(urls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return coord, signers
}

// TestE2E_DKGOverHTTP is the paper's "born distributively" story over the
// wire: five keyless daemons (n=5, t=2) run the distributed keygen over
// loopback HTTP with no trusted dealer and no pre-distributed key
// material, each makes its share durable in its own keystore, and the
// quorum immediately serves verified signatures.
func TestE2E_DKGOverHTTP(t *testing.T) {
	dirs := newFleetDirs(t, 5)
	coord, signers, stop := dirs.start(t, 0, nil)
	defer stop()

	group, report, err := coord.RunDKG(context.Background(), 2, "proto-e2e/v1")
	if err != nil {
		t.Fatal(err)
	}
	if group.N != 5 || group.T != 2 || group.Domain != "proto-e2e/v1" {
		t.Fatalf("group = n=%d t=%d %q", group.N, group.T, group.Domain)
	}
	if len(report.Qual) != 5 || len(report.Crashed) != 0 {
		t.Fatalf("report = %+v, want full qual and no crashes", report)
	}
	// The optimistic fast path: deal, complain(none)+finalize — the
	// engine observes completion after round 2.
	if report.Rounds > 3 {
		t.Fatalf("fault-free DKG took %d rounds", report.Rounds)
	}
	// Each daemon's registry holds its own share of the new group, at
	// epoch 1 in the manifest on disk.
	for i := 1; i <= 5; i++ {
		m, err := signers[i].reg.LoadMember(DefaultGroupID, i)
		if err != nil {
			t.Fatalf("daemon %d keystore: %v", i, err)
		}
		if m.Index() != i || !bytes.Equal(m.PrivateShare().Marshal(), signers[i].defTenant().member.Load().PrivateShare().Marshal()) {
			t.Fatalf("daemon %d keystore holds share %d, not the one it serves", i, m.Index())
		}
		if string(m.Group().Marshal()) != string(group.Marshal()) {
			t.Fatalf("daemon %d keystore holds another group", i)
		}
		reg, err := registry.Open(registry.Config{Dir: dirs.signer[i]})
		if err != nil {
			t.Fatal(err)
		}
		if rec, _ := reg.Get(DefaultGroupID); rec.Epoch != 1 {
			t.Fatalf("daemon %d manifest epoch %d, want 1", i, rec.Epoch)
		}
	}

	// Every daemon and the coordinator agree on the group.
	want := group.Marshal()
	for i := 1; i <= 5; i++ {
		g := signers[i].Group()
		if g == nil {
			t.Fatalf("daemon %d still keyless after keygen", i)
		}
		if string(g.Marshal()) != string(want) {
			t.Fatalf("daemon %d disagrees on the group", i)
		}
	}

	// The freshly keygen'd quorum serves signatures at once.
	msg := []byte("born and raised distributively")
	sig, rep, err := coord.Sign(context.Background(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if !group.Verify(msg, sig) {
		t.Fatal("signature does not verify under the DKG'd key")
	}
	if len(rep.Signers) != group.T+1 {
		t.Fatalf("combined %d shares, want %d", len(rep.Signers), group.T+1)
	}
}

// TestE2E_DKGWithCrashedSigner covers the acceptance scenario: one daemon
// is down for the whole keygen. The survivors exclude it (crash-player
// exclusion), agree on a group whose QUAL omits it, and the quorum still
// signs — robustness tolerates up to t crashed or Byzantine signers.
func TestE2E_DKGWithCrashedSigner(t *testing.T) {
	coord, signers := startDaemonQuorum(t, 5, CoordinatorConfig{}, nil, map[int]bool{3: true})

	group, report, err := coord.RunDKG(context.Background(), 2, "proto-crash/v1")
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Crashed) != 1 || report.Crashed[0] != 3 {
		t.Fatalf("crashed = %v, want [3]", report.Crashed)
	}
	for _, q := range report.Qual {
		if q == 3 {
			t.Fatal("crashed signer ended up in QUAL")
		}
	}
	if len(report.Qual) != 4 {
		t.Fatalf("qual = %v, want the 4 survivors", report.Qual)
	}
	if signers[3].Group() != nil {
		t.Fatal("crashed daemon acquired key material")
	}

	msg := []byte("still signing with a crashed dealer")
	sig, rep, err := coord.Sign(context.Background(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if !group.Verify(msg, sig) {
		t.Fatal("signature does not verify")
	}
	for _, s := range rep.Signers {
		if s == 3 {
			t.Fatal("crashed signer contributed a share")
		}
	}
}

// TestE2E_DKGTooManyCrashes: beyond t crashed signers the run must fail
// typed rather than deliver an undersized quorum.
func TestE2E_DKGTooManyCrashes(t *testing.T) {
	coord, _ := startDaemonQuorum(t, 5, CoordinatorConfig{}, nil, map[int]bool{2: true, 3: true, 4: true})

	_, _, err := coord.RunDKG(context.Background(), 2, "proto-crash2/v1")
	if !errors.Is(err, ErrProtocolFailed) {
		t.Fatalf("err = %v, want ErrProtocolFailed", err)
	}
	if _, _, err := coord.Sign(context.Background(), []byte("x")); !errors.Is(err, ErrNoKeyMaterial) {
		t.Fatalf("sign after failed keygen: err = %v, want ErrNoKeyMaterial", err)
	}
}

// byzantineFactory wraps a daemon's player in an adversarial
// implementation from internal/dkg/byzantine.go.
func byzantineFactory(build func(hp *dkg.HonestPlayer) engine.Player) playerFactory {
	return func(proto string, cfg dkg.Config, id int) (engine.Player, *dkg.HonestPlayer, error) {
		hp, err := dkg.NewHonestPlayer(cfg, id)
		if err != nil {
			return nil, nil, err
		}
		return build(hp), hp, nil
	}
}

// TestE2E_DKGExcludesByzantineSigners replays the byzantine.go adversary
// suite against the networked engine: a DKG session over HTTP completes
// and the misbehaving signers end up excluded (or healed) exactly as in
// a local dkg.Run.
func TestE2E_DKGExcludesByzantineSigners(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(i int, s *Signer)
		wantQual []int
	}{
		{
			// Dealer 2 sends player 4 a corrupted share but justifies the
			// complaint: the protocol heals and nobody is excluded.
			name: "wrong share healed",
			mutate: func(i int, s *Signer) {
				if i == 2 {
					s.defTenant().proto.factory = byzantineFactory(func(hp *dkg.HonestPlayer) engine.Player {
						return &dkg.WrongShareDealer{HonestPlayer: hp, Victims: []int{4}}
					})
				}
			},
			wantQual: []int{1, 2, 3, 4, 5},
		},
		{
			// Dealer 2 wrongs player 4 and refuses to answer the
			// complaint: disqualified.
			name: "wrong share unjustified",
			mutate: func(i int, s *Signer) {
				if i == 2 {
					s.defTenant().proto.factory = byzantineFactory(func(hp *dkg.HonestPlayer) engine.Player {
						return &dkg.WrongShareDealer{HonestPlayer: hp, Victims: []int{4}, RefuseResponse: true}
					})
				}
			},
			wantQual: []int{1, 3, 4, 5},
		},
		{
			// Player 5 complains falsely about dealer 1, who justifies:
			// nobody is excluded.
			name: "false complaint",
			mutate: func(i int, s *Signer) {
				if i == 5 {
					s.defTenant().proto.factory = byzantineFactory(func(hp *dkg.HonestPlayer) engine.Player {
						return &dkg.FalseComplainer{HonestPlayer: hp, Target: 1}
					})
				}
			},
			wantQual: []int{1, 2, 3, 4, 5},
		},
		{
			// The Gennaro et al. bias attack: attacker 2 and helper 5
			// collude to pull the attacker's contribution out of the key
			// after seeing every dealing. The attacker is disqualified;
			// the protocol still completes.
			name: "bias attacker",
			mutate: func(i int, s *Signer) {
				switch i {
				case 2:
					s.defTenant().proto.factory = byzantineFactory(func(hp *dkg.HonestPlayer) engine.Player {
						return &dkg.BiasAttacker{HonestPlayer: hp, Rule: alwaysExclude}
					})
				case 5:
					s.defTenant().proto.factory = byzantineFactory(func(hp *dkg.HonestPlayer) engine.Player {
						return &dkg.BiasHelper{HonestPlayer: hp, AttackerID: 2, Rule: alwaysExclude}
					})
				}
			},
			wantQual: []int{1, 3, 4, 5},
		},
		{
			// A silent (crashed) state machine behind a live HTTP server:
			// it answers every step with no messages and is excluded from
			// QUAL because it never deals.
			name: "silent player",
			mutate: func(i int, s *Signer) {
				if i == 3 {
					s.defTenant().proto.factory = func(proto string, cfg dkg.Config, id int) (engine.Player, *dkg.HonestPlayer, error) {
						return &dkg.CrashPlayer{Id: id}, nil, nil
					}
				}
			},
			wantQual: []int{1, 2, 4, 5},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord, _ := startDaemonQuorum(t, 5, CoordinatorConfig{}, tc.mutate, nil)
			group, report, err := coord.RunDKG(context.Background(), 2, "proto-byz/v1")
			if err != nil {
				t.Fatal(err)
			}
			if len(report.Qual) != len(tc.wantQual) {
				t.Fatalf("qual = %v, want %v", report.Qual, tc.wantQual)
			}
			for j, q := range report.Qual {
				if q != tc.wantQual[j] {
					t.Fatalf("qual = %v, want %v", report.Qual, tc.wantQual)
				}
			}
			// The surviving quorum signs and verifies.
			msg := []byte("byzantine-resilient " + tc.name)
			sig, _, err := coord.Sign(context.Background(), msg)
			if err != nil {
				t.Fatal(err)
			}
			if !group.Verify(msg, sig) {
				t.Fatal("signature does not verify")
			}
		})
	}
}

// alwaysExclude makes the bias pair fire unconditionally.
var alwaysExclude dkg.ExclusionRule = func(map[int][][][]*bn254.G2) bool { return true }
