package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// echoPlayer broadcasts one message in round 0, unicasts a reply to every
// broadcast it sees in round 1, and is done after round 1.
type echoPlayer struct {
	id    int
	seen  map[int][]Message // round -> delivered
	done  bool
	fail  int // round in which Step errors with errBoom (-1 = never)
	forge int // sender claimed in the round-0 broadcast (0 = none)
	stall time.Duration
}

var errBoom = errors.New("boom")

func newEchoPlayer(id int) *echoPlayer {
	return &echoPlayer{id: id, seen: make(map[int][]Message), fail: -1}
}

func (p *echoPlayer) ID() int    { return p.id }
func (p *echoPlayer) Done() bool { return p.done }

func (p *echoPlayer) Step(round int, delivered []Message) ([]Message, error) {
	if round == p.fail {
		return nil, errBoom
	}
	p.seen[round] = delivered
	switch round {
	case 0:
		return []Message{{From: p.forge, To: Broadcast, Kind: "hello", Payload: []byte{byte(p.id)}}}, nil
	case 1:
		var out []Message
		for _, m := range delivered {
			if m.Kind == "hello" && m.From != p.id {
				out = append(out, Message{To: m.From, Kind: "ack", Payload: []byte{byte(p.id)}})
			}
		}
		p.done = true
		return out, nil
	}
	return nil, nil
}

// stallPeer wraps a player and blocks until its context is canceled.
type stallPeer struct {
	p Player
}

func (sp stallPeer) ID() int { return sp.p.ID() }
func (sp stallPeer) Step(ctx context.Context, round int, delivered []Message) (StepResult, error) {
	<-ctx.Done()
	return StepResult{}, ctx.Err()
}

func localPeers(players ...*echoPlayer) []Peer {
	peers := make([]Peer, len(players))
	for i, p := range players {
		peers[i] = LocalPeer{P: p}
	}
	return peers
}

func TestMailboxRouting(t *testing.T) {
	mb, err := NewMailbox(3)
	if err != nil {
		t.Fatal(err)
	}
	// The mailbox must stamp the sender identity: a forged From is
	// overwritten.
	if err := mb.Send(1, 0, []Message{
		{From: 99, To: Broadcast, Kind: "b", Payload: []byte("xy")},
		{From: 99, To: 2, Kind: "u", Payload: []byte("z")},
	}); err != nil {
		t.Fatal(err)
	}
	inboxes := mb.NextRound()
	for id := 1; id <= 3; id++ {
		want := 1 // broadcast
		if id == 2 {
			want = 2 // broadcast + unicast
		}
		if len(inboxes[id]) != want {
			t.Fatalf("player %d inbox has %d messages, want %d", id, len(inboxes[id]), want)
		}
		for _, m := range inboxes[id] {
			if m.From != 1 {
				t.Fatalf("sender identity not stamped: From=%d", m.From)
			}
			if m.Round != 0 {
				t.Fatalf("round not stamped: %d", m.Round)
			}
		}
	}
	st := mb.Stats()
	if st.BroadcastMessages != 1 || st.UnicastMessages != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BroadcastBytes != 3 || st.UnicastBytes != 2 { // payload+kind
		t.Fatalf("byte stats = %+v", st)
	}
	// A second NextRound delivers nothing: round-k messages arrive in
	// round k+1 only.
	inboxes = mb.NextRound()
	for id := 1; id <= 3; id++ {
		if len(inboxes[id]) != 0 {
			t.Fatalf("stale delivery to player %d", id)
		}
	}
	if err := mb.Send(1, 2, []Message{{To: 7}}); !errors.Is(err, ErrInvalidRecipient) {
		t.Fatalf("out-of-range recipient: err = %v", err)
	}
}

func TestRunDeliversAndFinishes(t *testing.T) {
	players := []*echoPlayer{newEchoPlayer(1), newEchoPlayer(2), newEchoPlayer(3)}
	players[1].forge = 1 // player 2 claims to be player 1
	report, err := RunLocal([]Player{players[0], players[1], players[2]}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if report.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", report.Rounds)
	}
	for _, p := range players {
		if !p.done {
			t.Fatalf("player %d not done", p.id)
		}
		// Round 1 delivered all three broadcasts, identically.
		if len(p.seen[1]) != 3 {
			t.Fatalf("player %d saw %d round-1 messages, want 3", p.id, len(p.seen[1]))
		}
		// The run stamps the authenticated sender: player 2's forged
		// From is overwritten, so every sender appears exactly once.
		for i, m := range p.seen[1] {
			if m.From != i+1 {
				t.Fatalf("player %d: round-1 message %d claims sender %d", p.id, i, m.From)
			}
		}
	}
	st := report.Stats
	if st.BroadcastMessages != 3 || st.UnicastMessages != 6 {
		t.Fatalf("stats = %+v", st)
	}
	// Bytes are payload+kind: "hello"+1 per broadcast, "ack"+1 per unicast.
	if st.BroadcastBytes != 3*6 || st.UnicastBytes != 6*4 {
		t.Fatalf("byte stats = %+v", st)
	}
	if st.CommunicationRounds() != 2 || len(st.MessagesPerRound) != 2 || st.MessagesPerRound[0] != 3 || st.MessagesPerRound[1] != 6 {
		t.Fatalf("MessagesPerRound = %v", st.MessagesPerRound)
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	seq := []*echoPlayer{newEchoPlayer(1), newEchoPlayer(2), newEchoPlayer(3)}
	par := []*echoPlayer{newEchoPlayer(1), newEchoPlayer(2), newEchoPlayer(3)}
	rs, err := Run(context.Background(), localPeers(seq...), RunConfig{MaxRounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Run(context.Background(), localPeers(par...), RunConfig{MaxRounds: 8, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Stats.TotalMessages() != rp.Stats.TotalMessages() || rs.Rounds != rp.Rounds {
		t.Fatalf("parallel run diverged: %+v vs %+v", rs, rp)
	}
	for i := range seq {
		if len(seq[i].seen[1]) != len(par[i].seen[1]) {
			t.Fatalf("player %d deliveries diverged", i+1)
		}
	}
}

func TestRunExcludesFailedPeers(t *testing.T) {
	players := []*echoPlayer{newEchoPlayer(1), newEchoPlayer(2), newEchoPlayer(3)}
	players[1].fail = 1 // crashes in round 1
	report, err := Run(context.Background(), localPeers(players...), RunConfig{MaxRounds: 8, ExcludeFailed: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := report.FailedIDs(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("failed = %v, want [2]", got)
	}
	if !players[0].done || !players[2].done {
		t.Fatal("surviving players did not finish")
	}
	// Without exclusion the same failure aborts the run.
	players = []*echoPlayer{newEchoPlayer(1), newEchoPlayer(2), newEchoPlayer(3)}
	players[1].fail = 1
	if _, err := Run(context.Background(), localPeers(players...), RunConfig{MaxRounds: 8}); !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want the Step error wrapped", err)
	}
}

// misaddresser emits a message to a player outside 1..n in round 0.
type misaddresser struct{ *echoPlayer }

func (m *misaddresser) Step(round int, delivered []Message) ([]Message, error) {
	if round == 0 {
		return []Message{{To: 99, Kind: "oops"}}, nil
	}
	return m.echoPlayer.Step(round, delivered)
}

// TestRunExcludesMisaddressingPeer: a peer whose output names an invalid
// recipient is that peer's own misbehavior — with ExcludeFailed it is
// dropped like a crash (none of its batch is routed) instead of aborting
// everybody's run.
func TestRunExcludesMisaddressingPeer(t *testing.T) {
	players := []*echoPlayer{newEchoPlayer(1), newEchoPlayer(2), newEchoPlayer(3)}
	peers := localPeers(players...)
	peers[1] = LocalPeer{P: &misaddresser{echoPlayer: players[1]}}
	report, err := Run(context.Background(), peers, RunConfig{MaxRounds: 8, ExcludeFailed: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := report.FailedIDs(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("failed = %v, want [2]", got)
	}
	if !errors.Is(report.Failed[2], ErrInvalidRecipient) {
		t.Fatalf("exclusion error = %v", report.Failed[2])
	}
	if !players[0].done || !players[2].done {
		t.Fatal("surviving players did not finish")
	}
	// Without exclusion the same misbehavior aborts the run.
	players = []*echoPlayer{newEchoPlayer(1), newEchoPlayer(2), newEchoPlayer(3)}
	peers = localPeers(players...)
	peers[1] = LocalPeer{P: &misaddresser{echoPlayer: players[1]}}
	if _, err := Run(context.Background(), peers, RunConfig{MaxRounds: 8}); !errors.Is(err, ErrInvalidRecipient) {
		t.Fatalf("err = %v, want ErrInvalidRecipient", err)
	}
}

func TestRunAllFailed(t *testing.T) {
	players := []*echoPlayer{newEchoPlayer(1), newEchoPlayer(2)}
	players[0].fail = 0
	players[1].fail = 0
	if _, err := Run(context.Background(), localPeers(players...), RunConfig{MaxRounds: 8, ExcludeFailed: true}); err == nil {
		t.Fatal("expected error when every player failed")
	}
}

func TestRunRoundTimeoutExcludesStalledPeer(t *testing.T) {
	players := []*echoPlayer{newEchoPlayer(1), newEchoPlayer(2), newEchoPlayer(3)}
	peers := localPeers(players...)
	peers[2] = stallPeer{p: players[2]} // hangs until context expiry
	report, err := Run(context.Background(), peers, RunConfig{
		MaxRounds:     8,
		RoundTimeout:  20 * time.Millisecond,
		Parallel:      true,
		ExcludeFailed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := report.FailedIDs(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("failed = %v, want [3]", got)
	}
	if !players[0].done || !players[1].done {
		t.Fatal("live players did not finish")
	}
}

func TestRunRoundBound(t *testing.T) {
	// A player that never reports done exhausts MaxRounds.
	p := newEchoPlayer(1)
	p.done = false
	never := &neverDone{echoPlayer: p}
	_, err := Run(context.Background(), []Peer{LocalPeer{P: never}}, RunConfig{MaxRounds: 3})
	if !errors.Is(err, ErrTooManyRounds) {
		t.Fatalf("err = %v, want ErrTooManyRounds", err)
	}
}

type neverDone struct{ *echoPlayer }

func (n *neverDone) Done() bool { return false }

func TestRunValidatesIDs(t *testing.T) {
	bad := newEchoPlayer(2)
	if _, err := Run(context.Background(), []Peer{LocalPeer{P: bad}}, RunConfig{}); err == nil {
		t.Fatal("accepted peer with ID 2 at position 0")
	}
	if _, err := Run(context.Background(), nil, RunConfig{}); err == nil {
		t.Fatal("accepted empty peer list")
	}
	if _, err := Run(context.Background(), []Peer{nil}, RunConfig{}); err == nil {
		t.Fatal("accepted nil peer")
	}
	if _, err := RunLocal([]Player{nil}, 8); err == nil {
		t.Fatal("RunLocal accepted nil player")
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	players := []*echoPlayer{newEchoPlayer(1)}
	if _, err := Run(ctx, localPeers(players...), RunConfig{MaxRounds: 8}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{MessagesPerRound: []int{3, 0, 2}, BroadcastMessages: 4, UnicastMessages: 1}
	if s.CommunicationRounds() != 2 {
		t.Fatalf("CommunicationRounds = %d", s.CommunicationRounds())
	}
	if s.TotalMessages() != 5 {
		t.Fatalf("TotalMessages = %d", s.TotalMessages())
	}
	m := Message{To: Broadcast}
	if !m.IsBroadcast() {
		t.Fatal("broadcast not detected")
	}
	if fmt.Sprint(m.From) != "0" {
		t.Fatal("unexpected zero value")
	}
}
