// The conformance tests of the paper's communication model (Section 2.1:
// synchronous rounds, private and authenticated point-to-point channels,
// consistent broadcast) for in-process runs. The model is implemented
// once, by engine.RunLocal; the tests here drive it with small toy
// protocols from outside the package, through its exported surface only.
package engine_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/engine"
)

// echoPlayer broadcasts one message in round 0 and finishes after it has
// received everyone's broadcast.
type echoPlayer struct {
	id       int
	n        int
	received map[int]bool
	done     bool
}

func (p *echoPlayer) ID() int    { return p.id }
func (p *echoPlayer) Done() bool { return p.done }

func (p *echoPlayer) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	for _, m := range delivered {
		if m.Kind == "hello" {
			p.received[m.From] = true
		}
	}
	if len(p.received) == p.n {
		p.done = true
	}
	if round == 0 {
		return []engine.Message{{To: engine.Broadcast, Kind: "hello", Payload: []byte{byte(p.id)}}}, nil
	}
	return nil, nil
}

// runEcho runs the echo protocol among n players.
func runEcho(t *testing.T, n int) (*engine.Report, []*echoPlayer) {
	t.Helper()
	players := make([]engine.Player, n)
	raw := make([]*echoPlayer, n)
	for i := 0; i < n; i++ {
		raw[i] = &echoPlayer{id: i + 1, n: n, received: map[int]bool{}}
		players[i] = raw[i]
	}
	report, err := engine.RunLocal(players, 10)
	if err != nil {
		t.Fatal(err)
	}
	return report, raw
}

func TestBroadcastReachesEveryone(t *testing.T) {
	report, raw := runEcho(t, 5)
	if report.Rounds != 2 {
		t.Fatalf("expected 2 rounds (send, deliver), got %d", report.Rounds)
	}
	for _, p := range raw {
		if len(p.received) != 5 {
			t.Fatalf("player %d received %d broadcasts", p.id, len(p.received))
		}
	}
	st := report.Stats
	if st.BroadcastMessages != 5 {
		t.Fatalf("expected 5 broadcasts, got %d", st.BroadcastMessages)
	}
	if st.UnicastMessages != 0 {
		t.Fatalf("expected no unicasts, got %d", st.UnicastMessages)
	}
}

// unicastPlayer sends a private message to its successor in round 0.
type unicastPlayer struct {
	id   int
	n    int
	got  []engine.Message
	done bool
}

func (p *unicastPlayer) ID() int    { return p.id }
func (p *unicastPlayer) Done() bool { return p.done }

func (p *unicastPlayer) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	p.got = append(p.got, delivered...)
	switch round {
	case 0:
		to := p.id%p.n + 1
		return []engine.Message{{To: to, Kind: "secret", Payload: []byte(fmt.Sprintf("for-%d", to))}}, nil
	default:
		p.done = true
		return nil, nil
	}
}

func TestUnicastIsPrivateAndAuthenticated(t *testing.T) {
	n := 4
	players := make([]engine.Player, n)
	raw := make([]*unicastPlayer, n)
	for i := 0; i < n; i++ {
		raw[i] = &unicastPlayer{id: i + 1, n: n}
		players[i] = raw[i]
	}
	if _, err := engine.RunLocal(players, 5); err != nil {
		t.Fatal(err)
	}
	for _, p := range raw {
		if len(p.got) != 1 {
			t.Fatalf("player %d saw %d messages, want exactly its own", p.id, len(p.got))
		}
		m := p.got[0]
		expectedFrom := p.id - 1
		if expectedFrom == 0 {
			expectedFrom = n
		}
		if m.From != expectedFrom {
			t.Fatalf("player %d: message claims sender %d, want %d", p.id, m.From, expectedFrom)
		}
		if string(m.Payload) != fmt.Sprintf("for-%d", p.id) {
			t.Fatalf("player %d got someone else's payload %q", p.id, m.Payload)
		}
	}
}

// spoofingPlayer tries to impersonate player 1.
type spoofingPlayer struct {
	id   int
	done bool
}

func (p *spoofingPlayer) ID() int    { return p.id }
func (p *spoofingPlayer) Done() bool { return p.done }

func (p *spoofingPlayer) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	p.done = true
	if round == 0 {
		return []engine.Message{{From: 1, To: engine.Broadcast, Kind: "forged"}}, nil
	}
	return nil, nil
}

// recorder remembers every message it sees.
type recorder struct {
	id   int
	got  []engine.Message
	done bool
}

func (p *recorder) ID() int    { return p.id }
func (p *recorder) Done() bool { return p.done }

func (p *recorder) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	p.got = append(p.got, delivered...)
	if round >= 1 {
		p.done = true
	}
	return nil, nil
}

func TestSenderIdentityCannotBeForged(t *testing.T) {
	rec := &recorder{id: 1}
	spoof := &spoofingPlayer{id: 2}
	if _, err := engine.RunLocal([]engine.Player{rec, spoof}, 5); err != nil {
		t.Fatal(err)
	}
	if len(rec.got) != 1 {
		t.Fatalf("recorder saw %d messages", len(rec.got))
	}
	if rec.got[0].From != 2 {
		t.Fatalf("run let player 2 forge sender %d", rec.got[0].From)
	}
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := engine.RunLocal(nil, 3); err == nil {
		t.Fatal("accepted empty player list")
	}
	if _, err := engine.RunLocal([]engine.Player{&recorder{id: 7}}, 3); err == nil {
		t.Fatal("accepted wrong player ID order")
	}
	if _, err := engine.RunLocal([]engine.Player{nil}, 3); err == nil {
		t.Fatal("accepted nil player")
	}
}

type badSender struct {
	id   int
	done bool
}

func (p *badSender) ID() int    { return p.id }
func (p *badSender) Done() bool { return p.done }
func (p *badSender) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	p.done = true
	return []engine.Message{{To: 99, Kind: "lost"}}, nil
}

func TestInvalidRecipientFailsRun(t *testing.T) {
	_, err := engine.RunLocal([]engine.Player{&badSender{id: 1}}, 3)
	if !errors.Is(err, engine.ErrInvalidRecipient) {
		t.Fatalf("expected ErrInvalidRecipient, got %v", err)
	}
}

type neverDone struct{ id int }

func (p *neverDone) ID() int    { return p.id }
func (p *neverDone) Done() bool { return false }
func (p *neverDone) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	return nil, nil
}

func TestRunTimesOut(t *testing.T) {
	_, err := engine.RunLocal([]engine.Player{&neverDone{id: 1}}, 3)
	if !errors.Is(err, engine.ErrTooManyRounds) {
		t.Fatalf("expected ErrTooManyRounds, got %v", err)
	}
}

var errBoom = errors.New("boom")

type failing struct{ id int }

func (p *failing) ID() int    { return p.id }
func (p *failing) Done() bool { return false }
func (p *failing) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	return nil, errBoom
}

func TestStepErrorPropagates(t *testing.T) {
	_, err := engine.RunLocal([]engine.Player{&failing{id: 1}}, 3)
	if err == nil || !errors.Is(err, errBoom) {
		t.Fatalf("expected wrapped errBoom, got %v", err)
	}
}

func TestStatsCountBytes(t *testing.T) {
	report, _ := runEcho(t, 4)
	st := report.Stats
	// Each broadcast: payload 1 byte + kind "hello" (5 bytes).
	if st.BroadcastBytes != 4*6 {
		t.Fatalf("broadcast bytes = %d, want 24", st.BroadcastBytes)
	}
	if st.TotalMessages() != 4 {
		t.Fatalf("total messages = %d", st.TotalMessages())
	}
}

func TestCommunicationRounds(t *testing.T) {
	// Echo protocol: all traffic is in round 0, so exactly one
	// communication round despite two engine rounds.
	report, _ := runEcho(t, 3)
	st := report.Stats
	if st.CommunicationRounds() != 1 {
		t.Fatalf("CommunicationRounds = %d, want 1", st.CommunicationRounds())
	}
	if len(st.MessagesPerRound) < 1 || st.MessagesPerRound[0] != 3 {
		t.Fatalf("MessagesPerRound = %v", st.MessagesPerRound)
	}
}
