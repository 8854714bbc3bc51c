// Package engine is the transport-agnostic runtime for the round-based
// protocols of this repository (Pedersen's DKG, the proactive refresh,
// share recovery, the Appendix G aggregation keygen). It factors the
// communication model of the paper (Section 2.1) out of any particular
// delivery mechanism: protocols are written once as Player state
// machines stepped once per round, and the engine supplies
//
//   - the Message type and the routing rules of the model — messages sent
//     in round k are delivered at the beginning of round k+1, the sender
//     identity is stamped by the network (authenticated channels), unicast
//     messages reach only their recipient (private channels), broadcasts
//     reach everybody identically (consistent broadcast) — implemented by
//     Mailbox; and
//   - the repository's only round driver, Run, that works over any
//     delivery backend through the Peer interface: an in-process state
//     machine (LocalPeer; RunLocal is the shorthand the local keygen,
//     refresh, recovery and tests use) or a remote daemon stepped over
//     HTTP (the protocol sessions of repro/service).
//
// Because the in-process runs and the networked service drive the identical
// routing and stepping code, a protocol that passes the in-process tests
// behaves the same over the wire, and the two paths cannot drift.
package engine

import (
	"errors"
	"fmt"
)

// Broadcast is the special recipient index addressing all players.
const Broadcast = -1

// Message is a single protocol message. From is stamped by the network
// (channels are authenticated); To is a 1-based player index or Broadcast.
type Message struct {
	From    int
	To      int
	Round   int
	Kind    string
	Payload []byte
}

// IsBroadcast reports whether the message was sent on the broadcast channel.
func (m *Message) IsBroadcast() bool { return m.To == Broadcast }

// Player is a protocol state machine. Step is called once per round with
// the messages delivered this round (sent during the previous round) and
// returns the messages to send. Done reports protocol completion; a done
// player is still stepped (it may need to observe later rounds) but the
// run ends once every player is done.
type Player interface {
	// ID returns the player's 1-based index.
	ID() int
	// Step advances the protocol by one round.
	Step(round int, delivered []Message) ([]Message, error)
	// Done reports whether this player has produced its final output.
	Done() bool
}

// Stats aggregates traffic counters for a run.
type Stats struct {
	Rounds            int
	BroadcastMessages int
	UnicastMessages   int
	BroadcastBytes    int
	UnicastBytes      int
	// MessagesPerRound[k] counts the logical sends issued during round k.
	// The number of non-zero entries is the protocol's "communication
	// round" count: the paper's round-optimality claim (one round for DKG
	// in the optimistic case) is measured from this.
	MessagesPerRound []int
}

// CommunicationRounds returns the number of rounds in which at least one
// message was sent.
func (s Stats) CommunicationRounds() int {
	c := 0
	for _, m := range s.MessagesPerRound {
		if m > 0 {
			c++
		}
	}
	return c
}

// TotalMessages returns the number of logical sends (a broadcast counts
// once, matching how round-optimal DKG message complexity is reported).
func (s Stats) TotalMessages() int { return s.BroadcastMessages + s.UnicastMessages }

// ErrInvalidRecipient marks a message addressed outside 1..n.
var ErrInvalidRecipient = errors.New("engine: message to invalid player")

// validatePlayers checks that player IDs are exactly 1..n in order.
func validatePlayers[P interface{ ID() int }](players []P) error {
	if len(players) == 0 {
		return errors.New("engine: no players")
	}
	for i, p := range players {
		if any(p) == nil {
			return fmt.Errorf("engine: player %d is nil", i+1)
		}
		if p.ID() != i+1 {
			return fmt.Errorf("engine: player at position %d has ID %d", i, p.ID())
		}
	}
	return nil
}
