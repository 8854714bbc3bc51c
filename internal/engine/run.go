package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Peer is one player reachable through some delivery backend: an
// in-process state machine (LocalPeer), or a protocol session hosted by a
// remote daemon and stepped over HTTP (repro/service). Step advances the
// peer by one synchronized round and reports whether it has produced its
// final output; the engine keeps stepping done peers (they may need to
// observe later rounds) until every live peer is done.
type Peer interface {
	// ID returns the peer's 1-based player index.
	ID() int
	// Step delivers the round's inbox and returns the peer's outgoing
	// messages plus its completion status.
	Step(ctx context.Context, round int, delivered []Message) (StepResult, error)
}

// StepResult is one peer's output for one round.
type StepResult struct {
	Out  []Message
	Done bool
}

// LocalPeer adapts an in-process Player to the Peer interface — the
// backend RunLocal uses.
type LocalPeer struct {
	P Player
}

// ID implements Peer.
func (lp LocalPeer) ID() int { return lp.P.ID() }

// Step implements Peer.
func (lp LocalPeer) Step(_ context.Context, round int, delivered []Message) (StepResult, error) {
	out, err := lp.P.Step(round, delivered)
	if err != nil {
		return StepResult{}, err
	}
	return StepResult{Out: out, Done: lp.P.Done()}, nil
}

// RunConfig tunes one engine run.
type RunConfig struct {
	// MaxRounds bounds the run; exceeding it is an error.
	MaxRounds int
	// RoundTimeout bounds each individual peer Step call (0 = none). Only
	// meaningful for remote peers — a local state machine cannot observe
	// its context.
	RoundTimeout time.Duration
	// Parallel steps the peers of one round concurrently. Leave false for
	// deterministic local runs (players are stepped in ID order, so a
	// shared entropy source is read in a reproducible order); set it for
	// remote peers, where a round costs one network round-trip per peer
	// otherwise.
	Parallel bool
	// ExcludeFailed drops a peer whose Step fails (or times out) from the
	// rest of the run instead of failing it — the crash-player exclusion
	// of the networked drivers: the protocol is robust, so the remaining
	// players complete and the crashed one simply stops contributing. When
	// false, the first Step error aborts the run.
	ExcludeFailed bool
}

func (c RunConfig) withDefaults() RunConfig {
	if c.MaxRounds <= 0 {
		c.MaxRounds = 16
	}
	return c
}

// Report is the outcome of one engine run.
type Report struct {
	// Rounds is the number of executed rounds.
	Rounds int
	// Stats are the mailbox's traffic counters.
	Stats Stats
	// Failed maps the player index of every excluded peer to the Step
	// error that excluded it (empty unless ExcludeFailed).
	Failed map[int]error
}

// FailedIDs returns the excluded player indices, sorted ascending.
func (r *Report) FailedIDs() []int {
	ids := make([]int, 0, len(r.Failed))
	for id := range r.Failed {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// ErrTooManyRounds reports a protocol that did not finish within
// MaxRounds.
var ErrTooManyRounds = errors.New("engine: protocol did not finish within the round bound")

// Run drives the peers through synchronized rounds until every live peer
// is done: each round it steps every peer with its inbox (in parallel
// when configured), routes the outputs through a Mailbox, and delivers
// them at the beginning of the next round. Peer IDs must be exactly 1..n
// in order. With ExcludeFailed, peers whose Step fails are recorded in
// the report and silently dropped from subsequent rounds, provided at
// least one peer stays live.
func Run(ctx context.Context, peers []Peer, cfg RunConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := validatePlayers(peers); err != nil {
		return nil, err
	}
	n := len(peers)
	mb, err := NewMailbox(n)
	if err != nil {
		return nil, err
	}
	report := &Report{Failed: make(map[int]error)}

	type stepOutcome struct {
		res StepResult
		err error
	}
	live := make([]Peer, len(peers))
	copy(live, peers)
	done := make(map[int]bool, n)
	inboxes := make([][]Message, n+1)

	for round := 0; round < cfg.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return report, err
		}
		outcomes := make(map[int]stepOutcome, len(live))
		stepOne := func(p Peer) stepOutcome {
			stepCtx := ctx
			if cfg.RoundTimeout > 0 {
				var cancel context.CancelFunc
				stepCtx, cancel = context.WithTimeout(ctx, cfg.RoundTimeout)
				defer cancel()
			}
			res, err := p.Step(stepCtx, round, inboxes[p.ID()])
			return stepOutcome{res: res, err: err}
		}
		if cfg.Parallel && len(live) > 1 {
			var mu sync.Mutex
			var wg sync.WaitGroup
			for _, p := range live {
				wg.Add(1)
				go func(p Peer) {
					defer wg.Done()
					oc := stepOne(p)
					mu.Lock()
					outcomes[p.ID()] = oc
					mu.Unlock()
				}(p)
			}
			wg.Wait()
		} else {
			for _, p := range live {
				outcomes[p.ID()] = stepOne(p)
			}
		}

		next := live[:0]
		for _, p := range live {
			oc := outcomes[p.ID()]
			if oc.err == nil {
				// Mis-addressed output is the peer's own misbehavior
				// (Byzantine or buggy) — checked before anything is routed
				// so a bad batch queues no messages at all, and handled
				// exactly like a Step failure rather than aborting the
				// run.
				for _, m := range oc.res.Out {
					if m.To != Broadcast && (m.To < 1 || m.To > n) {
						oc.err = fmt.Errorf("%w: %d", ErrInvalidRecipient, m.To)
						break
					}
				}
			}
			if oc.err != nil {
				if !cfg.ExcludeFailed {
					report.Stats = mb.Stats()
					return report, fmt.Errorf("engine: player %d failed in round %d: %w", p.ID(), round, oc.err)
				}
				report.Failed[p.ID()] = oc.err
				delete(done, p.ID())
				continue
			}
			// Route through the mailbox, which stamps the authenticated
			// sender identity; a peer cannot speak for anybody else.
			if err := mb.Send(p.ID(), round, oc.res.Out); err != nil {
				report.Stats = mb.Stats()
				return report, fmt.Errorf("engine: player %d: %w", p.ID(), err)
			}
			done[p.ID()] = oc.res.Done
			next = append(next, p)
		}
		live = next
		if len(live) == 0 {
			report.Stats = mb.Stats()
			return report, errors.New("engine: every player failed")
		}

		inboxes = mb.NextRound()
		report.Rounds = round + 1
		allDone := true
		for _, p := range live {
			if !done[p.ID()] {
				allDone = false
				break
			}
		}
		if allDone {
			report.Stats = mb.Stats()
			return report, nil
		}
	}
	report.Stats = mb.Stats()
	return report, fmt.Errorf("%w (%d rounds)", ErrTooManyRounds, cfg.MaxRounds)
}

// RunLocal drives in-process players through engine.Run: sequentially in
// ID order (so a shared seeded entropy source is read reproducibly),
// without excluding failed players (the first Step error aborts the run)
// and under a background context.
func RunLocal(players []Player, maxRounds int) (*Report, error) {
	peers := make([]Peer, len(players))
	for i, p := range players {
		if p == nil {
			return nil, fmt.Errorf("engine: player %d is nil", i+1)
		}
		peers[i] = LocalPeer{P: p}
	}
	return Run(context.Background(), peers, RunConfig{MaxRounds: maxRounds})
}
