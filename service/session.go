package service

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dkg"
	"repro/internal/engine"
	"repro/service/metrics"
)

// This file is the signer-side session layer of the networked protocol
// engine: the endpoints through which a signer daemon participates in a
// distributed keygen or proactive refresh. The daemon hosts one protocol
// session per kind at a time; the coordinator (or any driver speaking the
// same schema) creates it with start, advances it round by round with
// step, and collects the outcome with finish:
//
//	POST /v1/proto/{dkg|refresh}/start  ProtoStartRequest  -> ProtoStartResponse
//	POST /v1/proto/{dkg|refresh}/step   ProtoStepRequest   -> ProtoStepResponse
//	POST /v1/proto/{dkg|refresh}/finish ProtoFinishRequest -> ProtoFinishResponse
//
// The player state machine behind a session is exactly the one a local
// dkg.Run drives through engine.RunLocal, so the local and networked
// protocol paths cannot drift. The daemon's PRIVATE
// outputs never leave the machine: finish returns only the public group
// description, while the private share is installed into the signer's
// serving state and persisted through its keyfile hook.
//
// Sessions are garbage collected: a session untouched for the host's TTL
// is evicted (lazily, on the next session request), so a crashed driver
// cannot leak player state forever.

// Protocol kinds hosted by the session layer.
const (
	// ProtoDKG is the distributed key generation of Section 3.1:
	// Pedersen's DKG over two parallel sharings, no trusted dealer.
	ProtoDKG = "dkg"
	// ProtoRefresh is the proactive refresh of Section 3.3: a zero-
	// sharing DKG whose outcome every member applies locally.
	ProtoRefresh = "refresh"
)

// ProtoMessage is one protocol message on the wire. From is meaningful
// only on delivery (the coordinator stamps the authenticated sender); To
// is a 1-based player index or -1 for broadcast.
type ProtoMessage struct {
	From    int    `json:"from,omitempty"`
	To      int    `json:"to"`
	Round   int    `json:"round,omitempty"`
	Kind    string `json:"kind"`
	Payload []byte `json:"payload,omitempty"`
}

func toWireMessages(msgs []engine.Message) []ProtoMessage {
	out := make([]ProtoMessage, len(msgs))
	for i, m := range msgs {
		out[i] = ProtoMessage{From: m.From, To: m.To, Round: m.Round, Kind: m.Kind, Payload: m.Payload}
	}
	return out
}

func fromWireMessages(msgs []ProtoMessage) []engine.Message {
	out := make([]engine.Message, len(msgs))
	for i, m := range msgs {
		out[i] = engine.Message{From: m.From, To: m.To, Round: m.Round, Kind: m.Kind, Payload: m.Payload}
	}
	return out
}

// ProtoStartRequest opens a protocol session on a signer daemon. Index
// must equal the daemon's own player index (the coordinator derives it
// from the signer's position in its URL list); N, T and Domain fix the
// protocol parameters — for a refresh they must match the key material
// the daemon already holds.
type ProtoStartRequest struct {
	Session string `json:"session"`
	N       int    `json:"n"`
	T       int    `json:"t"`
	Index   int    `json:"index"`
	Domain  string `json:"domain,omitempty"`
	// GroupHash (refresh only) is the SHA-256 of Group.Marshal for the
	// group the driver is refreshing. A daemon whose key material hashes
	// differently — e.g. it missed an earlier epoch and holds stale
	// shares — refuses the session with CodeConflict and is excluded
	// up front, BEFORE it could apply the epoch to a divergent base and
	// end up disagreeing with everybody at finish time.
	GroupHash []byte `json:"group_hash,omitempty"`
	// Epoch (DKG only) authorizes a key ROTATION: a keyed signer refuses
	// a keygen unless Epoch is strictly greater than its registry
	// record's epoch, so a replayed or stale rotation request cannot
	// regenerate a key behind the current one. Zero (the pre-tenancy
	// wire form) means a fresh mint, allowed only on a keyless tenant.
	Epoch uint64 `json:"epoch,omitempty"`
}

// ProtoStartResponse carries the player's round-0 messages.
type ProtoStartResponse struct {
	Messages []ProtoMessage `json:"messages"`
	Done     bool           `json:"done,omitempty"`
}

// ProtoStepRequest delivers one round's inbox to the session's player.
// Round must be exactly one past the last executed round — out-of-order
// or replayed steps are answered with CodeConflict, so a retrying driver
// cannot double-step a state machine.
type ProtoStepRequest struct {
	Session  string         `json:"session"`
	Round    int            `json:"round"`
	Messages []ProtoMessage `json:"messages"`
}

// ProtoStepResponse carries the player's outgoing messages for the round
// and its completion status.
type ProtoStepResponse struct {
	Messages []ProtoMessage `json:"messages"`
	Done     bool           `json:"done,omitempty"`
}

// ProtoFinishRequest closes a completed session and asks for its public
// outcome.
type ProtoFinishRequest struct {
	Session string `json:"session"`
}

// ProtoFinishResponse is the public outcome of a finished session: the
// daemon's index, the qualified dealer set, and the resulting group
// description (core.Group.Marshal bytes — public key material only; the
// private share stays on the daemon). Every honest participant of one
// session returns byte-identical Group bytes.
type ProtoFinishResponse struct {
	Index int    `json:"index"`
	Qual  []int  `json:"qual"`
	Group []byte `json:"group"`
}

// ProtoRunRequest asks a coordinator to drive a whole protocol run across
// its signers (POST /v1/proto/{dkg|refresh}/run). T and Domain configure
// a keygen (n is the coordinator's signer count); both are ignored for a
// refresh, which takes its parameters from the group the coordinator
// already serves.
type ProtoRunRequest struct {
	T      int    `json:"t,omitempty"`
	Domain string `json:"domain,omitempty"`
	// Rotate (DKG only) authorizes replacing an EXISTING group's key with
	// a freshly generated one: the coordinator bumps the tenant's epoch
	// and drives a new keygen across the fleet. Without it, a keygen
	// against a keyed group is a conflict.
	Rotate bool `json:"rotate,omitempty"`
}

// ProtoRunResponse reports a completed protocol run: the session id, the
// number of executed rounds, the qualified dealer set, the signers that
// were excluded as crashed, and the resulting public group description.
type ProtoRunResponse struct {
	Session string `json:"session"`
	Rounds  int    `json:"rounds"`
	Qual    []int  `json:"qual,omitempty"`
	Crashed []int  `json:"crashed,omitempty"`
	Group   []byte `json:"group"`
}

// protoSession is one hosted protocol session: the player state machine
// plus the round cursor guarding against replays.
type protoSession struct {
	proto    string
	id       string
	n, t     int
	domain   string
	params   *core.Params
	player   engine.Player
	honest   *dkg.HonestPlayer // nil for injected adversarial players (tests)
	round    int               // next expected round
	failed   bool
	lastUsed time.Time
}

// playerFactory builds the session's state machine. The default produces
// the honest DKG player; tests substitute Byzantine implementations to
// exercise the networked engine against adversaries.
type playerFactory func(proto string, cfg dkg.Config, id int) (engine.Player, *dkg.HonestPlayer, error)

func honestPlayerFactory(_ string, cfg dkg.Config, id int) (engine.Player, *dkg.HonestPlayer, error) {
	hp, err := dkg.NewHonestPlayer(cfg, id)
	if err != nil {
		return nil, nil, err
	}
	return hp, hp, nil
}

// DefaultSessionTTL is how long an untouched protocol session survives
// before the garbage collector evicts it.
const DefaultSessionTTL = 2 * time.Minute

// protoHost hosts a signer daemon's protocol sessions: at most one per
// protocol kind, TTL-evicted when a driver disappears mid-run.
type protoHost struct {
	mu        sync.Mutex
	sessions  map[string]*protoSession // keyed by protocol kind
	ttl       time.Duration
	now       func() time.Time
	factory   playerFactory
	evictions *metrics.Counter // nil-safe; shared across a daemon's tenants
}

func newProtoHost(ttl time.Duration, evictions *metrics.Counter) *protoHost {
	if ttl <= 0 {
		ttl = DefaultSessionTTL
	}
	return &protoHost{
		sessions:  make(map[string]*protoSession),
		ttl:       ttl,
		now:       time.Now,
		factory:   honestPlayerFactory,
		evictions: evictions,
	}
}

// gc evicts expired sessions. Callers must hold h.mu.
func (h *protoHost) gc() {
	cutoff := h.now().Add(-h.ttl)
	for proto, sess := range h.sessions {
		if sess.lastUsed.Before(cutoff) {
			delete(h.sessions, proto)
			h.evictions.Inc()
		}
	}
}

// create registers a new session for the protocol kind. Re-starting the
// SAME session id is a conflict (a retrying driver must not reset a
// state machine it already stepped); a start under a fresh id REPLACES
// any existing session of the kind — the daemon trusts whoever drives it
// (see ROADMAP item 13), and an aborted run must not lock the
// slot until the TTL. The replaced session's steps answer 404.
func (h *protoHost) create(sess *protoSession) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.gc()
	if cur, ok := h.sessions[sess.proto]; ok && cur.id == sess.id {
		return fmt.Errorf("service: %s session %q already started: %w", cur.proto, cur.id, ErrConflict)
	}
	sess.lastUsed = h.now()
	h.sessions[sess.proto] = sess
	return nil
}

// lookup finds a session by kind and id and touches its GC clock. The
// caller must hold h.mu — and keep holding it while using the session,
// so a concurrent replacing start cannot slip in between lookup and use
// (a replaced session must answer 404, never act on stale state).
func (h *protoHost) lookup(proto, id string) (*protoSession, error) {
	h.gc()
	sess, ok := h.sessions[proto]
	if !ok || sess.id != id {
		return nil, fmt.Errorf("service: no %s session %q: %w", proto, id, ErrSessionNotFound)
	}
	sess.lastUsed = h.now()
	return sess, nil
}

// handleProtoStart opens a session of the given protocol kind on the
// signer.
func (s *Signer) handleProtoStart(proto string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxProtoRequestBytes)
		var req ProtoStartRequest
		if err := decodeJSON(r, &req); err != nil {
			writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, err.Error())
			return
		}
		if req.Session == "" {
			writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, "missing session id")
			return
		}
		if req.T < 1 || req.N < 2*req.T+1 {
			writeErrorCode(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("bad protocol size n=%d t=%d (need t >= 1 and n >= 2t+1)", req.N, req.T))
			return
		}
		if req.Index != s.index {
			writeErrorCode(w, http.StatusConflict, CodeConflict,
				fmt.Sprintf("start addressed to index %d, but this signer is %d", req.Index, s.index))
			return
		}
		// Tenant resolution happens only after the body validated: a
		// malformed start request against an unknown group ID must not
		// register a junk tenant. Only a DKG start may mint one.
		tn, err := s.tenant(r.PathValue("gid"), proto == ProtoDKG)
		if err != nil {
			writeGroupError(w, err)
			return
		}

		var params *core.Params
		st := tn.state.Load()
		switch proto {
		case ProtoDKG:
			if st != nil {
				// A keyed tenant accepts a keygen only as an explicit
				// rotation: the driver must present an epoch strictly
				// beyond the record's, so replays and stale rotation
				// attempts are refused.
				rec, _ := s.reg.Get(tn.id)
				if req.Epoch == 0 || req.Epoch <= rec.Epoch {
					writeErrorCode(w, http.StatusConflict, CodeConflict,
						"signer already holds key material; a fresh keygen needs fresh daemons (or a rotation with a higher epoch)")
					return
				}
			}
			if req.Domain == "" {
				writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, "missing domain label")
				return
			}
			params = core.NewParams(req.Domain)
		case ProtoRefresh:
			if st == nil {
				writeErrorCode(w, http.StatusServiceUnavailable, CodeNoKey,
					"signer holds no key material to refresh")
				return
			}
			if req.N != st.group.N || req.T != st.group.T {
				writeErrorCode(w, http.StatusConflict, CodeConflict,
					fmt.Sprintf("refresh for n=%d t=%d, but this signer's group is n=%d t=%d",
						req.N, req.T, st.group.N, st.group.T))
				return
			}
			if req.Domain != "" && req.Domain != st.group.Domain {
				writeErrorCode(w, http.StatusConflict, CodeConflict,
					fmt.Sprintf("refresh for domain %q, but this signer's group is %q", req.Domain, st.group.Domain))
				return
			}
			if len(req.GroupHash) > 0 {
				h := sha256.Sum256(st.group.Marshal())
				if !bytes.Equal(req.GroupHash, h[:]) {
					writeErrorCode(w, http.StatusConflict, CodeConflict,
						"refresh is for a different group state; this signer's key material is stale (recover the share first)")
					return
				}
			}
			params = st.group.Params
		default:
			writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, "unknown protocol "+proto)
			return
		}

		cfg := dkg.Config{
			N: req.N, T: req.T, NumSharings: core.Dim,
			Scheme:  dkg.PedersenScheme{Params: params.LH},
			Refresh: proto == ProtoRefresh,
		}
		player, honest, err := tn.proto.factory(proto, cfg, s.index)
		if err != nil {
			writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, err.Error())
			return
		}
		sess := &protoSession{
			proto: proto, id: req.Session,
			n: req.N, t: req.T, domain: req.Domain,
			params: params, player: player, honest: honest,
		}
		if proto == ProtoRefresh && sess.domain == "" {
			sess.domain = st.group.Domain
		}
		// Round 0 runs before the session is published, so a concurrent
		// step can never reach a half-initialized state machine; create()
		// makes the fully-initialized session visible atomically.
		stepStart := time.Now()
		out, err := sess.player.Step(0, nil)
		s.met.stepSeconds.Observe(time.Since(stepStart).Seconds())
		if err != nil {
			writeErrorCode(w, http.StatusInternalServerError, CodeProtoFailed, err.Error())
			return
		}
		sess.round = 1
		if err := tn.proto.create(sess); err != nil {
			writeErrorCode(w, http.StatusConflict, CodeConflict, err.Error())
			return
		}
		s.met.sessionStarts.WithLabelValues(proto).Inc()
		s.log.Debug("protocol session started",
			"request_id", RequestIDFromContext(r.Context()),
			"gid", tn.id, "proto", proto, "session", req.Session, "n", req.N, "t", req.T)
		writeJSON(w, http.StatusOK, ProtoStartResponse{
			Messages: toWireMessages(out),
			Done:     sess.player.Done(),
		})
	}
}

// handleProtoStep advances a session by one round.
func (s *Signer) handleProtoStep(proto string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxProtoRequestBytes)
		var req ProtoStepRequest
		if err := decodeJSON(r, &req); err != nil {
			writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, err.Error())
			return
		}
		tn, err := s.tenant(r.PathValue("gid"), false)
		if err != nil {
			writeGroupError(w, err)
			return
		}
		// The host lock covers lookup AND the step itself, so a session
		// replaced by a newer start can never be stepped afterwards
		// (sessions are driven by one coordinator; contention is not a
		// concern).
		tn.proto.mu.Lock()
		defer tn.proto.mu.Unlock()
		sess, err := tn.proto.lookup(proto, req.Session)
		if err != nil {
			writeErrorCode(w, http.StatusNotFound, CodeSessionNotFound, err.Error())
			return
		}
		if sess.failed {
			writeErrorCode(w, http.StatusInternalServerError, CodeProtoFailed, "session already failed")
			return
		}
		if req.Round != sess.round {
			writeErrorCode(w, http.StatusConflict, CodeConflict,
				fmt.Sprintf("step for round %d, session expects round %d", req.Round, sess.round))
			return
		}
		// Defense in depth: deliver only messages actually addressed to
		// this player, no matter what the driver put in the batch.
		delivered := make([]engine.Message, 0, len(req.Messages))
		for _, m := range fromWireMessages(req.Messages) {
			if m.To == engine.Broadcast || m.To == s.index {
				delivered = append(delivered, m)
			}
		}
		stepStart := time.Now()
		out, err := sess.player.Step(req.Round, delivered)
		s.met.stepSeconds.Observe(time.Since(stepStart).Seconds())
		s.met.sessionSteps.WithLabelValues(proto).Inc()
		if err != nil {
			sess.failed = true
			writeErrorCode(w, http.StatusInternalServerError, CodeProtoFailed, err.Error())
			return
		}
		sess.round++
		writeJSON(w, http.StatusOK, ProtoStepResponse{
			Messages: toWireMessages(out),
			Done:     sess.player.Done(),
		})
	}
}

// handleProtoFinish closes a completed session: it installs (and
// persists) the resulting key material into the signer's serving state
// and returns the public group description.
func (s *Signer) handleProtoFinish(proto string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxProtoRequestBytes)
		var req ProtoFinishRequest
		if err := decodeJSON(r, &req); err != nil {
			writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, err.Error())
			return
		}
		tn, err := s.tenant(r.PathValue("gid"), false)
		if err != nil {
			writeGroupError(w, err)
			return
		}
		// The host lock covers lookup, install, and removal, so a finish
		// can neither act on a session a newer start has replaced nor
		// delete the replacement.
		tn.proto.mu.Lock()
		defer tn.proto.mu.Unlock()
		sess, err := tn.proto.lookup(proto, req.Session)
		if err != nil {
			writeErrorCode(w, http.StatusNotFound, CodeSessionNotFound, err.Error())
			return
		}
		if sess.honest == nil || !sess.player.Done() {
			writeErrorCode(w, http.StatusConflict, CodeConflict, "protocol not finished")
			return
		}
		res, err := sess.honest.Result()
		if err != nil {
			writeErrorCode(w, http.StatusInternalServerError, CodeProtoFailed, err.Error())
			return
		}

		var group *core.Group
		var share *core.PrivateKeyShare
		switch proto {
		case ProtoDKG:
			view, err := core.FromDKGResult(sess.params, res)
			if err != nil {
				writeErrorCode(w, http.StatusInternalServerError, CodeProtoFailed, err.Error())
				return
			}
			if group, err = core.NewGroup(sess.domain, sess.n, sess.t, view); err != nil {
				writeErrorCode(w, http.StatusInternalServerError, CodeProtoFailed, err.Error())
				return
			}
			share = view.Share
		case ProtoRefresh:
			st := tn.state.Load()
			if st == nil {
				writeErrorCode(w, http.StatusServiceUnavailable, CodeNoKey, "key material disappeared mid-refresh")
				return
			}
			view := &core.KeyShares{PK: st.group.PK, Share: st.share, VKs: st.group.VKs}
			next, err := core.ApplyRefresh(view, res)
			if err != nil {
				writeErrorCode(w, http.StatusInternalServerError, CodeProtoFailed, err.Error())
				return
			}
			group = &core.Group{
				Domain: st.group.Domain, N: st.group.N, T: st.group.T,
				Params: st.group.Params, PK: next.PK, VKs: next.VKs,
			}
			share = next.Share
		}

		// Persist BEFORE installing: if the keystore write fails the
		// session stays open, the daemon keeps serving its previous state,
		// and the driver sees the failure instead of a daemon whose disk
		// and memory disagree after a restart. The registry record is
		// updated in the same window — the epoch bump is what gates
		// replayed rotation attempts.
		if err := s.persistTenant(tn, group, share); err != nil {
			writeErrorCode(w, http.StatusInternalServerError, CodeBackend,
				fmt.Sprintf("persisting key material: %v", err))
			return
		}
		rec, _ := s.reg.Get(tn.id)
		rec.ID = tn.id
		rec.Domain, rec.N, rec.T = group.Domain, group.N, group.T
		rec.Epoch++
		if err := s.reg.Put(rec); err != nil {
			writeErrorCode(w, http.StatusInternalServerError, CodeBackend,
				fmt.Sprintf("persisting group record: %v", err))
			return
		}
		tn.state.Store(&signerState{group: group, share: share})
		delete(tn.proto.sessions, proto)
		s.met.sessionFinishes.WithLabelValues(proto).Inc()
		s.log.Info("protocol session finished, key material installed",
			"request_id", RequestIDFromContext(r.Context()),
			"gid", tn.id, "proto", proto, "session", req.Session, "epoch", rec.Epoch)
		writeJSON(w, http.StatusOK, ProtoFinishResponse{
			Index: s.index,
			Qual:  res.Qual,
			Group: group.Marshal(),
		})
	}
}

// persistTenant writes a tenant's new key material through to durable
// storage: the legacy Persist hook fires for the default group, and the
// registry keystore (a no-op when memory-only) covers every tenant.
func (s *Signer) persistTenant(tn *signerTenant, g *core.Group, sk *core.PrivateKeyShare) error {
	if tn.id == DefaultGroupID && s.persist != nil {
		if err := s.persist(g, sk); err != nil {
			return err
		}
	}
	return s.reg.SaveMember(tn.id, g, sk)
}
