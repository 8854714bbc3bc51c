package service

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dkg"
	"repro/internal/engine"
)

// This file is the coordinator side of the networked protocol engine: it
// drives a distributed keygen or proactive refresh across the signer
// daemons, acting as the synchronous network of the model — it collects
// each round's outgoing messages from every signer, stamps the
// authenticated sender identity, routes broadcasts to everybody and
// unicasts to their recipient, and delivers them at the start of the next
// round. The round loop itself is engine.Run, the identical code a local
// dkg.Run drives through engine.RunLocal; the coordinator only contributes
// the HTTP peer (remotePeer) and the finish/agreement phase.
//
// Fault model: a signer that is down, times out, or answers an error
// during a round is excluded for the rest of the run (engine crash
// exclusion) — the protocol is robust, so the survivors complete and the
// crashed dealer is simply disqualified. At most t exclusions are
// tolerated; beyond that the run fails with ErrProtocolFailed rather than
// risk an undersized quorum. The surviving signers' finish responses must
// agree byte-for-byte on the resulting public group.
//
// Trust model (see ROADMAP item 13): the coordinator is trusted as
// the broadcast channel (consistency) and relays the private share
// messages between signers, so deployments must protect signer links with
// TLS and authenticate the coordinator to the signers. Protecting the
// unicast channels end-to-end (per-pair encryption between daemons) is
// future work.

// DefaultProtoRoundTimeout bounds each signer's step call during a
// protocol round when CoordinatorConfig.ProtoRoundTimeout is unset.
const DefaultProtoRoundTimeout = 10 * time.Second

// remotePeer is one signer daemon participating in a protocol session,
// stepped over HTTP. Round 0 doubles as session creation. baseURL
// includes the tenant's URL prefix (/v1 for the default group,
// /v1/g/{gid} otherwise), so one fleet hosts independent sessions per
// tenant.
type remotePeer struct {
	client  *http.Client
	baseURL string
	proto   string
	id      int
	start   ProtoStartRequest
}

// ID implements engine.Peer.
func (p *remotePeer) ID() int { return p.id }

// Step implements engine.Peer: round 0 opens the session with start,
// later rounds deliver the inbox with step.
func (p *remotePeer) Step(ctx context.Context, round int, delivered []engine.Message) (engine.StepResult, error) {
	if round == 0 {
		var resp ProtoStartResponse
		if err := p.post(ctx, "start", p.start, &resp); err != nil {
			return engine.StepResult{}, err
		}
		return engine.StepResult{Out: fromWireMessages(resp.Messages), Done: resp.Done}, nil
	}
	var resp ProtoStepResponse
	req := ProtoStepRequest{Session: p.start.Session, Round: round, Messages: toWireMessages(delivered)}
	if err := p.post(ctx, "step", req, &resp); err != nil {
		return engine.StepResult{}, err
	}
	return engine.StepResult{Out: fromWireMessages(resp.Messages), Done: resp.Done}, nil
}

// finish collects the session's public outcome.
func (p *remotePeer) finish(ctx context.Context) (*ProtoFinishResponse, error) {
	var resp ProtoFinishResponse
	if err := p.post(ctx, "finish", ProtoFinishRequest{Session: p.start.Session}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (p *remotePeer) post(ctx context.Context, endpoint string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	url := p.baseURL + "/proto/" + p.proto + "/" + endpoint
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	setRequestIDHeader(req, ctx)
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxProtoRequestBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var er ErrorResponse
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			return fmt.Errorf("signer %d %s: %s (status %d, code %s)", p.id, endpoint, er.Error, resp.StatusCode, er.Code)
		}
		return fmt.Errorf("signer %d %s: status %d: %s", p.id, endpoint, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// ProtoReport is the accounting of one driven protocol run.
type ProtoReport struct {
	// Session is the session id shared by every signer's protocol state.
	Session string
	// Rounds is the number of executed network rounds.
	Rounds int
	// Qual is the qualified dealer set the survivors agreed on.
	Qual []int
	// Crashed lists the signers excluded during the run — down, timed
	// out, or answering errors — plus any that failed the finish call.
	// After a refresh, crashed signers hold STALE shares (their share no
	// longer matches the re-randomized verification keys) and need share
	// recovery before they can sign again.
	Crashed []int
}

// newSessionID returns a fresh random session identifier.
func newSessionID() (string, error) {
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(buf[:]), nil
}

// RunDKG drives a distributed key generation across the coordinator's
// signers: n is the signer count, any t+1 of which will be able to sign
// (n >= 2t+1). No trusted dealer exists anywhere — each signer's share is
// born on its own daemon and never leaves it; the coordinator only relays
// protocol messages and learns the public outcome. On success the
// resulting group is installed (and persisted via the PersistGroup hook)
// and the coordinator immediately serves /v1/sign for it.
func (c *Coordinator) RunDKG(ctx context.Context, t int, domain string) (*core.Group, *ProtoReport, error) {
	return c.RunDKGGroup(ctx, DefaultGroupID, t, domain, false)
}

// RunDKGGroup drives a keygen for one tenant group. Against an unknown
// group ID it MINTS the tenant: the ID is registered across the fleet
// and its key material generated distributively on the spot. With
// rotate set, a keyed tenant's key is REPLACED by a freshly generated
// one under a bumped epoch (the old key's signatures remain valid under
// the old public key; the service simply stops producing them).
func (c *Coordinator) RunDKGGroup(ctx context.Context, gid string, t int, domain string, rotate bool) (*core.Group, *ProtoReport, error) {
	n := len(c.urls)
	if t < 1 || n < 2*t+1 {
		return nil, nil, fmt.Errorf("service: bad keygen size n=%d t=%d (need t >= 1 and n >= 2t+1)", n, t)
	}
	if domain == "" {
		return nil, nil, fmt.Errorf("service: keygen needs a domain label")
	}
	tn, err := c.tenant(gid, true)
	if err != nil {
		return nil, nil, err
	}
	return tn.runDKG(ctx, t, domain, rotate)
}

func (tn *coordTenant) runDKG(ctx context.Context, t int, domain string, rotate bool) (*core.Group, *ProtoReport, error) {
	c := tn.c
	n := len(c.urls)
	tn.protoMu.Lock()
	defer tn.protoMu.Unlock()
	var epoch uint64
	if tn.group.Load() != nil {
		if !rotate {
			return nil, nil, fmt.Errorf("service: coordinator already holds a group; a fresh keygen needs a fresh quorum: %w", ErrConflict)
		}
		// The rotation epoch is strictly beyond the tenant's record, which
		// is what the signers' start gate demands.
		rec, _ := c.reg.Get(tn.id)
		epoch = rec.Epoch + 1
	}
	outcome, report, err := tn.runProto(ctx, ProtoDKG, n, t, domain, nil, epoch)
	if err != nil {
		return nil, report, err
	}
	group := outcome.group
	if group.N != n || group.T != t || group.Domain != domain {
		return nil, report, fmt.Errorf("service: keygen produced group n=%d t=%d domain %q, expected n=%d t=%d %q: %w",
			group.N, group.T, group.Domain, n, t, domain, ErrProtocolFailed)
	}
	if err := tn.installGroup(group); err != nil {
		return group, report, err
	}
	return group, report, nil
}

// RunRefresh drives one proactive refresh epoch (Section 3.3) across the
// signers of the group the coordinator serves: every daemon's share is
// re-randomized in place while the public key provably stays the same, so
// shares stolen in different epochs cannot be combined. Signers excluded
// as crashed keep their OLD shares — stale against the new verification
// keys — and are reported in the ProtoReport.
func (c *Coordinator) RunRefresh(ctx context.Context) (*core.Group, *ProtoReport, error) {
	return c.RunRefreshGroup(ctx, DefaultGroupID)
}

// RunRefreshGroup drives a proactive refresh for one tenant group.
func (c *Coordinator) RunRefreshGroup(ctx context.Context, gid string) (*core.Group, *ProtoReport, error) {
	tn, err := c.tenant(gid, false)
	if err != nil {
		return nil, nil, err
	}
	return tn.runRefresh(ctx)
}

func (tn *coordTenant) runRefresh(ctx context.Context) (*core.Group, *ProtoReport, error) {
	tn.protoMu.Lock()
	defer tn.protoMu.Unlock()
	old := tn.group.Load()
	if old == nil {
		return nil, nil, fmt.Errorf("service: coordinator holds no group to refresh: %w", ErrNoKeyMaterial)
	}
	oldHash := sha256.Sum256(old.Marshal())
	outcome, report, err := tn.runProto(ctx, ProtoRefresh, old.N, old.T, old.Domain, oldHash[:], 0)
	if err != nil {
		return nil, report, err
	}
	group := outcome.group
	// The refresh invariant, checked before anything is installed: the
	// threshold public key must be preserved exactly.
	if group.N != old.N || group.T != old.T || group.Domain != old.Domain || !group.PK.Equal(old.PK) {
		return nil, report, fmt.Errorf("service: refresh changed the group description: %w", ErrProtocolFailed)
	}
	if err := tn.installGroup(group); err != nil {
		return group, report, err
	}
	return group, report, nil
}

// protoOutcome is the agreed result of a driven run.
type protoOutcome struct {
	group *core.Group
	qual  []int
}

// runProto drives one protocol session across all signers and returns
// the outcome the survivors agreed on. groupHash, when non-nil, pins the
// base state a refresh applies to (stale daemons refuse the session and
// are excluded up front). epoch, when non-zero, authorizes a keyed
// signer to REPLACE its key material (rotation) — the signers demand it
// be strictly beyond their recorded epoch.
func (tn *coordTenant) runProto(ctx context.Context, proto string, n, t int, domain string, groupHash []byte, epoch uint64) (*protoOutcome, *ProtoReport, error) {
	c := tn.c
	start := time.Now()
	out, report, err := tn.runProtoInner(ctx, proto, n, t, domain, groupHash, epoch)
	outcome := "ok"
	switch {
	case err == nil:
	case ctx.Err() != nil:
		outcome = "canceled"
	default:
		outcome = "failed"
	}
	c.met.protoRuns.WithLabelValues(proto, outcome).Inc()
	c.met.protoRunSeconds.WithLabelValues(proto).Observe(time.Since(start).Seconds())
	log := c.log.With("request_id", RequestIDFromContext(ctx), "gid", tn.id, "proto", proto)
	if report != nil {
		c.met.protoRounds.WithLabelValues(proto).Add(uint64(report.Rounds))
		log = log.With("session", report.Session, "rounds", report.Rounds, "crashed", len(report.Crashed))
	}
	if err != nil {
		log.Warn("protocol run failed", "outcome", outcome, "error", err)
	} else {
		log.Info("protocol run complete", "qual", len(report.Qual))
	}
	return out, report, err
}

func (tn *coordTenant) runProtoInner(ctx context.Context, proto string, n, t int, domain string, groupHash []byte, epoch uint64) (*protoOutcome, *ProtoReport, error) {
	c := tn.c
	session, err := newSessionID()
	if err != nil {
		return nil, nil, err
	}
	report := &ProtoReport{Session: session}

	peers := make([]engine.Peer, n)
	remotes := make([]*remotePeer, n+1) // 1-based
	for i := 1; i <= n; i++ {
		rp := &remotePeer{
			client:  c.cfg.HTTPClient,
			baseURL: c.urls[i-1] + tn.prefix(),
			proto:   proto,
			id:      i,
			start: ProtoStartRequest{
				Session: session, N: n, T: t, Index: i, Domain: domain,
				GroupHash: groupHash, Epoch: epoch,
			},
		}
		peers[i-1] = rp
		remotes[i] = rp
	}

	roundTimeout := c.cfg.ProtoRoundTimeout
	if roundTimeout <= 0 {
		roundTimeout = DefaultProtoRoundTimeout
	}
	runReport, err := engine.Run(ctx, peers, engine.RunConfig{
		MaxRounds:     dkg.MaxRounds,
		RoundTimeout:  roundTimeout,
		Parallel:      true,
		ExcludeFailed: true,
	})
	if runReport != nil {
		report.Rounds = runReport.Rounds
		report.Crashed = runReport.FailedIDs()
		// Export the engine's traffic accounting: these are the paper's
		// communication-complexity numbers, observed on the live fleet.
		st := runReport.Stats
		c.met.protoBcastMsgs.WithLabelValues(proto).Add(uint64(st.BroadcastMessages))
		c.met.protoUniMsgs.WithLabelValues(proto).Add(uint64(st.UnicastMessages))
		c.met.protoBcastBytes.WithLabelValues(proto).Add(uint64(st.BroadcastBytes))
		c.met.protoUniBytes.WithLabelValues(proto).Add(uint64(st.UnicastBytes))
	}
	if err != nil {
		// A canceled or deadline-expired run is the caller's doing, not a
		// protocol failure — keep the context error visible to errors.Is
		// so the HTTP layer answers 503/canceled, mirroring sign requests.
		if ctx.Err() != nil {
			return nil, report, fmt.Errorf("service: %s session %s: %w", proto, session, ctx.Err())
		}
		return nil, report, fmt.Errorf("service: %s session %s: %v: %w", proto, session, err, ErrProtocolFailed)
	}
	if len(report.Crashed) > t {
		return nil, report, fmt.Errorf("service: %s session %s: %d signers crashed, at most t=%d tolerated: %w",
			proto, session, len(report.Crashed), t, ErrProtocolFailed)
	}

	// Finish phase: collect the public outcome from every survivor.
	type finishResult struct {
		index int
		resp  *ProtoFinishResponse
		err   error
	}
	crashed := make(map[int]bool, len(report.Crashed))
	for _, id := range report.Crashed {
		crashed[id] = true
	}
	// Once the protocol rounds have completed, the quorum is committed:
	// the finish phase runs detached from the caller's context (bounded
	// by its own timeouts), so a client hanging up at the last moment
	// cannot leave the signers installed but the coordinator without a
	// group.
	finCtx := context.WithoutCancel(ctx)
	var (
		mu       sync.Mutex
		finished []finishResult
		wg       sync.WaitGroup
	)
	for i := 1; i <= n; i++ {
		if crashed[i] {
			continue
		}
		wg.Add(1)
		go func(rp *remotePeer) {
			defer wg.Done()
			// Finish is heavier than a step — the daemon computes every
			// verification key, applies the epoch, and persists — so it
			// gets twice the round budget.
			fctx, cancel := context.WithTimeout(finCtx, 2*roundTimeout)
			defer cancel()
			resp, err := rp.finish(fctx)
			mu.Lock()
			finished = append(finished, finishResult{index: rp.id, resp: resp, err: err})
			mu.Unlock()
		}(remotes[i])
	}
	wg.Wait()
	sort.Slice(finished, func(a, b int) bool { return finished[a].index < finished[b].index })

	// Quorum agreement on the outcome: every honest survivor derives the
	// group from the common broadcast transcript, so the value returned
	// by at least t+1 finishers is the protocol outcome (at most t
	// daemons are faulty, so t+1 identical answers cannot all be lies).
	// Daemons that fail their finish call or answer with a DIFFERENT
	// group — Byzantine, or applying the epoch to a divergent local base —
	// are counted crashed and reported for recovery, instead of letting
	// one bad answer abort a run the honest majority already committed.
	counts := make(map[string]int)
	for _, fr := range finished {
		if fr.err == nil {
			counts[string(fr.resp.Group)]++
		}
	}
	var agreed string
	best := 0
	for gb, cnt := range counts {
		if cnt > best {
			agreed, best = gb, cnt
		}
	}
	if best < t+1 {
		return nil, report, fmt.Errorf("service: %s session %s: only %d signers agree on the resulting group, need %d: %w",
			proto, session, best, t+1, ErrProtocolFailed)
	}
	var ref *ProtoFinishResponse
	for _, fr := range finished {
		if fr.err != nil || string(fr.resp.Group) != agreed {
			crashed[fr.index] = true
			report.Crashed = append(report.Crashed, fr.index)
			continue
		}
		if ref == nil {
			ref = fr.resp
		}
	}
	sort.Ints(report.Crashed)
	if len(crashed) > t {
		return nil, report, fmt.Errorf("service: %s session %s: %d signers crashed, at most t=%d tolerated: %w",
			proto, session, len(crashed), t, ErrProtocolFailed)
	}
	group, err := core.UnmarshalGroup(ref.Group)
	if err != nil {
		return nil, report, fmt.Errorf("service: %s session %s: malformed group from signer %d: %v: %w",
			proto, session, ref.Index, err, ErrProtocolFailed)
	}
	report.Qual = ref.Qual
	return &protoOutcome{group: group, qual: ref.Qual}, report, nil
}

// installGroup installs a new group view for the tenant, then persists
// it (when configured). Install-before-persist is deliberate and the
// OPPOSITE of the signers' ordering: the signers' finish already
// installed their private shares, so the coordinator refusing to serve
// the agreed group would wedge the whole quorum over a local disk
// problem — the group is public data, recoverable from any signer
// keystore or the client's copy. A persist failure is still reported so
// the operator restores durability before the next coordinator restart.
func (tn *coordTenant) installGroup(group *core.Group) error {
	c := tn.c
	old := tn.group.Swap(group)
	warmGroup(group, c.met.precomputeRebuilds)
	// A rotation replaces the public key; signatures cached under the old
	// key must never be served for the new one. (A refresh preserves the
	// PK, so its cache entries stay valid and are kept.)
	if old != nil && !old.PK.Equal(group.PK) {
		c.cache.dropGroup(tn.id)
	}
	// Bump the tenant's record so the registry reflects the served epoch
	// and the next rotation gates on it.
	rec, _ := c.reg.Get(tn.id)
	rec.ID = tn.id
	rec.Domain, rec.N, rec.T = group.Domain, group.N, group.T
	rec.Epoch++
	var persistErr error
	if err := c.reg.Put(rec); err != nil {
		persistErr = err
	}
	// The legacy PersistGroup hook predates tenancy and captures a single
	// path — it stays scoped to the default group.
	if tn.id == DefaultGroupID && c.cfg.PersistGroup != nil {
		if err := c.cfg.PersistGroup(group); err != nil {
			persistErr = err
		}
	}
	if err := c.reg.SaveGroup(tn.id, group); err != nil {
		persistErr = err
	}
	if persistErr != nil {
		return fmt.Errorf("service: group is INSTALLED and serving, but persisting it failed (restore durability before restarting the coordinator): %w", persistErr)
	}
	return nil
}

// handleProtoRun serves POST /v1/proto/{dkg|refresh}/run and its
// group-namespaced twin /v1/g/{gid}/proto/{dkg|refresh}/run: it drives
// the protocol across the signers and answers with the public outcome.
// A DKG run against an unknown group ID mints the tenant — but only
// after the request parameters validate, so malformed requests cannot
// register junk tenants.
func (c *Coordinator) handleProtoRun(proto string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
		var req ProtoRunRequest
		if err := decodeJSON(r, &req); err != nil {
			writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, err.Error())
			return
		}
		var (
			group  *core.Group
			report *ProtoReport
			err    error
		)
		switch proto {
		case ProtoDKG:
			// Parameter mistakes are the client's fault and answered 400
			// here, mirroring the signer-side start validation — not
			// mapped onto conflict or backend-failure codes.
			if n := len(c.urls); req.T < 1 || n < 2*req.T+1 {
				writeErrorCode(w, http.StatusBadRequest, CodeBadRequest,
					fmt.Sprintf("bad keygen size n=%d t=%d (need t >= 1 and n >= 2t+1)", n, req.T))
				return
			}
			if req.Domain == "" {
				writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, "missing domain label")
				return
			}
			var tn *coordTenant
			if tn, err = c.tenant(r.PathValue("gid"), true); err != nil {
				writeGroupError(w, err)
				return
			}
			group, report, err = tn.runDKG(r.Context(), req.T, req.Domain, req.Rotate)
		case ProtoRefresh:
			var tn *coordTenant
			if tn, err = c.tenant(r.PathValue("gid"), false); err != nil {
				writeGroupError(w, err)
				return
			}
			group, report, err = tn.runRefresh(r.Context())
		}
		if err != nil {
			writeProtoError(w, r, err)
			return
		}
		resp := ProtoRunResponse{
			Session: report.Session,
			Rounds:  report.Rounds,
			Qual:    report.Qual,
			Crashed: report.Crashed,
			Group:   group.Marshal(),
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// writeProtoError renders a protocol-run failure with its wire code.
func writeProtoError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusBadGateway
	code := errorCode(err)
	switch code {
	case CodeConflict:
		status = http.StatusConflict
	case CodeNoKey:
		status = http.StatusServiceUnavailable
	case CodeProtoFailed:
		status = http.StatusBadGateway
	case "":
		if r.Context().Err() != nil {
			status, code = http.StatusServiceUnavailable, CodeCanceled
		} else {
			code = CodeBackend
		}
	}
	writeErrorCode(w, status, code, err.Error())
}
