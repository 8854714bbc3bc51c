package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/service/registry"
)

// SignerConfig bounds the signer's concurrency. Partial signing costs two
// hash-to-curve operations and two 2-base multi-exponentiations of CPU,
// so unbounded concurrency under heavy traffic only adds scheduler churn;
// beyond MaxWorkers running and MaxQueue waiting, requests are shed with
// 503 so the coordinator can retry elsewhere.
type SignerConfig struct {
	MaxWorkers int // concurrent Share-Sign operations (default 8)
	MaxQueue   int // additional requests allowed to wait for a worker (default 4×MaxWorkers)
	MaxBatch   int // messages accepted per /v1/sign-batch request (default DefaultMaxBatch)
}

// withDefaults fills in the defaults for missing fields.
func (c SignerConfig) withDefaults() SignerConfig {
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxWorkers
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	return c
}

// signerState is the signer's key material, swapped atomically as one
// unit: the group view and the private share always match.
type signerState struct {
	group *core.Group
	share *core.PrivateKeyShare
}

// Signer serves private key shares over HTTP — one share per tenant
// group, all under the daemon's single player index. It is an
// http.Handler:
//
//	POST /v1/sign       {"message": base64} -> PartialResponse
//	POST /v1/sign-batch {"messages": [base64...]} -> PartialBatchResponse
//	GET  /v1/pubkey     -> PubkeyResponse
//	GET  /v1/vk         -> VKResponse (this signer's own key)
//	GET  /v1/groups     -> GroupsResponse (every registered tenant)
//	GET  /healthz       -> HealthResponse (process liveness)
//	GET  /readyz        -> ReadyResponse (per-group key state)
//	POST /v1/proto/{dkg|refresh}/{start|step|finish} -> protocol sessions
//	DELETE /v1/g/{groupID} -> GroupDeleteResponse (tombstone the tenant)
//
// Every /v1/* route above also exists group-namespaced as
// /v1/g/{groupID}/...; the un-namespaced form is an alias for the
// "default" group, so pre-tenancy clients keep working unchanged. A
// tenant other than the default is minted by running a DKG against its
// ID (see session.go); its key material lives in the registry's
// per-tenant keystore and is faulted back in on demand.
//
// Share-Sign is deterministic and needs no peer interaction, so the
// Signer keeps no per-request state and any number of replicas of the
// same share behave identically.
//
// The key material is not necessarily fixed at construction: a signer
// built with NewDaemonSigner may start with none at all and acquire it by
// participating in a distributed keygen session, and a proactive refresh
// session swaps in the re-randomized share. Key-dependent endpoints
// answer 503/no_key_material until material exists.
type Signer struct {
	index int // the daemon's fixed 1-based player identity
	cfg   SignerConfig

	// persist, when set, writes new key material through before it is
	// installed (the tsigd keyfile hook). It fires for the DEFAULT group
	// only; other tenants persist through the registry's keystores.
	persist func(*core.Group, *core.PrivateKeyShare) error

	sessionTTL time.Duration

	// reg is the tenant registry; def is the default tenant, an ordinary
	// signerTenant pinned here instead of living in the hot LRU, so the
	// un-namespaced routes and /v1/g/default act on the same material.
	reg      *registry.Registry
	tenantMu sync.Mutex // serializes tenant minting and hot-cache fills
	def      *signerTenant

	workers  chan struct{} // semaphore: MaxWorkers slots
	inflight atomic.Int64  // requests holding or waiting for a slot
	mux      *http.ServeMux

	met *signerMetrics
	log *slog.Logger
}

// signerTenant is one tenant's live state on a signer: the key material
// and the protocol-session host. The default tenant is pinned on the
// Signer; others live in the registry's hot LRU and are rebuilt from
// their keystore when faulted back in.
type signerTenant struct {
	id    string
	state atomic.Pointer[signerState]
	proto *protoHost
}

func (s *Signer) newTenant(id string) *signerTenant {
	return &signerTenant{id: id, proto: newProtoHost(s.sessionTTL, s.met.sessionEvictions)}
}

// NewSigner builds a signer for one share of the given group.
func NewSigner(group *core.Group, share *core.PrivateKeyShare, cfg SignerConfig) (*Signer, error) {
	return NewDaemonSigner(DaemonConfig{Signer: cfg, Group: group, Share: share})
}

// DaemonConfig configures a signer daemon, including the keyless form
// that waits for a distributed keygen.
type DaemonConfig struct {
	// Signer bounds the signing worker pool.
	Signer SignerConfig
	// Index is the daemon's 1-based player identity. Required when no key
	// material is given; otherwise it must be absent or match the share.
	Index int
	// Group and Share are the initial key material; both nil for a
	// keyless daemon.
	Group *core.Group
	Share *core.PrivateKeyShare
	// Persist, when set, is called with new key material (after keygen or
	// refresh) before it is installed; a failure keeps the old state. It
	// applies to the default group only — other tenants persist through
	// Registry.
	Persist func(*core.Group, *core.PrivateKeyShare) error
	// SessionTTL bounds how long an untouched protocol session survives
	// (default DefaultSessionTTL).
	SessionTTL time.Duration
	// Registry is the multi-tenant group registry (tsigd -keystore-dir).
	// Nil means a memory-only registry: tenants can still be minted over
	// the wire, but nothing survives a restart. When file-backed and no
	// explicit Group/Share is given, the default group's key material is
	// loaded from its keystore.
	Registry *registry.Registry
	// Logger receives the daemon's structured logs (request-scoped lines
	// at Debug, lifecycle at Info). Nil means slog.Default().
	Logger *slog.Logger
}

// NewDaemonSigner builds a signer daemon from the full configuration.
func NewDaemonSigner(cfg DaemonConfig) (*Signer, error) {
	index := cfg.Index
	if cfg.Group != nil || cfg.Share != nil {
		if cfg.Group == nil || cfg.Share == nil {
			return nil, fmt.Errorf("service: group and share must be given together")
		}
		if cfg.Share.Index < 1 || cfg.Share.Index > cfg.Group.N {
			return nil, fmt.Errorf("service: share index %d outside group 1..%d", cfg.Share.Index, cfg.Group.N)
		}
		if index == 0 {
			index = cfg.Share.Index
		}
		if index != cfg.Share.Index {
			return nil, fmt.Errorf("service: daemon index %d contradicts share index %d", index, cfg.Share.Index)
		}
	}
	if index < 1 {
		return nil, fmt.Errorf("service: a keyless daemon needs a positive player index")
	}
	reg := cfg.Registry
	if reg == nil {
		var err error
		if reg, err = registry.Open(registry.Config{}); err != nil {
			return nil, err
		}
	}
	s := &Signer{
		index:      index,
		cfg:        cfg.Signer.withDefaults(),
		persist:    cfg.Persist,
		sessionTTL: cfg.SessionTTL,
		reg:        reg,
		log:        cfg.Logger,
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	s.log = s.log.With("component", "signer", "signer", index)
	s.met = newSignerMetrics(s)
	s.def = s.newTenant(registry.DefaultGroup)
	if cfg.Group != nil {
		s.def.state.Store(&signerState{group: cfg.Group, share: cfg.Share})
		// Adopt file-provided key material into the keystore: a later
		// restart from -keystore-dir alone (no -group/-share) must keep
		// serving the default group, and the manifest record written
		// below would otherwise claim a readiness the keystore can't
		// back. No-op for memory-only registries.
		if err := reg.SaveMember(registry.DefaultGroup, cfg.Group, cfg.Share); err != nil {
			return nil, fmt.Errorf("service: adopting default group into the keystore: %w", err)
		}
	} else if m, err := reg.LoadMember(registry.DefaultGroup, index); err == nil {
		st := &signerState{group: m.Group(), share: m.PrivateShare()}
		s.def.state.Store(st)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("service: loading default keystore: %w", err)
	}
	if err := syncDefaultRecord(reg, s.Group()); err != nil {
		return nil, err
	}
	s.workers = make(chan struct{}, s.cfg.MaxWorkers)
	s.mux = http.NewServeMux()
	// Every tenant-scoped route exists twice: un-namespaced (the default
	// group — the pre-tenancy surface, byte-identical) and namespaced
	// under /v1/g/{gid}. PathValue("gid") is "" on the former, which the
	// tenant resolver maps to the default group.
	for _, pre := range []string{"/v1", "/v1/g/{gid}"} {
		s.mux.HandleFunc("POST "+pre+"/sign", s.forTenant(s.handleSign))
		s.mux.HandleFunc("POST "+pre+"/sign-batch", s.forTenant(s.handleSignBatch))
		s.mux.HandleFunc("GET "+pre+"/pubkey", s.forTenant(s.handlePubkey))
		s.mux.HandleFunc("GET "+pre+"/vk", s.forTenant(s.handleVK))
		for _, proto := range []string{ProtoDKG, ProtoRefresh} {
			s.mux.HandleFunc("POST "+pre+"/proto/"+proto+"/start", s.handleProtoStart(proto))
			s.mux.HandleFunc("POST "+pre+"/proto/"+proto+"/step", s.handleProtoStep(proto))
			s.mux.HandleFunc("POST "+pre+"/proto/"+proto+"/finish", s.handleProtoFinish(proto))
		}
		// Any other method on a known path is answered 405 + Allow with a
		// JSON body, not the mux's plain-text default.
		s.mux.HandleFunc(pre+"/sign", methodNotAllowed(http.MethodPost))
		s.mux.HandleFunc(pre+"/sign-batch", methodNotAllowed(http.MethodPost))
		s.mux.HandleFunc(pre+"/pubkey", methodNotAllowed(http.MethodGet))
		s.mux.HandleFunc(pre+"/vk", methodNotAllowed(http.MethodGet))
		for _, proto := range []string{ProtoDKG, ProtoRefresh} {
			for _, ep := range []string{"start", "step", "finish"} {
				s.mux.HandleFunc(pre+"/proto/"+proto+"/"+ep, methodNotAllowed(http.MethodPost))
			}
		}
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /v1/groups", s.handleGroups)
	s.mux.Handle("GET /metrics", s.met.reg)
	s.mux.HandleFunc("DELETE /v1/g/{gid}", s.handleGroupDelete)
	s.mux.HandleFunc("/v1/g/{gid}", methodNotAllowed(http.MethodDelete))
	s.mux.HandleFunc("/healthz", methodNotAllowed(http.MethodGet))
	s.mux.HandleFunc("/readyz", methodNotAllowed(http.MethodGet))
	s.mux.HandleFunc("/v1/groups", methodNotAllowed(http.MethodGet))
	s.mux.HandleFunc("/metrics", methodNotAllowed(http.MethodGet))
	return s, nil
}

// Metrics returns the daemon's metric registry as an http.Handler — the
// same exposition GET /metrics serves, for mounting on a separate debug
// listener (tsigd -debug-addr).
func (s *Signer) Metrics() http.Handler { return s.met.reg }

// syncDefaultRecord reconciles the registry's default-group record with
// the key material the daemon actually holds, creating it on first run.
// An existing epoch is preserved (the registry survives restarts and
// counts keygens across them); a keyed daemon whose record still says
// epoch 0 — legacy keystore, fresh registry — is bumped to 1.
func syncDefaultRecord(reg *registry.Registry, g *core.Group) error {
	rec, ok := reg.Get(registry.DefaultGroup)
	rec.ID = registry.DefaultGroup
	if g != nil {
		rec.Domain, rec.N, rec.T = g.Domain, g.N, g.T
		if rec.Epoch == 0 {
			rec.Epoch = 1
		}
	} else if !ok {
		rec.Epoch = 0
	}
	return reg.Put(rec)
}

// tenant resolves a group ID (the empty string aliases the default
// group) to its live state, faulting cold tenants in from their
// keystores. With create set — used only by the DKG-start path — an
// unknown ID is registered as a new keyless tenant instead of answering
// ErrUnknownGroup. Tombstoned IDs always answer ErrGroupDeleted.
func (s *Signer) tenant(gid string, create bool) (*signerTenant, error) {
	if gid == "" || gid == registry.DefaultGroup {
		if rec, ok := s.reg.Get(registry.DefaultGroup); ok && rec.Deleted {
			return nil, fmt.Errorf("service: group %q is tombstoned: %w", registry.DefaultGroup, ErrGroupDeleted)
		}
		return s.def, nil
	}
	if err := registry.ValidateID(gid); err != nil {
		return nil, err
	}
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	rec, ok := s.reg.Get(gid)
	if ok && rec.Deleted {
		return nil, fmt.Errorf("service: group %q is tombstoned: %w", gid, ErrGroupDeleted)
	}
	if !ok {
		if !create {
			return nil, fmt.Errorf("service: group %q is not registered (mint it with a keygen run): %w", gid, ErrUnknownGroup)
		}
		if err := s.reg.Put(registry.Record{ID: gid}); err != nil {
			return nil, err
		}
	}
	if v, ok := s.reg.HotGet(gid); ok {
		return v.(*signerTenant), nil
	}
	tn := s.newTenant(gid)
	if m, err := s.reg.LoadMember(gid, s.index); err == nil {
		st := &signerState{group: m.Group(), share: m.PrivateShare()}
		tn.state.Store(st)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("service: loading keystore for group %q: %w", gid, err)
	}
	s.reg.HotPut(gid, tn)
	return tn, nil
}

// forTenant adapts a tenant-scoped handler onto the mux: it resolves
// {gid} (or the default group on the un-namespaced routes) and rejects
// unknown, invalid, and tombstoned IDs before the handler runs.
func (s *Signer) forTenant(h func(*signerTenant, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tn, err := s.tenant(r.PathValue("gid"), false)
		if err != nil {
			writeGroupError(w, err)
			return
		}
		h(tn, w, r)
	}
}

// writeGroupError renders a tenant-resolution failure: 404 for unknown
// IDs, 410 for tombstones, 400 for malformed IDs, 500 otherwise.
func writeGroupError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownGroup):
		writeErrorCode(w, http.StatusNotFound, CodeUnknownGroup, err.Error())
	case errors.Is(err, ErrGroupDeleted):
		writeErrorCode(w, http.StatusGone, CodeGroupDeleted, err.Error())
	case errors.Is(err, registry.ErrInvalidID):
		writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, err.Error())
	default:
		writeErrorCode(w, http.StatusInternalServerError, CodeBackend, err.Error())
	}
}

// groupInfos summarizes every registered tenant for /v1/groups and
// /readyz. Readiness comes from the registry record — registered, not
// tombstoned, at least one completed keygen.
func groupInfos(reg *registry.Registry) (infos []GroupInfo, anyReady bool) {
	recs := reg.List()
	infos = make([]GroupInfo, 0, len(recs))
	for _, rec := range recs {
		ready := !rec.Deleted && rec.Epoch > 0
		anyReady = anyReady || ready
		infos = append(infos, GroupInfo{
			ID: rec.ID, Domain: rec.Domain, N: rec.N, T: rec.T,
			Epoch: rec.Epoch, Deleted: rec.Deleted, Ready: ready,
		})
	}
	return infos, anyReady
}

func (s *Signer) handleGroups(w http.ResponseWriter, _ *http.Request) {
	infos, _ := groupInfos(s.reg)
	writeJSON(w, http.StatusOK, GroupsResponse{Groups: infos})
}

func (s *Signer) handleReady(w http.ResponseWriter, _ *http.Request) {
	infos, ready := groupInfos(s.reg)
	status, state := http.StatusOK, "ready"
	if !ready {
		status, state = http.StatusServiceUnavailable, "unready"
	}
	writeJSON(w, status, ReadyResponse{Status: state, Index: s.index, Groups: infos})
}

// handleGroupDelete tombstones a tenant. Deletion is permanent and the
// ID is never reusable; the keystore files stay on disk (revocation,
// not shredding). Deleting an unknown ID records a tombstone too, so
// the ID cannot be minted afterwards. Idempotent.
func (s *Signer) handleGroupDelete(w http.ResponseWriter, r *http.Request) {
	gid := r.PathValue("gid")
	if err := registry.ValidateID(gid); err != nil {
		writeGroupError(w, err)
		return
	}
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if err := s.reg.Tombstone(gid); err != nil {
		writeErrorCode(w, http.StatusInternalServerError, CodeBackend, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, GroupDeleteResponse{ID: gid})
}

// Index returns the signer's 1-based server index.
func (s *Signer) Index() int { return s.index }

// Group returns the signer's current group view — nil until key material
// exists.
func (s *Signer) Group() *core.Group {
	if st := s.def.state.Load(); st != nil {
		return st.group
	}
	return nil
}

// keyed loads the tenant's key material, answering 503/no_key_material
// when there is none yet.
func (tn *signerTenant) keyed(w http.ResponseWriter) (*signerState, bool) {
	st := tn.state.Load()
	if st == nil {
		writeErrorCode(w, http.StatusServiceUnavailable, CodeNoKey,
			"signer holds no key material yet (run the distributed keygen)")
		return nil, false
	}
	return st, true
}

func (s *Signer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r, rid := ensureRequestID(r)
	w.Header().Set(HeaderRequestID, rid)
	s.mux.ServeHTTP(w, r)
}

func (s *Signer) handleSign(tn *signerTenant, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.met.signSeconds.Observe(time.Since(start).Seconds()) }()
	s.met.requests.WithLabelValues(tn.id, "sign").Inc()
	s.log.Debug("sign request",
		"request_id", RequestIDFromContext(r.Context()), "gid", tn.id)
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	var req SignRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("malformed request: %v", err))
		return
	}
	// Mirror of the coordinator's input check: an absent or empty message
	// is the client's fault, not a backend failure.
	if len(req.Message) == 0 {
		writeErrorCode(w, http.StatusBadRequest, CodeEmptyMessage, "missing message")
		return
	}
	st, ok := tn.keyed(w)
	if !ok {
		return
	}
	release, ok := s.acquireWorker(w, r)
	if !ok {
		return
	}
	defer release()

	ps, err := core.ShareSign(st.group.Params, st.share, req.Message)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, PartialResponse{Index: ps.Index, Partial: ps.Marshal()})
}

// handleSignBatch signs a whole batch under ONE admission unit (so at
// most MaxWorkers batches sign concurrently and the per-request message
// count is bounded by MaxBatch), but grabs any idle worker slots
// opportunistically to spread the messages across the pool — a big
// batch must not serialize up to MaxBatch pairing-heavy Share-Sign
// operations while the rest of the pool sits idle. Extra slots are
// returned the moment the batch is signed; under load the non-blocking
// grabs find none and the batch degrades to sequential signing on its
// own slot.
func (s *Signer) handleSignBatch(tn *signerTenant, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.met.signBatchSeconds.Observe(time.Since(start).Seconds()) }()
	s.met.requests.WithLabelValues(tn.id, "sign_batch").Inc()
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	var req SignBatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("malformed request: %v", err))
		return
	}
	s.log.Debug("sign-batch request",
		"request_id", RequestIDFromContext(r.Context()), "gid", tn.id, "messages", len(req.Messages))
	if len(req.Messages) == 0 {
		writeErrorCode(w, http.StatusBadRequest, CodeEmptyMessage, "empty batch")
		return
	}
	if len(req.Messages) > s.cfg.MaxBatch {
		writeErrorCode(w, http.StatusBadRequest, CodeBatchTooLarge, fmt.Sprintf("batch of %d messages exceeds limit %d", len(req.Messages), s.cfg.MaxBatch))
		return
	}
	for j, msg := range req.Messages {
		if len(msg) == 0 {
			writeErrorCode(w, http.StatusBadRequest, CodeEmptyMessage, fmt.Sprintf("missing message at index %d", j))
			return
		}
	}
	st, ok := tn.keyed(w)
	if !ok {
		return
	}
	s.met.batchMessages.Observe(float64(len(req.Messages)))
	release, ok := s.acquireWorker(w, r)
	if !ok {
		return
	}
	defer release()

	extra := 0
grab:
	for extra < len(req.Messages)-1 {
		select {
		case s.workers <- struct{}{}:
			extra++
		default:
			break grab
		}
	}

	var (
		partials = make([][]byte, len(req.Messages))
		next     atomic.Int64
		mu       sync.Mutex
		signErr  error
		wg       sync.WaitGroup
	)
	sign := func() {
		for {
			j := int(next.Add(1)) - 1
			if j >= len(req.Messages) || r.Context().Err() != nil {
				return
			}
			ps, err := core.ShareSign(st.group.Params, st.share, req.Messages[j])
			if err != nil {
				mu.Lock()
				if signErr == nil {
					signErr = err
				}
				mu.Unlock()
				continue
			}
			partials[j] = ps.Marshal()
		}
	}
	for i := 0; i < extra; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-s.workers }()
			sign()
		}()
	}
	sign() // the request's own slot signs too
	wg.Wait()

	if r.Context().Err() != nil {
		writeErrorCode(w, http.StatusServiceUnavailable, CodeCanceled, "canceled mid-batch")
		return
	}
	if signErr != nil {
		writeError(w, http.StatusInternalServerError, signErr.Error())
		return
	}
	writeJSON(w, http.StatusOK, PartialBatchResponse{Index: s.index, Partials: partials})
}

// acquireWorker runs admission control: it sheds the request with 503
// when the wait queue is full, otherwise blocks for a worker slot (or
// the client hanging up). On ok it returns the release function the
// caller must defer; on !ok the error response has been written.
func (s *Signer) acquireWorker(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if s.inflight.Add(1) > int64(s.cfg.MaxWorkers+s.cfg.MaxQueue) {
		s.inflight.Add(-1)
		s.met.shed.Inc()
		w.Header().Set("Retry-After", "1")
		writeErrorCode(w, http.StatusServiceUnavailable, CodeOverloaded, "signer overloaded")
		return nil, false
	}
	select {
	case s.workers <- struct{}{}:
		return func() {
			<-s.workers
			s.inflight.Add(-1)
		}, true
	case <-r.Context().Done():
		s.inflight.Add(-1)
		writeErrorCode(w, http.StatusServiceUnavailable, CodeCanceled, "canceled while queued")
		return nil, false
	}
}

func (s *Signer) handlePubkey(tn *signerTenant, w http.ResponseWriter, _ *http.Request) {
	st, ok := tn.keyed(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, PubkeyResponse{
		Domain: st.group.Domain, N: st.group.N, T: st.group.T, PK: st.group.PK.Marshal(),
	})
}

func (s *Signer) handleVK(tn *signerTenant, w http.ResponseWriter, _ *http.Request) {
	st, ok := tn.keyed(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, VKResponse{
		Index: s.index, VK: st.group.VKs[s.index].Marshal(),
	})
}

func (s *Signer) handleHealth(w http.ResponseWriter, _ *http.Request) {
	b := Build()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status: "ok", Index: s.index, Inflight: int(s.inflight.Load()),
		Version: b.Version, GoVersion: b.GoVersion, Revision: b.Revision,
	})
}

// decodeJSON decodes a request body, wrapping decode failures in the
// message the handlers answer 400 with.
func decodeJSON(r *http.Request, v any) error {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return fmt.Errorf("malformed request: %v", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Marshal before touching the ResponseWriter: an unencodable value
	// (a bug, not a peer problem) becomes a 500 instead of a silently
	// truncated body under an already-committed success status.
	raw, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(raw, '\n'))
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

func writeErrorCode(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg, Code: code})
}

// methodNotAllowed is the fallback handler registered on every known path
// without a method pattern: requests with the wrong HTTP method get a
// 405 with an Allow header and the service's JSON error schema.
func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeErrorCode(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			fmt.Sprintf("method %s not allowed on %s (allow: %s)", r.Method, r.URL.Path, allow))
	}
}
