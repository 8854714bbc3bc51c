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
// "default" group, so pre-tenancy clients keep working unchanged. The
// default group is an ordinary tenant: like any other it is minted by a
// DKG run against its ID (see session.go), its key material lives in the
// registry's per-tenant keystore, and it is faulted back in on demand.
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

	sessionTTL time.Duration

	// reg is the tenant registry: every tenant's record and keystore, and
	// the hot LRU its live state is served from.
	reg      *registry.Registry
	tenantMu sync.Mutex // serializes tenant minting and hot-cache fills

	workers  chan struct{} // semaphore: MaxWorkers slots
	inflight atomic.Int64  // requests holding or waiting for a slot
	mux      *http.ServeMux

	met *signerMetrics
	log *slog.Logger
}

// signerTenant is one tenant's live state on a signer: its member (the
// group view and the private share, swapped atomically as one unit) and
// the protocol-session host. It lives in the registry's hot LRU and is
// rebuilt from the tenant's keystore when faulted back in.
type signerTenant struct {
	id     string
	member atomic.Pointer[core.Member]
	proto  *protoHost
}

// NewSigner builds a signer serving member's share of its group as the
// default tenant, under the member's index.
func NewSigner(member *core.Member, cfg SignerConfig) (*Signer, error) {
	return NewDaemonSigner(DaemonConfig{Signer: cfg, Member: member})
}

// DaemonConfig configures a signer daemon, including the keyless form
// that waits for a distributed keygen.
type DaemonConfig struct {
	// Signer bounds the signing worker pool.
	Signer SignerConfig
	// Index is the daemon's 1-based player identity. Required when no
	// Member is given; otherwise it must be absent or match the member's.
	Index int
	// Member seeds the default group; nil for a keyless daemon. It is
	// installed as the default group's first epoch, exactly as a finished
	// keygen would be, only when the registry holds no default key
	// material. Material already there is served instead (it may be a
	// later, refreshed epoch); material under another public key fails
	// construction.
	Member *core.Member
	// SessionTTL bounds how long an untouched protocol session survives
	// (default DefaultSessionTTL).
	SessionTTL time.Duration
	// Registry is the multi-tenant group registry (tsigd -keystore-dir),
	// the one place key material is made durable. Nil means a
	// memory-only registry: tenants can still be minted over the wire,
	// but nothing survives a restart.
	Registry *registry.Registry
	// Logger receives the daemon's structured logs (request-scoped lines
	// at Debug, lifecycle at Info). Nil means slog.Default().
	Logger *slog.Logger
}

// NewDaemonSigner builds a signer daemon from the full configuration.
func NewDaemonSigner(cfg DaemonConfig) (*Signer, error) {
	index := cfg.Index
	if cfg.Member != nil {
		if index == 0 {
			index = cfg.Member.Index()
		}
		if index != cfg.Member.Index() {
			return nil, fmt.Errorf("service: daemon index %d contradicts share index %d", index, cfg.Member.Index())
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
		sessionTTL: cfg.SessionTTL,
		reg:        reg,
		log:        cfg.Logger,
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	s.log = s.log.With("component", "signer", "signer", index)
	s.met = newSignerMetrics(s)
	// The default tenant resolves like any other; the first start
	// registers its record, so /v1/groups and /readyz list it at once.
	tn, err := s.tenant(DefaultGroupID, true)
	switch {
	case errors.Is(err, ErrGroupDeleted) && cfg.Member == nil:
		// A tombstoned default group stays tombstoned and answers 410.
	case err != nil:
		return nil, err
	case cfg.Member != nil:
		if err := seedDefault(reg, s.log, s.Group(), cfg.Member.Group(), func() error {
			_, err := s.install(tn, cfg.Member)
			return err
		}); err != nil {
			return nil, err
		}
	}
	s.workers = make(chan struct{}, s.cfg.MaxWorkers)
	s.mux = http.NewServeMux()
	// Every tenant-scoped route exists twice: un-namespaced (the default
	// group — the pre-tenancy surface, byte-identical) and namespaced
	// under /v1/g/{gid}. PathValue("gid") is "" on the former, which
	// groupOf maps to the default group.
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

// seedDefault applies a daemon's seed group to the default tenant, whose
// registry copy is held (nil when there is none). With none, install
// makes the seed its first epoch, exactly as a finished keygen would.
// Otherwise the registry's copy wins — it may be a later, refreshed
// epoch — and a seed under another public key is refused, because a
// registry and seed files from two different keys are outside input
// pointing at the wrong directory.
func seedDefault(reg *registry.Registry, log *slog.Logger, held, seed *core.Group, install func() error) error {
	if held == nil {
		if err := install(); err != nil {
			return fmt.Errorf("service: seeding the default group: %w", err)
		}
		return nil
	}
	rec, _ := reg.Get(DefaultGroupID)
	if !held.PK.Equal(seed.PK) {
		return fmt.Errorf("service: the seed group and the registry's default group (keystore %q, epoch %d) have different public keys",
			reg.GroupDir(DefaultGroupID), rec.Epoch)
	}
	log.Info("seed key material ignored: the registry already holds the default group",
		"gid", DefaultGroupID, "epoch", rec.Epoch)
	return nil
}

// tenant resolves a group ID to its live state, faulting cold tenants in
// from their keystores. With create set — used by the DKG-start path and
// the constructor's default tenant — an unknown ID is registered as a
// new keyless tenant instead of answering ErrUnknownGroup. Tombstoned
// IDs always answer ErrGroupDeleted.
func (s *Signer) tenant(gid string, create bool) (*signerTenant, error) {
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
	tn := &signerTenant{id: gid, proto: newProtoHost(s.sessionTTL, s.met.sessionEvictions)}
	if m, err := s.reg.LoadMember(gid, s.index); err == nil {
		tn.member.Store(m)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("service: loading keystore for group %q: %w", gid, err)
	}
	s.reg.HotPut(gid, tn)
	return tn, nil
}

// forTenant adapts a tenant-scoped handler onto the mux: it resolves
// the request's group and rejects unknown, invalid, and tombstoned IDs
// before the handler runs.
func (s *Signer) forTenant(h func(*signerTenant, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tn, err := s.tenant(groupOf(r), false)
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

// Group returns the signer's current view of the default group — nil
// until key material exists.
func (s *Signer) Group() *core.Group {
	tn, err := s.tenant(DefaultGroupID, false)
	if err != nil {
		return nil
	}
	return tn.group()
}

// group is the tenant's current group view, nil until it holds key
// material.
func (tn *signerTenant) group() *core.Group {
	if m := tn.member.Load(); m != nil {
		return m.Group()
	}
	return nil
}

// keyed loads the tenant's member, answering 503/no_key_material when
// there is none yet.
func (tn *signerTenant) keyed(w http.ResponseWriter) (*core.Member, bool) {
	m := tn.member.Load()
	if m == nil {
		writeErrorCode(w, http.StatusServiceUnavailable, CodeNoKey,
			"signer holds no key material yet (run the distributed keygen)")
		return nil, false
	}
	return m, true
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
	if err := decodeJSON(r, maxRequestBytes, &req); err != nil {
		writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	// Mirror of the coordinator's input check: an absent or empty message
	// is the client's fault, not a backend failure.
	if len(req.Message) == 0 {
		writeErrorCode(w, http.StatusBadRequest, CodeEmptyMessage, "missing message")
		return
	}
	m, ok := tn.keyed(w)
	if !ok {
		return
	}
	release, ok := s.acquireWorker(w, r)
	if !ok {
		return
	}
	defer release()

	ps, err := m.SignShare(req.Message)
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
	if err := decodeJSON(r, maxRequestBytes, &req); err != nil {
		writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, err.Error())
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
	m, ok := tn.keyed(w)
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
			ps, err := m.SignShare(req.Messages[j])
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
	m, ok := tn.keyed(w)
	if !ok {
		return
	}
	g := m.Group()
	writeJSON(w, http.StatusOK, PubkeyResponse{
		Domain: g.Domain, N: g.N, T: g.T, PK: g.PK.Marshal(),
	})
}

func (s *Signer) handleVK(tn *signerTenant, w http.ResponseWriter, _ *http.Request) {
	m, ok := tn.keyed(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, VKResponse{
		Index: s.index, VK: m.Group().VKs[s.index].Marshal(),
	})
}

func (s *Signer) handleHealth(w http.ResponseWriter, _ *http.Request) {
	b := Build()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status: "ok", Index: s.index, Inflight: int(s.inflight.Load()),
		Version: b.Version, GoVersion: b.GoVersion, Revision: b.Revision,
	})
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
