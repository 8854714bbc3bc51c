package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/bits"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bn254"
	"repro/internal/core"
	"repro/service/registry"
)

// CoordinatorConfig tunes the coordinator's fan-out and caching.
type CoordinatorConfig struct {
	// SignerTimeout bounds each individual signer request. Default 5s.
	SignerTimeout time.Duration
	// CacheSize is the LRU capacity for combined signatures. 0 means the
	// default (1024); negative disables caching.
	CacheSize int
	// HTTPClient overrides the client used for signer requests.
	HTTPClient *http.Client
	// BatchWindow, when positive, batches concurrent single-message calls
	// (Sign, or SignBatch of one) for distinct messages: the first message
	// to lead a fan-out waits up to BatchWindow for company, then the whole
	// batch rides one /v1/sign-batch round-trip per signer, detached from
	// every caller. It decides only when such a message leaves: callers
	// coalesce onto it as onto any message in flight. Zero disables
	// batching (every call fans out its own messages at once).
	BatchWindow time.Duration
	// MaxBatch caps the messages per batch — both the window batcher's
	// fill limit and the /v1/sign-batch request size. Default
	// DefaultMaxBatch. Every signer's -max-batch must be at least this
	// large: there is no per-message fallback, so a signer that rejects
	// the batch size counts as unreachable for that batch.
	MaxBatch int
	// ProtoRoundTimeout bounds each signer's step call during a driven
	// protocol session (keygen, refresh); a signer that misses it is
	// excluded as crashed for the rest of the run. Default
	// DefaultProtoRoundTimeout.
	ProtoRoundTimeout time.Duration
	// Registry is the multi-tenant group registry (tsigd -keystore-dir),
	// the one place public groups are made durable. Nil means a
	// memory-only registry: tenants can still be minted over the wire,
	// but nothing survives a restart.
	Registry *registry.Registry
	// Logger receives the daemon's structured logs (request-scoped lines
	// at Debug, backend outage edges and protocol runs at Info/Warn).
	// Nil means slog.Default().
	Logger *slog.Logger
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.SignerTimeout <= 0 {
		c.SignerTimeout = 5 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	return c
}

// Coordinator is the signing gateway. It has one way in and one fan-out.
// Sign and SignBatch admit their messages through one path (admit): a
// message in flight is one item in one registry, which every caller
// asking for it waits on. The fan-out, through which a single message is
// a batch of one, completes the items it is handed, at once or after the
// window batcher's wait. It asks t+1 signers first and the rest only when
// they fall short or run late, interpolates the first t+1 shares and
// verifies the signature before anything answers or caches it, and runs
// Share-Verify only to convict a Byzantine signer — robust with no retry
// rounds as long as t+1 honest signers respond (fanState, fanout.go, has
// the whole policy).
//
// It is also an http.Handler:
//
//	POST /v1/sign       {"message": base64} -> SignatureResponse
//	POST /v1/sign-batch {"messages": [base64...]} -> SignBatchResponse
//	GET  /v1/pubkey     -> PubkeyResponse
//	GET  /v1/groups     -> GroupsResponse (every registered tenant)
//	GET  /healthz       -> HealthResponse (process liveness)
//	GET  /readyz        -> ReadyResponse (per-group key state)
//	POST /v1/proto/{dkg|refresh}/run -> ProtoRunResponse
//	DELETE /v1/g/{groupID} -> GroupDeleteResponse
//
// Like the signer, the coordinator is a multi-tenant KMS front: every
// route above also exists as /v1/g/{groupID}/..., dispatching to that
// tenant's group over the SAME signer fleet, and the un-namespaced form
// aliases the "default" group — an ordinary tenant in the registry like
// every other. A DKG run against an unknown group ID mints the tenant
// across the whole fleet.
type Coordinator struct {
	urls   []string // urls[i-1] serves share i
	cfg    CoordinatorConfig
	cache  *sigCache    // shared across tenants; keys carry the group ID
	flight *flightGroup // shared across tenants; keys carry the group ID
	mux    *http.ServeMux

	// reg is the tenant registry: every tenant's record and public
	// group, and the hot LRU its live state is served from.
	reg      *registry.Registry
	tenantMu sync.Mutex // serializes tenant minting and hot-cache fills

	met *coordMetrics
	log *slog.Logger
	// backendDown[i-1] is the log-flood guard for signer i: connection
	// errors are logged once per outage transition (the down edge, then
	// the recovery edge), not once per failing request.
	backendDown []atomic.Bool
}

// coordTenant is one tenant's signing state on the coordinator: the
// group view, the per-tenant request batcher, and the protocol-run
// lock. It lives in the registry's hot LRU.
type coordTenant struct {
	c  *Coordinator
	id string
	// group is swappable: a keyless tenant starts with nil and installs
	// the group a remote keygen produces; a refresh run swaps in the
	// re-randomized verification keys. A fan-out captures the pointer
	// once, so one request sees one consistent view.
	group atomic.Pointer[core.Group]
	batch *batcher // nil unless BatchWindow > 0
	// suspect[i-1] is set while signer i stands convicted of a bad share
	// for this tenant: fanState Share-Verifies a suspect's answers on arrival
	// instead of holding them for an optimistic combine.
	suspect []atomic.Bool
	// rotation advances by t+1 per fan-out, so successive first waves
	// walk the healthy signers in turn and spread the signing load evenly.
	rotation atomic.Uint32
	// pace[sizeClass(k)] is the running mean of a k-message fan-out's
	// fastest share: the quickest round-trip among the t+1 shares behind
	// its first verified signature. Any t+1 shares hold one from a signer
	// that is not slow as long as at most t are, so a straggler cannot
	// drag the pace — or the hedge set from it — up after itself. 0 until
	// the class's first signature; until then its fan-outs ask all n.
	pace [paceClasses]atomic.Int64
	// lagging[i-1] is set while signer i's last answer for this tenant was
	// an error or slower than the hedge, or it was still out when the hedge
	// fired. Like a suspect it is asked only as a probe, and it rejoins the
	// rotation by answering in time.
	lagging []atomic.Bool
	// protoMu serializes whole protocol runs (keygen, refresh) for this
	// tenant: the check-then-install on group must not interleave, and
	// concurrent runs would race the signers' session slots and the
	// persistence writes.
	protoMu sync.Mutex
}

// prefix is the tenant's URL prefix on the signer daemons. The default
// tenant speaks the un-namespaced routes. Signers serve both forms
// identically; the short one is kept for wire stability — it is what
// proxies, access logs and fault injectors in front of the signers match.
func (tn *coordTenant) prefix() string {
	if tn.id == DefaultGroupID {
		return "/v1"
	}
	return "/v1/g/" + tn.id
}

// SignReport is the quorum accounting for one Sign call.
type SignReport struct {
	Signers     []int // indices whose shares were interpolated into the returned signature
	Invalid     []int // signers that answered with an invalid share (Byzantine)
	Unreachable []int // signers that were down, timed out, or errored
	Cached      bool  // served from the signature cache
	Coalesced   bool  // rode another caller's in-flight fan-out
}

// signOutcome is what one fan-out yields. Coalesced callers share it, so
// Go callers get a copy of sig, never sig itself.
type signOutcome struct {
	sig         *core.Signature
	enc         []byte // sig's encoding, marshaled once: cached and written as is
	signers     []int
	invalid     []int
	unreachable []int
}

// signed is one signature on its way to a caller: its encoding, as
// cached and as written on the wire, and the combined points when it
// comes from a fan-out rather than the cache.
type signed struct {
	enc []byte
	pts *core.Signature // nil on a cache hit
}

// private returns a signature the caller owns: a copy of the combined
// points, or on a cache hit the stored encoding decoded. HTTP responses
// write enc and never need it.
func (s signed) private() (*core.Signature, error) {
	if s.pts != nil {
		return &core.Signature{Z: new(bn254.G1).Set(s.pts.Z), R: new(bn254.G1).Set(s.pts.R)}, nil
	}
	return core.UnmarshalSignature(s.enc)
}

// NewCoordinator builds a coordinator seeded with the default group;
// signerURLs[i-1] must be the base URL of the signer holding share i. The
// seed is installed as the default group's first epoch only when the
// registry holds none; a registry copy under the same public key (it may
// be a later, refreshed epoch) is served instead, and one under another
// public key fails construction.
func NewCoordinator(group *core.Group, signerURLs []string, cfg CoordinatorConfig) (*Coordinator, error) {
	if group == nil {
		return nil, fmt.Errorf("service: nil group (use NewKeylessCoordinator to start before keygen)")
	}
	if len(signerURLs) != group.N {
		return nil, fmt.Errorf("service: %d signer URLs for a group of n=%d", len(signerURLs), group.N)
	}
	return newCoordinator(signerURLs, cfg, group)
}

// NewKeylessCoordinator builds a coordinator without a seed group: it
// serves whatever default group its registry holds, and otherwise can
// drive a distributed keygen across its signers (RunDKG, or POST
// /v1/proto/dkg/run), serving signatures the moment the keygen
// completes. Until then, signing requests are refused with
// ErrNoKeyMaterial.
func NewKeylessCoordinator(signerURLs []string, cfg CoordinatorConfig) (*Coordinator, error) {
	if len(signerURLs) < 3 {
		return nil, fmt.Errorf("service: %d signer URLs, need at least 3 (n >= 2t+1, t >= 1)", len(signerURLs))
	}
	return newCoordinator(signerURLs, cfg, nil)
}

func newCoordinator(signerURLs []string, cfg CoordinatorConfig, seed *core.Group) (*Coordinator, error) {
	c := &Coordinator{
		urls:   signerURLs,
		cfg:    cfg.withDefaults(),
		flight: newFlightGroup(),
	}
	c.reg = c.cfg.Registry
	if c.reg == nil {
		var err error
		if c.reg, err = registry.Open(registry.Config{}); err != nil {
			return nil, err
		}
	}
	c.cache = newSigCache(c.cfg.CacheSize) // nil when disabled
	c.log = c.cfg.Logger
	if c.log == nil {
		c.log = slog.Default()
	}
	c.log = c.log.With("component", "coordinator")
	c.met = newCoordMetrics(c)
	c.backendDown = make([]atomic.Bool, len(signerURLs))
	if c.cache != nil {
		c.cache.hits, c.cache.misses = c.met.cacheHits, c.met.cacheMisses
	}
	c.flight.coalesced = c.met.coalesced
	c.mux = http.NewServeMux()
	// Every tenant-scoped route exists un-namespaced (the default group,
	// byte-identical to the pre-tenancy surface) and namespaced under
	// /v1/g/{gid}.
	for _, pre := range []string{"/v1", "/v1/g/{gid}"} {
		c.mux.HandleFunc("POST "+pre+"/sign", c.forTenant(c.handleSign))
		c.mux.HandleFunc("POST "+pre+"/sign-batch", c.forTenant(c.handleSignBatch))
		c.mux.HandleFunc("GET "+pre+"/pubkey", c.forTenant(c.handlePubkey))
		c.mux.HandleFunc("POST "+pre+"/proto/dkg/run", c.handleProtoRun(ProtoDKG))
		c.mux.HandleFunc("POST "+pre+"/proto/refresh/run", c.handleProtoRun(ProtoRefresh))
		// Any other method on a known path is answered 405 + Allow with a
		// JSON body, not the mux's plain-text default.
		c.mux.HandleFunc(pre+"/sign", methodNotAllowed(http.MethodPost))
		c.mux.HandleFunc(pre+"/sign-batch", methodNotAllowed(http.MethodPost))
		c.mux.HandleFunc(pre+"/pubkey", methodNotAllowed(http.MethodGet))
		c.mux.HandleFunc(pre+"/proto/dkg/run", methodNotAllowed(http.MethodPost))
		c.mux.HandleFunc(pre+"/proto/refresh/run", methodNotAllowed(http.MethodPost))
	}
	c.mux.HandleFunc("GET /healthz", c.handleHealth)
	c.mux.HandleFunc("GET /readyz", c.handleReady)
	c.mux.Handle("GET /metrics", c.met.reg)
	c.mux.HandleFunc("/metrics", methodNotAllowed(http.MethodGet))
	c.mux.HandleFunc("GET /v1/groups", c.handleGroups)
	c.mux.HandleFunc("DELETE /v1/g/{gid}", c.handleGroupDelete)
	c.mux.HandleFunc("/healthz", methodNotAllowed(http.MethodGet))
	c.mux.HandleFunc("/readyz", methodNotAllowed(http.MethodGet))
	c.mux.HandleFunc("/v1/groups", methodNotAllowed(http.MethodGet))
	c.mux.HandleFunc("/v1/g/{gid}", methodNotAllowed(http.MethodDelete))

	// The default tenant resolves like any other; the first start
	// registers its record, so /v1/groups and /readyz list it at once.
	tn, err := c.tenant(DefaultGroupID, true)
	switch {
	case errors.Is(err, ErrGroupDeleted) && seed == nil:
		// A tombstoned default group stays tombstoned and answers 410.
	case err != nil:
		return nil, err
	case seed != nil:
		if err := seedDefault(c.reg, c.log, tn.group.Load(), seed, func() error { return tn.installGroup(seed) }); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// tenant resolves a group ID to its live coordinator state, loading
// cold tenants' public groups from the registry keystore. With create
// set — the DKG-run path and the constructor's default tenant — an
// unknown ID is registered as a new keyless tenant.
func (c *Coordinator) tenant(gid string, create bool) (*coordTenant, error) {
	if err := registry.ValidateID(gid); err != nil {
		return nil, err
	}
	c.tenantMu.Lock()
	defer c.tenantMu.Unlock()
	rec, ok := c.reg.Get(gid)
	if ok && rec.Deleted {
		return nil, fmt.Errorf("service: group %q is tombstoned: %w", gid, ErrGroupDeleted)
	}
	if !ok {
		if !create {
			return nil, fmt.Errorf("service: group %q is not registered (mint it with a keygen run): %w", gid, ErrUnknownGroup)
		}
		if err := c.reg.Put(registry.Record{ID: gid}); err != nil {
			return nil, err
		}
	}
	if v, ok := c.reg.HotGet(gid); ok {
		return v.(*coordTenant), nil
	}
	tn := &coordTenant{c: c, id: gid, suspect: make([]atomic.Bool, len(c.urls)), lagging: make([]atomic.Bool, len(c.urls))}
	if c.cfg.BatchWindow > 0 {
		tn.batch = newBatcher(tn, c.cfg.BatchWindow, c.cfg.MaxBatch)
	}
	if g, err := c.reg.LoadGroup(gid); err == nil {
		tn.group.Store(g)
		warmGroup(g, c.met.precomputeRebuilds)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("service: loading group %q: %w", gid, err)
	}
	c.reg.HotPut(gid, tn)
	return tn, nil
}

// forTenant adapts a tenant-scoped handler onto the mux, resolving the
// request's group before the handler runs.
func (c *Coordinator) forTenant(h func(*coordTenant, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tn, err := c.tenant(groupOf(r), false)
		if err != nil {
			writeGroupError(w, err)
			return
		}
		h(tn, w, r)
	}
}

// Group returns the default group's public description — nil until key
// material exists (keyless coordinators before their first keygen).
func (c *Coordinator) Group() *core.Group {
	tn, err := c.tenant(DefaultGroupID, false)
	if err != nil {
		return nil
	}
	return tn.group.Load()
}

// Metrics returns the coordinator's metric registry as an http.Handler
// (Prometheus text exposition), for mounting on a separate debug
// listener; the same registry serves GET /metrics on the main mux.
func (c *Coordinator) Metrics() http.Handler { return c.met.reg }

// ServeHTTP adopts (or generates) the request's X-Request-ID, stashes it
// in the context for every downstream log line and fan-out, echoes it in
// the response header, and dispatches.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r, rid := ensureRequestID(r)
	w.Header().Set(HeaderRequestID, rid)
	c.mux.ServeHTTP(w, r)
}

// Sign produces the default group's threshold signature on msg,
// consulting the cache, coalescing with concurrent identical requests,
// and otherwise fanning out to the signers — through the request
// batcher when BatchWindow is configured, so concurrent distinct
// messages share one round-trip.
func (c *Coordinator) Sign(ctx context.Context, msg []byte) (*core.Signature, SignReport, error) {
	return c.SignGroup(ctx, DefaultGroupID, msg)
}

// SignGroup is Sign scoped to one tenant group.
func (c *Coordinator) SignGroup(ctx context.Context, gid string, msg []byte) (*core.Signature, SignReport, error) {
	tn, err := c.tenant(gid, false)
	if err != nil {
		return nil, SignReport{}, err
	}
	s, report, err := tn.sign(ctx, msg)
	if err != nil {
		return nil, report, err
	}
	sig, err := s.private()
	if err != nil {
		return nil, report, err
	}
	return sig, report, nil
}

func (tn *coordTenant) sign(ctx context.Context, msg []byte) (signed, SignReport, error) {
	c := tn.c
	c.met.requests.WithLabelValues(tn.id).Inc()
	start := time.Now()
	var s [1]signed
	var res [1]BatchResult
	err := tn.admit(ctx, [][]byte{msg}, s[:], res[:])
	if err == nil {
		err = res[0].Err
	}
	c.met.signSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		c.met.errors.WithLabelValues(tn.id).Inc()
	}
	return s[0], res[0].Report, err
}

// admit is the one way a message reaches a fan-out; Sign is a call of one
// message, SignBatch of many. Each message is answered from the cache,
// shares the item of an earlier duplicate in the call, joins the item in
// flight for it under the same public key (Coalesced), or leads a fresh
// one. The leaders fan out together on this caller's context — except a
// one-message call's leader while BatchWindow is set, which waits in the
// window for company and rides its detached fan-out. Then every item is
// awaited, and a message whose leader's caller hung up is admitted again
// while this caller is still there. sigs[j] and results[j] receive message
// j's outcome, with results[j].Sig left nil.
func (tn *coordTenant) admit(ctx context.Context, msgs [][]byte, sigs []signed, results []BatchResult) error {
	c := tn.c
	if tn.group.Load() == nil {
		return fmt.Errorf("service: coordinator holds no group yet: %w", ErrNoKeyMaterial)
	}
	// waits[j] is the item message j waits on; nil once it is answered.
	// It is allocated at the first cache miss, so a hit costs nothing.
	var waits []*batchItem
	var seen map[cacheKey]int // a batch's first message under each key
	for pass := 0; ; pass++ {
		pk := tn.group.Load().PK // a retry joins only items of the key served now
		var lead []*batchItem
		clear(seen)
		for j, msg := range msgs {
			if pass > 0 && waits[j] == nil {
				continue // answered on an earlier pass
			}
			if len(msg) == 0 {
				results[j].Err = ErrEmptyMessage
				continue
			}
			key := sigKey(tn.id, msg)
			if sig, signers, ok := c.cache.get(key); ok {
				sigs[j] = signed{enc: sig[:]}
				results[j] = BatchResult{Report: SignReport{Signers: signers, Cached: true}}
				if waits != nil {
					waits[j] = nil
				}
				continue
			}
			if waits == nil {
				waits = make([]*batchItem, len(msgs))
				if len(msgs) > 1 {
					seen = make(map[cacheKey]int, len(msgs))
				}
			}
			if k, dup := seen[key]; dup {
				waits[j], results[j] = waits[k], results[k]
				continue
			}
			if seen != nil {
				seen[key] = j
			}
			it, leader := c.flight.claim(key, msg, pk)
			waits[j] = it
			results[j] = BatchResult{Report: SignReport{Coalesced: !leader}}
			if leader {
				lead = append(lead, it)
			}
		}
		switch {
		case len(lead) == 0:
		case len(msgs) == 1 && tn.batch != nil:
			tn.batch.join(lead[0])
		default:
			tn.fanOut(ctx, lead)
		}
		retry := false
		for j, it := range waits {
			if it == nil {
				continue
			}
			waits[j] = nil
			select {
			case <-it.done:
			case <-ctx.Done():
				results[j].Err = ctx.Err()
				continue
			}
			coalesced := results[j].Report.Coalesced
			if it.err != nil {
				if coalesced && ctx.Err() == nil &&
					(errors.Is(it.err, context.Canceled) || errors.Is(it.err, context.DeadlineExceeded)) {
					// The leader's caller hung up mid-fan-out, and this
					// caller is still here: admit the message again.
					waits[j], retry = it, true
					continue
				}
				results[j].Err = it.err
				continue
			}
			out := it.out
			sigs[j] = signed{enc: out.enc, pts: out.sig}
			results[j].Report = SignReport{Signers: out.signers, Invalid: out.invalid, Unreachable: out.unreachable, Coalesced: coalesced}
		}
		if !retry {
			return nil
		}
	}
}

// markBackendDown drives the log-flood guard's down edge: the first
// connection error after a healthy period logs once and zeroes the up
// gauge; repeats during the same outage are silent.
func (c *Coordinator) markBackendDown(index int, err error) {
	if c.backendDown[index-1].CompareAndSwap(false, true) {
		c.met.backendUp.WithLabelValues(signerIndexLabel(index)).Set(0)
		c.log.Warn("signer backend down", "signer", index, "addr", c.urls[index-1], "error", err)
	}
}

// markBackendUp drives the recovery edge: the first successful
// round-trip after an outage logs once and restores the up gauge.
func (c *Coordinator) markBackendUp(index int) {
	if c.backendDown[index-1].CompareAndSwap(true, false) {
		c.met.backendUp.WithLabelValues(signerIndexLabel(index)).Set(1)
		c.log.Info("signer backend recovered", "signer", index, "addr", c.urls[index-1])
	}
}

// markSuspect records a conviction of signer i; like markBackendDown it
// logs the edge, not every bad share of a persistently Byzantine signer.
func (tn *coordTenant) markSuspect(i int) {
	if tn.suspect[i-1].CompareAndSwap(false, true) {
		tn.c.log.Warn("signer convicted by Share-Verify; its shares are now verified on arrival", "gid", tn.id, "signer", i)
	}
}

// clearSuspect is the recovery edge: the suspect's whole answer verified.
func (tn *coordTenant) clearSuspect(i int) {
	if tn.suspect[i-1].CompareAndSwap(true, false) {
		tn.c.log.Info("signer answered with valid shares; no longer suspect", "gid", tn.id, "signer", i)
	}
}

// hedgeFactor: a first wave that has not reached quorum by this many times
// the tenant's pace gets the reserve.
const hedgeFactor = 4

// paceClasses is how many batch-size classes keep a pace of their own.
const paceClasses = 8

// sizeClass buckets a k-message fan-out by powers of two (1, 2–3, 4–7, …,
// 128 and up): time-to-quorum grows with k, so a tenant that mixes single
// Signs with large batches hedges each against its own kind.
func sizeClass(k int) int { return min(bits.Len(uint(k))-1, paceClasses-1) }

// hedgeDelay is how long a k-message fan-out waits on its first wave
// before asking the reserve; 0 before the class's first signature.
func (tn *coordTenant) hedgeDelay(k int) time.Duration {
	return hedgeFactor * time.Duration(tn.pace[sizeClass(k)].Load())
}

// observePace folds one fastest-share round-trip of a k-message fan-out
// into its class's running mean, an exponentially weighted one (1/8 per
// observation) seeded by the first.
func (tn *coordTenant) observePace(k int, d time.Duration) {
	pace := &tn.pace[sizeClass(k)]
	for {
		old := pace.Load()
		mean := int64(d)
		if old != 0 {
			mean = old + (mean-old)/8
		}
		if pace.CompareAndSwap(old, max(mean, 1)) {
			return
		}
	}
}

// wave splits the n signers for one fan-out. ask is the first wave: the
// next need healthy signers in the tenant's rotation, plus every suspect,
// lagging and backend-down signer as a probe — each of them leaves that
// state only by answering. reserve is the healthy rest in rotation order.
// all asks everyone: before a class's first signature there is no pace to
// hedge against.
func (tn *coordTenant) wave(n, need int, all bool) (ask, reserve []int) {
	if all {
		ask = make([]int, n)
		for i := range ask {
			ask[i] = i + 1
		}
		return ask, nil
	}
	healthy := make([]int, 0, n)
	for i := 1; i <= n; i++ {
		if tn.suspect[i-1].Load() || tn.lagging[i-1].Load() || tn.c.backendDown[i-1].Load() {
			ask = append(ask, i)
		} else {
			healthy = append(healthy, i)
		}
	}
	if len(healthy) <= need {
		return append(ask, healthy...), nil
	}
	start := int((tn.rotation.Add(uint32(need)) - uint32(need)) % uint32(len(healthy)))
	for k := range healthy {
		i := healthy[(start+k)%len(healthy)]
		if k < need {
			ask = append(ask, i)
		} else {
			reserve = append(reserve, i)
		}
	}
	return ask, reserve
}

// BatchResult is one message's outcome of a SignBatch call. Err is set
// (and Sig nil) when that message — and only that message — failed.
type BatchResult struct {
	Sig    *core.Signature
	Report SignReport
	Err    error
}

// SignBatch produces threshold signatures for a whole slice of messages
// with a single fan-out round-trip per signer. Cached messages are
// answered without network traffic; duplicates inside the batch share
// one slot; a message some other caller is already signing — a
// concurrent Sign or another batch — coalesces onto that in-flight work
// instead of fanning out twice; the rest travel together in one
// request per signer (/v1/sign-batch, or /v1/sign when one message is
// left), and the signatures that reach quorum together are accepted by
// one batched pairing. Failures are per message: the returned slice
// always has len(msgs) entries, in input order. The call-level error is
// reserved for invalid input (empty batch, too many messages) and
// context expiry.
func (c *Coordinator) SignBatch(ctx context.Context, msgs [][]byte) ([]BatchResult, error) {
	return c.SignBatchGroup(ctx, DefaultGroupID, msgs)
}

// SignBatchGroup is SignBatch scoped to one tenant group.
func (c *Coordinator) SignBatchGroup(ctx context.Context, gid string, msgs [][]byte) ([]BatchResult, error) {
	tn, err := c.tenant(gid, false)
	if err != nil {
		return nil, err
	}
	sigs, results, err := tn.signBatch(ctx, msgs)
	for j, s := range sigs {
		if results[j].Err == nil {
			results[j].Sig, results[j].Err = s.private()
		}
	}
	return results, err
}

// signBatch is SignBatchGroup with every signature as signed: sigs[j] is
// set where results[j].Err is nil, and results[j].Sig is left nil.
func (tn *coordTenant) signBatch(ctx context.Context, msgs [][]byte) (sigs []signed, results []BatchResult, err error) {
	c := tn.c
	c.met.batchRequests.WithLabelValues(tn.id).Inc()
	if len(msgs) == 0 {
		return nil, nil, errors.New("service: empty batch")
	}
	if len(msgs) > c.cfg.MaxBatch {
		return nil, nil, fmt.Errorf("service: batch of %d messages exceeds limit %d: %w", len(msgs), c.cfg.MaxBatch, ErrBatchTooLarge)
	}
	sigs = make([]signed, len(msgs))
	results = make([]BatchResult, len(msgs))
	if err := tn.admit(ctx, msgs, sigs, results); err != nil {
		return nil, nil, err
	}
	return sigs, results, ctx.Err()
}

func (c *Coordinator) handleSign(tn *coordTenant, w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	var req SignRequest
	if err := decodeJSON(r, maxRequestBytes, &req); err != nil {
		writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	// Client-side bad input is answered 400 here, before any fan-out —
	// not mapped to 502 as if the backends had failed.
	if len(req.Message) == 0 {
		writeErrorCode(w, http.StatusBadRequest, CodeEmptyMessage, "missing message")
		return
	}
	rid := RequestIDFromContext(r.Context())
	c.log.Debug("sign request", "request_id", rid, "gid", tn.id)
	sig, report, err := tn.sign(r.Context(), req.Message)
	if err != nil {
		writeSignError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, SignatureResponse{
		Signature: sig.enc,
		Signers:   report.Signers,
		Cached:    report.Cached,
		Coalesced: report.Coalesced,
		RequestID: rid,
	})
}

func (c *Coordinator) handleSignBatch(tn *coordTenant, w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	var req SignBatchRequest
	if err := decodeJSON(r, maxRequestBytes, &req); err != nil {
		writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	if len(req.Messages) == 0 {
		writeErrorCode(w, http.StatusBadRequest, CodeEmptyMessage, "empty batch")
		return
	}
	if len(req.Messages) > c.cfg.MaxBatch {
		writeErrorCode(w, http.StatusBadRequest, CodeBatchTooLarge,
			fmt.Sprintf("batch of %d messages exceeds limit %d", len(req.Messages), c.cfg.MaxBatch))
		return
	}
	rid := RequestIDFromContext(r.Context())
	c.log.Debug("sign-batch request", "request_id", rid, "gid", tn.id, "messages", len(req.Messages))
	sigs, results, err := tn.signBatch(r.Context(), req.Messages)
	if err != nil {
		writeSignError(w, r, err)
		return
	}
	resp := SignBatchResponse{Results: make([]BatchItemResponse, len(results)), RequestID: rid}
	for j, res := range results {
		if res.Err != nil {
			resp.Results[j] = BatchItemResponse{Error: res.Err.Error()}
			continue
		}
		resp.Results[j] = BatchItemResponse{
			Signature: sigs[j].enc,
			Signers:   res.Report.Signers,
			Cached:    res.Report.Cached,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// signErrorStatus classifies a Sign/SignBatch error: the client's fault
// is 400, the client hanging up is 503, anything else means the backends
// let us down — 502.
func signErrorStatus(r *http.Request, err error) int {
	switch {
	case errors.Is(err, ErrEmptyMessage), errors.Is(err, ErrBatchTooLarge):
		return http.StatusBadRequest
	case errors.Is(err, ErrNoKeyMaterial):
		// Not-ready, not broken backends: matches the 503 every other
		// keyless endpoint answers.
		return http.StatusServiceUnavailable
	case r.Context().Err() != nil:
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadGateway
	}
}

// writeSignError renders a Sign/SignBatch failure with its wire code, so
// remote callers keep the errors.Is typing the in-process API has.
func writeSignError(w http.ResponseWriter, r *http.Request, err error) {
	status := signErrorStatus(r, err)
	code := errorCode(err)
	if code == "" {
		switch {
		case status == http.StatusBadRequest:
			code = CodeBadRequest
		case r.Context().Err() != nil:
			code = CodeCanceled
		default:
			code = CodeBackend
		}
	}
	writeErrorCode(w, status, code, err.Error())
}

func (c *Coordinator) handlePubkey(tn *coordTenant, w http.ResponseWriter, _ *http.Request) {
	group := tn.group.Load()
	if group == nil {
		writeErrorCode(w, http.StatusServiceUnavailable, CodeNoKey, "coordinator holds no group yet (run the distributed keygen)")
		return
	}
	writeJSON(w, http.StatusOK, PubkeyResponse{
		Domain: group.Domain, N: group.N, T: group.T, PK: group.PK.Marshal(),
	})
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, _ *http.Request) {
	b := Build()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status: "ok", Version: b.Version, GoVersion: b.GoVersion, Revision: b.Revision,
	})
}

func (c *Coordinator) handleGroups(w http.ResponseWriter, _ *http.Request) {
	infos, _ := groupInfos(c.reg)
	writeJSON(w, http.StatusOK, GroupsResponse{Groups: infos})
}

func (c *Coordinator) handleReady(w http.ResponseWriter, _ *http.Request) {
	infos, ready := groupInfos(c.reg)
	status, state := http.StatusOK, "ready"
	if !ready {
		status, state = http.StatusServiceUnavailable, "unready"
	}
	writeJSON(w, status, ReadyResponse{Status: state, Groups: infos})
}

// Groups lists every registered tenant record (tombstones included).
func (c *Coordinator) Groups() []registry.Record { return c.reg.List() }

// DeleteGroup tombstones a tenant on the coordinator AND fans the
// tombstone out to every signer, best-effort: deletion is a revocation,
// so it is recorded locally first and signers that cannot be reached
// are reported back (re-issue the delete when they return) rather than
// failing the call. The ID is never reusable afterwards.
func (c *Coordinator) DeleteGroup(ctx context.Context, gid string) ([]int, error) {
	if err := registry.ValidateID(gid); err != nil {
		return nil, err
	}
	c.tenantMu.Lock()
	err := c.reg.Tombstone(gid)
	c.tenantMu.Unlock()
	if err != nil {
		return nil, err
	}
	c.cache.dropGroup(gid)

	var (
		mu          sync.Mutex
		unreachable []int
		wg          sync.WaitGroup
	)
	for i := 1; i <= len(c.urls); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dctx, cancel := context.WithTimeout(ctx, c.cfg.SignerTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(dctx, http.MethodDelete, c.urls[i-1]+"/v1/g/"+gid, nil)
			if err == nil {
				var resp *http.Response
				if resp, err = c.cfg.HTTPClient.Do(req); err == nil {
					io.Copy(io.Discard, io.LimitReader(resp.Body, maxRequestBytes))
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d", resp.StatusCode)
					}
				}
			}
			if err != nil {
				mu.Lock()
				unreachable = append(unreachable, i)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	sort.Ints(unreachable)
	return unreachable, nil
}

func (c *Coordinator) handleGroupDelete(w http.ResponseWriter, r *http.Request) {
	gid := r.PathValue("gid")
	unreachable, err := c.DeleteGroup(r.Context(), gid)
	if err != nil {
		writeGroupError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, GroupDeleteResponse{ID: gid, Unreachable: unreachable})
}
