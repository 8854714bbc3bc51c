package service

import (
	"strconv"

	"repro/internal/core"
	"repro/service/metrics"
	"repro/service/registry"
)

// This file defines the daemons' metric families. Each daemon owns one
// metrics.Registry, served on GET /metrics of its main mux (and on the
// tsigd -debug-addr listener). Per-tenant label cardinality is bounded
// twice: structurally, because every instrumented call site resolves the
// tenant through the registry first — only registered group IDs ever
// reach a label — and as a backstop by the vec's own groupLabelCap,
// past which samples collapse into the "_other" child.

// groupLabelCap is the vec-level cardinality backstop for per-tenant
// labels, matching the registry's default hot-state capacity.
const groupLabelCap = registry.DefaultHotCap

// protoRunSecondsBuckets covers whole protocol runs, which span several
// network round-trips and a finish phase — seconds, not milliseconds.
var protoRunSecondsBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// signerIndexLabel renders a 1-based signer index as a label value.
func signerIndexLabel(i int) string { return strconv.Itoa(i) }

// signerMetrics is a signer daemon's instrument set.
type signerMetrics struct {
	reg *metrics.Registry

	signSeconds      *metrics.Histogram  // /v1/sign handler latency
	signBatchSeconds *metrics.Histogram  // /v1/sign-batch handler latency
	batchMessages    *metrics.Histogram  // messages per accepted batch
	requests         *metrics.CounterVec // {group, endpoint}
	shed             *metrics.Counter    // 503 overload rejections

	sessionStarts    *metrics.CounterVec // {proto}
	sessionSteps     *metrics.CounterVec // {proto}
	stepSeconds      *metrics.Histogram  // one protocol round's local compute
	sessionFinishes  *metrics.CounterVec // {proto}
	sessionEvictions *metrics.Counter    // TTL garbage collections
}

func newSignerMetrics(s *Signer) *signerMetrics {
	r := metrics.NewRegistry()
	m := &signerMetrics{
		reg: r,
		signSeconds: r.NewHistogram("tsig_signer_sign_seconds",
			"Latency of /v1/sign requests (admission wait included).", nil),
		signBatchSeconds: r.NewHistogram("tsig_signer_sign_batch_seconds",
			"Latency of /v1/sign-batch requests.", nil),
		batchMessages: r.NewHistogram("tsig_signer_batch_messages",
			"Messages per accepted sign-batch request.", metrics.SizeBuckets),
		requests: r.NewCounterVec("tsig_signer_requests_total",
			"Signing requests by tenant group and endpoint.",
			[]string{"group", "endpoint"}, 2*groupLabelCap),
		shed: r.NewCounter("tsig_signer_shed_total",
			"Requests shed with 503 because the worker pool and queue were full."),
		sessionStarts: r.NewCounterVec("tsig_proto_sessions_started_total",
			"Protocol sessions opened on this daemon.", []string{"proto"}, 4),
		sessionSteps: r.NewCounterVec("tsig_proto_session_steps_total",
			"Protocol rounds stepped on this daemon.", []string{"proto"}, 4),
		stepSeconds: r.NewHistogram("tsig_proto_step_seconds",
			"Local compute time of one protocol round (start and step).", nil),
		sessionFinishes: r.NewCounterVec("tsig_proto_sessions_finished_total",
			"Protocol sessions finished (key material installed).", []string{"proto"}, 4),
		sessionEvictions: r.NewCounter("tsig_proto_session_evictions_total",
			"Protocol sessions evicted by the TTL garbage collector."),
	}
	r.NewGaugeFunc("tsig_signer_inflight",
		"Requests holding or waiting for a signing worker.",
		func() float64 { return float64(s.inflight.Load()) })
	r.NewGaugeFunc("tsig_signer_workers_busy",
		"Signing worker slots currently held.",
		func() float64 { return float64(len(s.workers)) })
	r.NewGaugeFunc("tsig_signer_workers_max",
		"Configured signing worker pool size.",
		func() float64 { return float64(s.cfg.MaxWorkers) })
	registerBuildInfo(r)
	registerRegistryMetrics(r, s.reg)
	return m
}

// coordMetrics is a coordinator daemon's instrument set.
type coordMetrics struct {
	reg *metrics.Registry

	signSeconds   *metrics.Histogram  // whole Sign call, cache hits included
	requests      *metrics.CounterVec // {group}
	errors        *metrics.CounterVec // {group}
	batchRequests *metrics.CounterVec // {group}
	quorumSeconds *metrics.Histogram  // fan-out start to the winning t+1 shares in hand

	backendSeconds      *metrics.HistogramVec // {signer}
	backendErrors       *metrics.CounterVec   // {signer}
	backendUp           *metrics.GaugeVec     // {signer}
	shareVerifyFailures *metrics.CounterVec   // {signer}
	shareChecks         *metrics.Counter      // shares put through Share-Verify
	combineFallbacks    *metrics.Counter      // combined signatures that failed verification
	fanoutHedges        *metrics.Counter      // fan-outs whose late wave released the reserve

	cacheHits   *metrics.Counter
	cacheMisses *metrics.Counter
	coalesced   *metrics.Counter

	windowOccupancy *metrics.Histogram // messages per dispatched window batch

	precomputeRebuilds *metrics.Counter // pairing precompute builds (group installs)

	protoRuns       *metrics.CounterVec   // {proto, outcome}
	protoRunSeconds *metrics.HistogramVec // {proto}
	protoRounds     *metrics.CounterVec   // {proto}
	protoBcastMsgs  *metrics.CounterVec   // {proto}
	protoUniMsgs    *metrics.CounterVec   // {proto}
	protoBcastBytes *metrics.CounterVec   // {proto}
	protoUniBytes   *metrics.CounterVec   // {proto}
}

func newCoordMetrics(c *Coordinator) *coordMetrics {
	r := metrics.NewRegistry()
	n := len(c.urls)
	m := &coordMetrics{
		reg: r,
		signSeconds: r.NewHistogram("tsig_coordinator_sign_seconds",
			"Latency of Sign calls (cache hits included).", nil),
		requests: r.NewCounterVec("tsig_coordinator_sign_requests_total",
			"Sign calls by tenant group.", []string{"group"}, groupLabelCap),
		errors: r.NewCounterVec("tsig_coordinator_sign_errors_total",
			"Failed Sign calls by tenant group.", []string{"group"}, groupLabelCap),
		batchRequests: r.NewCounterVec("tsig_coordinator_batch_requests_total",
			"SignBatch calls by tenant group.", []string{"group"}, groupLabelCap),
		quorumSeconds: r.NewHistogram("tsig_coordinator_quorum_seconds",
			"Time from fan-out start to holding the t+1 shares of the returned signature.", nil),
		backendSeconds: r.NewHistogramVec("tsig_coordinator_backend_seconds",
			"Per-backend round-trip latency of successful partial fetches.",
			[]string{"signer"}, n, nil),
		backendErrors: r.NewCounterVec("tsig_coordinator_backend_errors_total",
			"Per-backend failed partial fetches (excluding quorum early-exit cancels).",
			[]string{"signer"}, n),
		backendUp: r.NewGaugeVec("tsig_coordinator_backend_up",
			"1 while the signer backend answers, 0 during an outage.",
			[]string{"signer"}, n),
		shareVerifyFailures: r.NewCounterVec("tsig_coordinator_share_verify_failures_total",
			"Partial signatures rejected by Share-Verify (Byzantine answers).",
			[]string{"signer"}, n),
		shareChecks: r.NewCounter("tsig_coordinator_share_checks_total",
			"Partial signatures put through Share-Verify (a suspect's on arrival, after a failed combine, or to account a fan-out that ends without quorum); flat while an honest quorum answers."),
		combineFallbacks: r.NewCounter("tsig_coordinator_combine_fallbacks_total",
			"Optimistically combined signatures that failed verification and sent their shares to Share-Verify."),
		fanoutHedges: r.NewCounter("tsig_coordinator_fanout_hedges_total",
			"Fan-outs whose first wave had not reached quorum by 4x the tenant's pace (its mean fastest-share round-trip for that batch size) and asked the reserve signers; flat while an honest fleet answers on time."),
		cacheHits: r.NewCounter("tsig_coordinator_cache_hits_total",
			"Messages, of Sign and SignBatch calls, served from the signature LRU."),
		cacheMisses: r.NewCounter("tsig_coordinator_cache_misses_total",
			"Messages, of Sign and SignBatch calls, that missed the signature LRU."),
		coalesced: r.NewCounter("tsig_coordinator_coalesced_total",
			"Messages, of Sign and SignBatch calls, that joined another caller's in-flight fan-out."),
		windowOccupancy: r.NewHistogram("tsig_coordinator_batch_window_occupancy",
			"Messages per dispatched window batch.", metrics.SizeBuckets),
		precomputeRebuilds: r.NewCounter("tsig_pairing_precompute_rebuilds_total",
			"Pairing precompute tables built for installed groups (cold loads and epoch changes)."),
		protoRuns: r.NewCounterVec("tsig_proto_runs_total",
			"Driven protocol runs by outcome.", []string{"proto", "outcome"}, 8),
		protoRunSeconds: r.NewHistogramVec("tsig_proto_run_seconds",
			"Wall-clock duration of driven protocol runs.",
			[]string{"proto"}, 4, protoRunSecondsBuckets),
		protoRounds: r.NewCounterVec("tsig_proto_run_rounds_total",
			"Network rounds executed across driven protocol runs.", []string{"proto"}, 4),
		protoBcastMsgs: r.NewCounterVec("tsig_proto_broadcast_messages_total",
			"Broadcast messages relayed during driven protocol runs.", []string{"proto"}, 4),
		protoUniMsgs: r.NewCounterVec("tsig_proto_unicast_messages_total",
			"Unicast messages relayed during driven protocol runs.", []string{"proto"}, 4),
		protoBcastBytes: r.NewCounterVec("tsig_proto_broadcast_bytes_total",
			"Broadcast payload bytes relayed during driven protocol runs.", []string{"proto"}, 4),
		protoUniBytes: r.NewCounterVec("tsig_proto_unicast_bytes_total",
			"Unicast payload bytes relayed during driven protocol runs.", []string{"proto"}, 4),
	}
	// Backends start presumed up; the flood guard flips the gauge on
	// outage edges.
	for i := 1; i <= n; i++ {
		m.backendUp.WithLabelValues(signerIndexLabel(i)).Set(1)
	}
	r.NewGaugeFunc("tsig_coordinator_cache_entries",
		"Signatures held in the signature LRU; its memory follows this count, not the configured capacity.",
		func() float64 { return float64(c.cache.len()) })
	registerBuildInfo(r)
	registerRegistryMetrics(r, c.reg)
	return m
}

// registerBuildInfo exports the build identity as the conventional
// constant-1 info gauge.
func registerBuildInfo(r *metrics.Registry) {
	b := Build()
	labels := map[string]string{
		"version":   b.Version,
		"goversion": b.GoVersion,
	}
	if b.Revision != "" {
		labels["revision"] = b.Revision
	}
	r.SetConstLabels("tsig_build_info", "Build information of the running daemon.", labels)
}

// warmGroup builds a freshly resolved group's pairing precompute — the
// Miller-loop line tables for its generators and public key, which every
// signature's Verify reads — and counts the build. Verification-key tables
// are not part of it: the quorum-first sign path runs Share-Verify only to
// convict, so each key's tables are built on its first check. A Group
// object carries its precompute for life, so warm tenants (every resolve
// after the install) increment nothing; a refresh or rotation installs a
// NEW Group object and therefore counts as exactly one rebuild. Only the
// coordinator warms its groups: it verifies every signature, while a
// signer never runs a pairing (the tables stay lazy there, built on a
// first verify if one ever comes).
func warmGroup(g *core.Group, rebuilds *metrics.Counter) {
	if g != nil && g.Precompute() {
		rebuilds.Inc()
	}
}

// registerRegistryMetrics exports the tenant registry's counters on a
// daemon's metric registry.
func registerRegistryMetrics(r *metrics.Registry, reg *registry.Registry) {
	r.NewCounterFunc("tsig_registry_hot_hits_total",
		"Hot-state LRU hits (tenant state served from memory).",
		func() uint64 { h, _, _ := reg.Stats(); return h })
	r.NewCounterFunc("tsig_registry_hot_misses_total",
		"Hot-state LRU misses (tenant state faulted in from the keystore).",
		func() uint64 { _, m, _ := reg.Stats(); return m })
	r.NewCounterFunc("tsig_registry_manifest_rewrites_total",
		"Atomic manifest rewrites (record changes persisted to disk).",
		func() uint64 { _, _, w := reg.Stats(); return w })
	r.NewGaugeFunc("tsig_registry_tenants",
		"Registered tenant groups, tombstones included.",
		func() float64 { return float64(reg.Len()) })
	r.NewGaugeFunc("tsig_registry_hot_entries",
		"Tenants currently held in the hot-state LRU.",
		func() float64 { return float64(reg.HotLen()) })
}
