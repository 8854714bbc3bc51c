package main

// metricDecl declares one metric: the same facts BENCHMARK.json carries,
// kept here so a run can print units and -compare can judge bounds without
// reading any file. bench_test.go holds the two lists equal.
type metricDecl struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the base median it may worsen
}

// endToEnd are the metrics a user of the service sees. Every one is
// reported, and is non-zero, on every workload; "sign" in a name means one
// checked signature delivered (keygen_refresh delivers one per cycle).
//
// The four time-based metrics carry the widest bound the contract allows:
// on the shared 2-core reference box the machine itself drifts by ±10 %
// over minutes (README, "Noise"), and a tighter bound would fail the same
// commit against itself. The two memory metrics repeat within 1 %.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"call_p50_ms", "ms", "lower", 0.25},
	{"sign_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_sign", "ms", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"alloc_mb_per_op", "MB", "lower", 0.10},
}

// perLayer are the single-layer metrics of the traced run; layer = package
// name. They carry no bound.
var perLayer = []metricDecl{
	{name: "bn254.g1_add_us", unit: "us", better: "lower"},
	{name: "bn254.gt_mul_us", unit: "us", better: "lower"},
	{name: "bn254.hash_to_g1_us", unit: "us", better: "lower"},
	{name: "bn254.g1_scalar_mult_ms", unit: "ms", better: "lower"},
	{name: "bn254.g2_scalar_mult_ms", unit: "ms", better: "lower"},
	{name: "bn254.g1_msm3_ms", unit: "ms", better: "lower"},
	{name: "bn254.g1_msm64_ms", unit: "ms", better: "lower"},
	{name: "bn254.pair_ms", unit: "ms", better: "lower"},
	{name: "bn254.pair_fixed_ms", unit: "ms", better: "lower"},
	{name: "bn254.multipair4_mixed_ms", unit: "ms", better: "lower"},
	{name: "bn254.precompute_g2_ms", unit: "ms", better: "lower"},
	{name: "bn254.pair_allocs", unit: "count", better: "lower"},
	{name: "bn254.gt_mul_allocs", unit: "count", better: "lower"},
	{name: "bn254.g1_scalar_mult_allocs", unit: "count", better: "lower"},

	{name: "core.share_sign_ms", unit: "ms", better: "lower"},
	{name: "core.share_verify_ms", unit: "ms", better: "lower"},
	{name: "core.combine_preverified_ms", unit: "ms", better: "lower"},
	{name: "core.combine_ms", unit: "ms", better: "lower"},
	{name: "core.verify_ms", unit: "ms", better: "lower"},
	{name: "core.batch_share_verify1_ms", unit: "ms", better: "lower"},
	{name: "core.batch_share_verify8_ms", unit: "ms", better: "lower"},
	{name: "core.batch_verify8_ms", unit: "ms", better: "lower"},
	{name: "core.find_invalid8_ms", unit: "ms", better: "lower"},
	{name: "core.partial_unmarshal_us", unit: "us", better: "lower"},
	{name: "core.sig_unmarshal_us", unit: "us", better: "lower"},
	{name: "core.group_precompute_ms", unit: "ms", better: "lower"},
	{name: "core.verify_allocs", unit: "count", better: "lower"},
	{name: "core.share_sign_allocs", unit: "count", better: "lower"},
	{name: "core.share_bytes", unit: "B", better: "lower"},
	{name: "core.sig_bytes", unit: "B", better: "lower"},
	{name: "core.partial_bytes", unit: "B", better: "lower"},

	{name: "dkg.keygen_ms", unit: "ms", better: "lower"},
	{name: "dkg.refresh_ms", unit: "ms", better: "lower"},
	{name: "dkg.keygen_rounds", unit: "count", better: "lower"},
	{name: "dkg.keygen_messages", unit: "count", better: "lower"},
	{name: "dkg.keygen_bytes", unit: "B", better: "lower"},

	{name: "service.signer.sign_busy_ms", unit: "ms", better: "lower"},
	{name: "service.signer.shares_per_sign", unit: "count", better: "lower"},
	{name: "service.signer.direct_sign_ms", unit: "ms", better: "lower"},
	{name: "service.coordinator.quorum_ms", unit: "ms", better: "lower"},
	{name: "service.coordinator.post_quorum_ms", unit: "ms", better: "lower"},
	{name: "service.coordinator.backend_wait_ms", unit: "ms", better: "lower"},
	{name: "service.coordinator.share_verify_failures_per_sign", unit: "count", better: "lower"},
	{name: "service.coordinator.cache_hit_share", unit: "ratio", better: "higher"},
	{name: "service.coordinator.coalesced_share", unit: "ratio", better: "higher"},
	{name: "service.proto.keygen_rounds", unit: "count", better: "lower"},
	{name: "service.proto.keygen_bytes", unit: "B", better: "lower"},
	{name: "service.proto.step_busy_ms", unit: "ms", better: "lower"},
	{name: "service.proto.http_overhead_ms", unit: "ms", better: "lower"},
	{name: "service.precompute_rebuilds_per_cycle", unit: "count", better: "lower"},
	{name: "service.cpu_model_ms", unit: "ms", better: "lower"},
	{name: "service.cpu_unexplained_ms", unit: "ms", better: "lower"},
	{name: "service.cpu_unexplained_share", unit: "ratio", better: "lower"},

	{name: "client.cached_roundtrip_us", unit: "us", better: "lower"},
	{name: "client.keygen_p50_ms", unit: "ms", better: "lower"},
	{name: "client.refresh_p50_ms", unit: "ms", better: "lower"},
	{name: "client.sign_p50_ms", unit: "ms", better: "lower"},
	{name: "client.tail_ms", unit: "ms", better: "lower"},
	{name: "client.tail_pct", unit: "pct", better: "higher"},
	{name: "client.trace_overhead_share", unit: "ratio", better: "lower"},
	{name: "client.peak_rss_mb", unit: "MB", better: "lower"},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output: exactly the keys the
// benchmark contract names.
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// resultDoc is one run as appended to a -json file: the contract line plus
// the host and the settings, so a set of runs is self-describing and
// -compare needs nothing else.
type resultDoc struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Traced   bool     `json:"traced"`
	Samples  int      `json:"samples"` // client calls behind every latency figure
	Host     hostInfo `json:"host"`
	contractLine
}

// metricsOf selects the declared metrics out of the computed ones; a
// declared metric that was not computed is a bug in the benchmark and comes
// back as a problem naming it.
func metricsOf(decls []metricDecl, computed map[string]float64) (map[string]value, []string) {
	out := make(map[string]value, len(decls))
	var missing []string
	for _, d := range decls {
		v, ok := computed[d.name]
		if !ok {
			missing = append(missing, "declared metric not computed: "+d.name)
			continue
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	return out, missing
}
