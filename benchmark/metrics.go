package main

// metricDef declares one metric. BENCHMARK.json carries name, unit,
// direction and (end to end) bound; a test keeps the two in step. Moves
// is the interaction prediction written down before measuring: which
// end-to-end metric on which workload this layer metric should move, and
// where it must not.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Moves  string  `json:"moves,omitempty"`
}

// endToEndMetrics is the same set on every workload.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.25},
	{Name: "get_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "get_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "put_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "put_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "acl_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms/op", Better: "lower", Bound: 0.25},
	{Name: "alloc_kib_per_op", Unit: "KiB/op", Better: "lower", Bound: 0.05},
	{Name: "stored_bytes_per_user_byte", Unit: "B/B", Better: "lower", Bound: 0.05},
}

const (
	movesTransport = "get_p50_ms, ops_per_s, cpu_ms_per_op on small_tls; no change on small_direct"
	movesStream    = "get_p50_ms, put_p50_ms on bulk_tls; no change on small_direct"
	movesBytes     = "put_p50_ms, get_p50_ms, ops_per_s, alloc_kib_per_op on bulk_tls; at most a few % on small_*"
	movesJournal   = "put_p50_ms, put_p99_ms, acl_p50_ms on small_tls/small_direct, put_p50_ms and alloc_kib_per_op on bulk_tls; GET medians unchanged, get_p99_ms and ops_per_s move through the coupled barrier"
	movesAuthz     = "get_p50_ms, acl_p50_ms on small_direct (largest share), then small_tls; no change on bulk_tls"
	movesWrapper   = "cpu_ms_per_op, ops_per_s on small_*; diluted to nothing on bulk_tls"
	movesFull      = "every latency metric and stored_bytes_per_user_byte on full_tls only; no change on the other three"
	movesCore      = "ops_per_s, get_p99_ms on small_direct and small_tls at C = nproc; GET medians at C = 1 unchanged"
	movesDirect    = "the matching *_p50_ms on small_direct and, through it, on every workload"
)

// perLayerMetrics: layer = module name, measured from outside only. The
// first block comes from the layer probes, the second from the traced run.
var perLayerMetrics = []metricDef{
	{Name: "pae.seal_4k_us", Unit: "us", Better: "lower", Moves: movesBytes},
	{Name: "pae.open_4k_us", Unit: "us", Better: "lower", Moves: movesBytes},
	{Name: "pae.derive_key_us", Unit: "us", Better: "lower", Moves: movesBytes},
	{Name: "pfs.encrypt_4k_us", Unit: "us", Better: "lower", Moves: "put_p50_ms on small_direct; at most a few % on small_tls"},
	{Name: "pfs.decrypt_4k_us", Unit: "us", Better: "lower", Moves: "get_p50_ms on small_direct; at most a few % on small_tls"},
	{Name: "pfs.encrypt_1m_ms", Unit: "ms", Better: "lower", Moves: movesBytes},
	{Name: "pfs.decrypt_1m_ms", Unit: "ms", Better: "lower", Moves: movesBytes},
	{Name: "pfs.readat_4k_of_1m_us", Unit: "us", Better: "lower", Moves: "none of the four workloads (Range GETs are not in the mix); kept as the pfs random-access baseline"},
	{Name: "pfs.stored_ratio_1m", Unit: "B/B", Better: "lower", Moves: "stored_bytes_per_user_byte on every workload"},
	{Name: "store.put_4k_us", Unit: "us", Better: "lower", Moves: movesWrapper},
	{Name: "store.get_4k_us", Unit: "us", Better: "lower", Moves: movesWrapper},
	{Name: "store.put_1m_us", Unit: "us", Better: "lower", Moves: movesBytes},
	{Name: "store.get_1m_us", Unit: "us", Better: "lower", Moves: movesBytes},
	{Name: "store.resilient_put_4k_us", Unit: "us", Better: "lower", Moves: movesWrapper},
	{Name: "journal.commit_4k_us", Unit: "us", Better: "lower", Moves: movesJournal},
	{Name: "journal.commit_1m_ms", Unit: "ms", Better: "lower", Moves: movesJournal},
	{Name: "journal.bytes_per_payload_byte", Unit: "B/B", Better: "lower", Moves: movesJournal},
	{Name: "acl.authorize_us", Unit: "us", Better: "lower", Moves: movesAuthz},
	{Name: "acl.decode_acl_us", Unit: "us", Better: "lower", Moves: movesAuthz},
	{Name: "acl.encode_acl_us", Unit: "us", Better: "lower", Moves: movesAuthz},
	{Name: "cache.get_hit_ns", Unit: "ns", Better: "lower", Moves: movesAuthz},
	{Name: "cache.put_ns", Unit: "ns", Better: "lower", Moves: movesAuthz},
	{Name: "enclave.ecall_4k_us", Unit: "us", Better: "lower", Moves: movesTransport},
	{Name: "enclave.counter_inc_us", Unit: "us", Better: "lower", Moves: movesJournal},
	{Name: "enclave.seal_4k_us", Unit: "us", Better: "lower", Moves: "setup_s only (root key and certificate sealing); no change in any measured phase"},
	{Name: "enctls.handshake_ms", Unit: "ms", Better: "lower", Moves: "setup_s on *_tls; no change in any measured phase (connections are kept alive)"},
	{Name: "enctls.echo_4k_us", Unit: "us", Better: "lower", Moves: movesTransport},
	{Name: "enctls.stream_1m_ms", Unit: "ms", Better: "lower", Moves: movesStream},
	{Name: "dedup.put_new_64k_us", Unit: "us", Better: "lower", Moves: movesFull},
	{Name: "dedup.put_dup_64k_us", Unit: "us", Better: "lower", Moves: movesFull},
	{Name: "dedup.get_64k_us", Unit: "us", Better: "lower", Moves: movesFull},
	{Name: "rollback.replace_child_us", Unit: "us", Better: "lower", Moves: movesFull},
	{Name: "rollback.leaf_main_us", Unit: "us", Better: "lower", Moves: movesFull},
	{Name: "mhash.replace_us", Unit: "us", Better: "lower", Moves: movesFull},
	{Name: "audit.emit_us", Unit: "us", Better: "lower", Moves: movesFull},
	{Name: "fspath.parse_ns", Unit: "ns", Better: "lower", Moves: "get_p50_ms on small_direct by well under 1 %; no change elsewhere"},

	{Name: "client.request_us", Unit: "us", Better: "lower", Moves: "get_p50_ms on the same workload (it is the same quantity at C = 1)"},
	{Name: "transport.overhead_us", Unit: "us", Better: "lower", Moves: movesTransport},
	{Name: "core.direct_get_us", Unit: "us", Better: "lower", Moves: movesDirect},
	{Name: "core.direct_put_us", Unit: "us", Better: "lower", Moves: movesDirect},
	{Name: "core.direct_acl_us", Unit: "us", Better: "lower", Moves: movesDirect},
	{Name: "core.self_us_per_op", Unit: "us", Better: "lower", Moves: "ops_per_s, cpu_ms_per_op on small_direct, then small_tls"},
	{Name: "core.client_scaling", Unit: "ratio", Better: "higher", Moves: movesCore},
	{Name: "core.lock_wait_share", Unit: "ratio", Better: "lower", Moves: movesCore},
	{Name: "core.admission_wait_us", Unit: "us", Better: "lower", Moves: movesWrapper},
	{Name: "store.ops_per_op", Unit: "1/op", Better: "lower", Moves: movesWrapper},
	{Name: "store.time_us_per_op", Unit: "us", Better: "lower", Moves: movesWrapper},
	{Name: "store.bytes_written_per_user_byte", Unit: "B/B", Better: "lower", Moves: movesBytes},
	{Name: "store.bytes_read_per_user_byte", Unit: "B/B", Better: "lower", Moves: movesBytes},
	{Name: "journal.commits_per_op", Unit: "1/op", Better: "lower", Moves: movesJournal},
	{Name: "journal.store_bytes_per_user_byte", Unit: "B/B", Better: "lower", Moves: movesJournal},
	{Name: "enclave.ecalls_per_op", Unit: "1/op", Better: "lower", Moves: movesTransport},
	{Name: "enclave.ocalls_per_op", Unit: "1/op", Better: "lower", Moves: movesTransport},
	{Name: "wire.bytes_per_user_byte", Unit: "B/B", Better: "lower", Moves: movesTransport},
	{Name: "wire.records_per_op", Unit: "1/op", Better: "lower", Moves: movesTransport},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", Moves: movesAuthz},
	{Name: "cache.evictions_per_kop", Unit: "1/kop", Better: "lower", Moves: movesAuthz},
	{Name: "dedup.hit_ratio", Unit: "ratio", Better: "higher", Moves: "stored_bytes_per_user_byte, put_p50_ms on full_tls only"},
	{Name: "rollback.update_depth_mean", Unit: "count", Better: "lower", Moves: movesFull},
	{Name: "audit.records_per_op", Unit: "1/op", Better: "lower", Moves: movesFull},
	{Name: "audit.dropped", Unit: "count", Better: "lower", Moves: "none while 0; above 0 the audit writer is the bottleneck on full_tls"},
	{Name: "unattributed_share", Unit: "ratio", Better: "lower", Moves: "nothing by itself: the share of a request no outside probe explains; in-program tracing should shrink it"},
	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "higher", Moves: "nothing: end-to-end metrics always come from the untraced run"},
}
