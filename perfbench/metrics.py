"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` lists the same names; ``test_stats.py`` checks that
the two agree. Every workload reports every metric of its kind, so a
per-layer metric whose layer a workload does not run reads 0 there.
"""

END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "q/s",
    "step_p50_ms": "ms",
    "step_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

PER_LAYER = {
    # synth / miner.oracle (set-up)
    "synth.world_s": "s",
    "oracle.ground_truth_s": "s",
    # crowd simulation
    "crowd.open_calls": "count",
    "crowd.open_s": "s",
    "crowd.open_first_s": "s",
    "crowd.open_first_share": "ratio",
    "crowd.closed_calls": "count",
    "crowd.closed_s": "s",
    "crowd.next_member_s": "s",
    "crowd.self_s": "s",
    # miner
    "miner.seed_kb_s": "s",
    "miner.is_done_s": "s",
    "miner.propose_s": "s",
    "miner.ingest_s": "s",
    "miner.pose_self_s": "s",
    "miner.self_s": "s",
    # knowledge base (the session's own obs snapshot)
    "kb.rules_final": "count",
    "kb.record_s": "s",
    "kb.propagate_s": "s",
    "kb.summary_hit_ratio": "ratio",
    # dispatch
    "dispatch.issued": "count",
    "dispatch.completed": "count",
    "dispatch.stale": "count",
    "dispatch.timeouts": "count",
    "dispatch.dropped": "count",
    "dispatch.useful_ratio": "ratio",
    "dispatch.self_s": "s",
    # storage, through SessionManager(storage_wrapper=...)
    "storage.append_calls": "count",
    "storage.append_s": "s",
    "storage.checkpoint_calls": "count",
    "storage.checkpoint_s": "s",
    "storage.checkpoint_bytes_mean": "bytes",
    # serve sessions
    "serve.fetch_handler_s": "s",
    "serve.post_handler_s": "s",
    "serve.self_s": "s",
    # http, seen from the load generator
    "http.fetch_p50_ms": "ms",
    "http.fetch_p99_ms": "ms",
    "http.post_p50_ms": "ms",
    "http.post_p99_ms": "ms",
    "http.overhead_s": "s",
    "http.bytes_per_exchange": "bytes",
    # validity of the run itself
    "loadgen.lag_tail_ms": "ms",
    "trace.uncovered_share": "ratio",
    "trace.overhead_ratio": "ratio",
}
