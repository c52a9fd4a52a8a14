//! Fleet throughput sweep: the sharded runtime (`tkcm-runtime`) over the
//! wide multi-cluster fleet workload, at 1/2/4 shards, plus the batched
//! durable-ingestion sweep (batch sizes 1/8/64 through a WAL-logging fleet
//! with group-commit fsync every batch) and the skewed-outage storm sweep
//! (static assignment vs the runtime's fixed component-stealing policy at
//! 2/4 shards, both one barrier per batch).
//!
//! `--paper` runs the paper-proportioned fleet (24 clusters × 6 series,
//! 30 days); the default quick fleet finishes in a couple of seconds in
//! release mode.  `--json [path]` additionally writes the machine-readable
//! results that CI uploads as the `BENCH_results_fleet` artifact: the
//! throughput/speedup tables plus a flattened top-level `trend` object
//! (`speedup_vs_1_shard_at_N`, `ticks_per_second_at_N`,
//! `dropped_edges_at_N`, `ticks_per_second_at_batch_N`,
//! `speedup_vs_batch_1_at_batch_N`, `storm_ticks_per_second_at_N`,
//! `migrations_at_N`, `storm_batch_p50_ms_at_N` / `storm_batch_p99_ms_at_N`,
//! `storm_recovery_ratio`, `obs_overhead_ratio`) so nightly runs accumulate
//! directly gateable scaling fields, including the cross-shard reference
//! loss, the batch-64-vs-per-tick durable speedup (expected ≥2×), the
//! elastic-vs-static storm critical-path ratio (expected ≥1.5×) and the
//! observability overhead bound (instrumented ≥0.9× uninstrumented).
//!
//! `--metrics [path]` additionally dumps the process-global `tkcm-obs`
//! registry as JSON after the sweeps (every histogram/counter the runtime
//! and store recorded); `--prometheus [path]` writes the same registry as
//! Prometheus text exposition.  CI archives the former per PR, the nightly
//! the latter.
use std::time::Instant;

fn main() {
    let scale = tkcm_bench::scale_from_args(std::env::args());
    let json_path = tkcm_bench::json_path_from_args(std::env::args());
    let metrics_path =
        tkcm_bench::path_flag_from_args(std::env::args(), "--metrics", "BENCH_fleet_metrics.json");
    let prometheus_path = tkcm_bench::path_flag_from_args(
        std::env::args(),
        "--prometheus",
        "BENCH_fleet_metrics.prom",
    );
    let start = Instant::now();
    let report = tkcm_eval::experiments::fleet::run(scale);
    let elapsed = start.elapsed().as_secs_f64();
    tkcm_bench::print_report(&report, scale);
    if let Some(path) = json_path {
        let json = tkcm_bench::fleet_results_json(scale, elapsed, &report);
        std::fs::write(&path, json).expect("failed to write the JSON results file");
        println!("machine-readable results written to {path}");
    }
    if let Some(path) = metrics_path {
        let json = tkcm_obs::export::render_json(tkcm_obs::registry());
        std::fs::write(&path, json).expect("failed to write the metrics dump");
        println!("metrics registry dump written to {path}");
    }
    if let Some(path) = prometheus_path {
        let text = tkcm_obs::export::render_prometheus(tkcm_obs::registry());
        std::fs::write(&path, text).expect("failed to write the Prometheus exposition");
        println!("Prometheus exposition written to {path}");
    }
}
