//! Candidate-pruning sweep: the default composed path (one best-first
//! search over signature-index bounds per imputation) against the
//! exhaustive candidate sweep on the same punctured SBR-like stream
//! (bit-identical imputations asserted during the replay).
//!
//! `--paper` runs the paper-proportioned workload (l = 72 against a window
//! over months of 5-minute data — the regime where the chunk bounds
//! separate candidates well); the default quick workload finishes in
//! seconds in release mode.  `--json [path]` additionally writes the
//! machine-readable results CI uploads as the `BENCH_results_pruning`
//! artifact: the per-mode table plus a flattened top-level `trend` object
//! (`ticks_per_second_<mode>`, `composed_speedup_vs_exhaustive`,
//! `pruned_fraction`, `level1_skipped_fraction`)
//! so nightly runs accumulate directly gateable fields (paper scale is
//! expected to hold `composed_speedup_vs_exhaustive ≥ 3` and
//! `pruned_fraction ≥ 0.5`), and beside it, ungated,
//! `stages_us_per_imputation`: the composed search's microseconds per
//! imputation in each stage (`query`, `run_bounds`, `search`).
use std::time::Instant;

fn main() {
    let scale = tkcm_bench::scale_from_args(std::env::args());
    let json_path = tkcm_bench::json_path_from_args(std::env::args());
    let start = Instant::now();
    let report = tkcm_eval::experiments::pruning::run(scale);
    let elapsed = start.elapsed().as_secs_f64();
    tkcm_bench::print_report(&report, scale);
    if let Some(path) = json_path {
        let json = tkcm_bench::pruning_results_json(scale, elapsed, &report);
        std::fs::write(&path, json).expect("failed to write the JSON results file");
        println!("machine-readable results written to {path}");
    }
}
