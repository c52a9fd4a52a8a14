//! # tkcm-bench
//!
//! Benchmark and experiment-regeneration harness.
//!
//! * `src/bin/` — one binary per figure of the paper.  Each binary prints the
//!   corresponding [`tkcm_eval::Report`]; pass `--paper` to run the
//!   paper-proportioned workload instead of the quick one.
//! * `benches/` — Criterion benchmarks for the runtime experiments
//!   (Figure 17 and the per-imputation cost of the phase breakdown).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tkcm_eval::experiments::Scale;

/// Parses the common CLI arguments of the experiment binaries.
///
/// `--paper` selects [`Scale::Paper`]; anything else (including no argument)
/// selects [`Scale::Quick`].
pub fn scale_from_args<I: IntoIterator<Item = String>>(args: I) -> Scale {
    if args.into_iter().any(|a| a == "--paper") {
        Scale::Paper
    } else {
        Scale::Quick
    }
}

/// Parses one `--flag [path]` argument pair: `None` when the flag is
/// absent, `default` when it is present without a following path (the next
/// argument being another flag does not count as a path).
pub fn path_flag_from_args<I: IntoIterator<Item = String>>(
    args: I,
    flag: &str,
    default: &str,
) -> Option<String> {
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == flag {
            return Some(
                args.next()
                    .filter(|p| !p.starts_with("--"))
                    .unwrap_or_else(|| default.to_string()),
            );
        }
    }
    None
}

/// Parses the `--json <path>` argument of `run_all_experiments`: the path the
/// machine-readable `BENCH_results.json` is written to.  `--json` without a
/// following path defaults to `BENCH_results.json` in the working directory.
pub fn json_path_from_args<I: IntoIterator<Item = String>>(args: I) -> Option<String> {
    path_flag_from_args(args, "--json", "BENCH_results.json")
}

/// Serialises a set of timed experiment reports as the `BENCH_results.json`
/// document CI archives: per-figure wall time plus every result table (RMSE
/// comparisons, runtimes, phase shares), so the perf trajectory of the repo
/// is machine-readable across PRs.
pub fn bench_results_json(scale: Scale, timed: &[(f64, tkcm_eval::Report)]) -> String {
    let entries: Vec<String> = timed
        .iter()
        .map(|(seconds, report)| {
            format!(
                "{{\"wall_time_seconds\":{seconds},\"report\":{}}}",
                report.to_json()
            )
        })
        .collect();
    format!(
        "{{\"scale\":\"{scale:?}\",\"experiments\":[{}]}}",
        entries.join(",")
    )
}

/// Serialises the fleet-throughput report like [`bench_results_json`] but
/// with an additional top-level `"trend"` object carrying the per-shard
/// scaling fields (`ticks_per_second_at_N`, `speedup_vs_1_shard_at_N`,
/// `dropped_edges_at_N`), the batched durable-ingestion fields
/// (`ticks_per_second_at_batch_N`, `speedup_vs_batch_1_at_batch_N`) and the
/// skewed-outage-storm fields (`storm_ticks_per_second_at_N`,
/// `migrations_at_N` and the per-batch latency percentiles
/// `storm_batch_p50_ms_at_N` / `storm_batch_p99_ms_at_N` from the elastic
/// rows, plus the headline `storm_recovery_ratio` — elastic over static
/// critical-path throughput at the widest fleet) and the observability
/// A/B field `obs_overhead_ratio` (instrumented over uninstrumented
/// ticks/s, gated ≥ 0.9) flattened out of the result tables.  Nightly
/// artifacts accumulate these; once enough data points exist, CI can gate
/// on a `speedup_vs_1_shard_at_4`, `speedup_vs_batch_1_at_batch_64` or
/// `storm_recovery_ratio` regression without parsing nested tables.
pub fn fleet_results_json(scale: Scale, elapsed: f64, report: &tkcm_eval::Report) -> String {
    let number = |v: f64| {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    };
    let mut trend = Vec::new();
    if let Some(table) = report.table("Fleet throughput by shard count") {
        let shards = table.column("shards").unwrap_or_default();
        for metric in ["ticks_per_second", "speedup_vs_1_shard", "dropped_edges"] {
            let values = table.column(metric).unwrap_or_default();
            for (shard, value) in shards.iter().zip(values.iter()) {
                trend.push(format!(
                    "\"{metric}_at_{}\":{}",
                    *shard as usize,
                    number(*value)
                ));
            }
        }
    }
    if let Some(table) = report.table("Batched durable ingestion by batch size") {
        let batches = table.column("batch").unwrap_or_default();
        for metric in ["ticks_per_second", "speedup_vs_batch_1"] {
            let values = table.column(metric).unwrap_or_default();
            for (batch, value) in batches.iter().zip(values.iter()) {
                trend.push(format!(
                    "\"{metric}_at_batch_{}\":{}",
                    *batch as usize,
                    number(*value)
                ));
            }
        }
    }
    if let Some(table) = report.table("Skewed-outage storm by shard count") {
        // Only the elastic rows are gateable: the static rows are the
        // baseline the `recovery_ratio` already folds in.
        let shards = table.column("shards").unwrap_or_default();
        let modes = table.column("rebalancing").unwrap_or_default();
        let mut max_elastic_shards = None;
        for (metric, name) in [
            ("ticks_per_second", "storm_ticks_per_second"),
            ("migrations", "migrations"),
            ("batch_p50_ms", "storm_batch_p50_ms"),
            ("batch_p99_ms", "storm_batch_p99_ms"),
        ] {
            let values = table.column(metric).unwrap_or_default();
            for ((shard, mode), value) in shards.iter().zip(modes.iter()).zip(values.iter()) {
                if *mode == 1.0 {
                    trend.push(format!(
                        "\"{name}_at_{}\":{}",
                        *shard as usize,
                        number(*value)
                    ));
                    if max_elastic_shards.is_none_or(|m: f64| *shard > m) {
                        max_elastic_shards = Some(*shard);
                    }
                }
            }
        }
        // The headline elastic-vs-static ratio at the widest fleet.
        if let Some(widest) = max_elastic_shards {
            let ratios = table.column("recovery_ratio").unwrap_or_default();
            for ((shard, mode), ratio) in shards.iter().zip(modes.iter()).zip(ratios.iter()) {
                if *mode == 1.0 && *shard == widest {
                    trend.push(format!("\"storm_recovery_ratio\":{}", number(*ratio)));
                }
            }
        }
    }
    if let Some(table) = report.table("Observability overhead") {
        if let Some(ratio) = table.cell("obs on", "ratio_vs_obs_off") {
            trend.push(format!("\"obs_overhead_ratio\":{}", number(ratio)));
        }
    }
    format!(
        "{{\"scale\":\"{scale:?}\",\"trend\":{{{}}},\"experiments\":[{{\"wall_time_seconds\":{elapsed},\"report\":{}}}]}}",
        trend.join(","),
        report.to_json()
    )
}

/// Serialises the candidate-pruning report like [`fleet_results_json`]: the
/// full report plus a flat top-level `"trend"` object carrying the gateable
/// fields of the composed path — per-mode throughput
/// (`ticks_per_second_<mode>`), the headline speedup over the exhaustive
/// oracle (`composed_speedup_vs_exhaustive`, expected ≥ 3 at paper
/// proportions), the fraction of candidates its bounds eliminated
/// (`pruned_fraction`, expected ≥ 0.5 at paper proportions) and the
/// fraction its level-1 runs skipped (`level1_skipped_fraction`), and the
/// speedup of the white-noise worst case over its own exhaustive sweep
/// (`worst_case_composed_speedup_vs_exhaustive`).  Beside
/// `trend`, so no gate reads it, `"stages_us_per_imputation"` holds the
/// composed search's microseconds per imputation by stage (`query`,
/// `run_bounds`, `search`).
pub fn pruning_results_json(scale: Scale, elapsed: f64, report: &tkcm_eval::Report) -> String {
    let number = |v: f64| {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    };
    let mut trend = Vec::new();
    if let Some(table) = report.table("Candidate pruning by mode") {
        for mode in tkcm_eval::experiments::pruning::MODES {
            if let Some(v) = table.cell(mode, "ticks_per_second") {
                trend.push(format!("\"ticks_per_second_{mode}\":{}", number(v)));
            }
        }
        let worst_case = tkcm_eval::experiments::pruning::WORST_CASE;
        for (row, mode_metric, key) in [
            (
                "composed",
                "speedup_vs_exhaustive",
                "composed_speedup_vs_exhaustive",
            ),
            ("composed", "pruned_fraction", "pruned_fraction"),
            (
                "composed",
                "level1_skipped_fraction",
                "level1_skipped_fraction",
            ),
            (
                worst_case,
                "speedup_vs_exhaustive",
                "worst_case_composed_speedup_vs_exhaustive",
            ),
        ] {
            if let Some(v) = table.cell(row, mode_metric) {
                trend.push(format!("\"{key}\":{}", number(v)));
            }
        }
    }
    // The composed search's stage split rides beside `trend`, not in it,
    // so the gate never reads it.
    let mut stages = Vec::new();
    if let Some(table) = report.table("Composed search stages") {
        for stage in tkcm_core::diagnostics::SEARCH_STAGES {
            if let Some(v) = table.cell(stage, "us_per_imputation") {
                stages.push(format!("\"{stage}\":{}", number(v)));
            }
        }
    }
    format!(
        "{{\"scale\":\"{scale:?}\",\"trend\":{{{}}},\"stages_us_per_imputation\":{{{}}},\"experiments\":[{{\"wall_time_seconds\":{elapsed},\"report\":{}}}]}}",
        trend.join(","),
        stages.join(","),
        report.to_json()
    )
}

/// Serialises the crash-recovery report like [`fleet_results_json`]: the
/// full report plus a flat `"trend"` object with the per-shard recovery
/// fields (`recovery_ms_at_N`, `cold_replay_ms_at_N`,
/// `recovery_speedup_vs_cold_at_N`, `snapshot_bytes_at_N`) flattened out of
/// the "Recovery cost by shard count" table so CI can gate on a recovery
/// regression without parsing nested tables.
pub fn recovery_results_json(scale: Scale, elapsed: f64, report: &tkcm_eval::Report) -> String {
    let number = |v: f64| {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    };
    let mut trend = Vec::new();
    if let Some(table) = report.table("Recovery cost by shard count") {
        let shards = table.column("shards").unwrap_or_default();
        for metric in [
            "recovery_ms",
            "cold_replay_ms",
            "recovery_speedup_vs_cold",
            "snapshot_bytes",
        ] {
            let values = table.column(metric).unwrap_or_default();
            for (shard, value) in shards.iter().zip(values.iter()) {
                trend.push(format!(
                    "\"{metric}_at_{}\":{}",
                    *shard as usize,
                    number(*value)
                ));
            }
        }
    }
    format!(
        "{{\"scale\":\"{scale:?}\",\"trend\":{{{}}},\"experiments\":[{{\"wall_time_seconds\":{elapsed},\"report\":{}}}]}}",
        trend.join(","),
        report.to_json()
    )
}

/// Prints a report with a standard footer naming the scale that was used.
pub fn print_report(report: &tkcm_eval::Report, scale: Scale) {
    println!("{report}");
    println!("(scale: {scale:?}; pass --paper for the paper-proportioned workload)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(scale_from_args(vec![]), Scale::Quick);
        assert_eq!(scale_from_args(vec!["--quick".to_string()]), Scale::Quick);
        assert_eq!(
            scale_from_args(vec!["prog".to_string(), "--paper".to_string()]),
            Scale::Paper
        );
    }

    #[test]
    fn json_path_parsing() {
        assert_eq!(json_path_from_args(vec![]), None);
        assert_eq!(
            json_path_from_args(vec!["prog".into(), "--json".into(), "out.json".into()]),
            Some("out.json".to_string())
        );
        assert_eq!(
            json_path_from_args(vec!["prog".into(), "--json".into()]),
            Some("BENCH_results.json".to_string())
        );
        // `--json --paper`: the scale flag is not swallowed as a path.
        assert_eq!(
            json_path_from_args(vec!["--json".into(), "--paper".into()]),
            Some("BENCH_results.json".to_string())
        );
    }

    #[test]
    fn path_flag_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(path_flag_from_args(args(&[]), "--metrics", "d.json"), None);
        assert_eq!(
            path_flag_from_args(args(&["--metrics"]), "--metrics", "d.json"),
            Some("d.json".to_string())
        );
        assert_eq!(
            path_flag_from_args(args(&["--metrics", "m.json"]), "--metrics", "d.json"),
            Some("m.json".to_string())
        );
        // Independent flags coexist in one command line.
        let cli = args(&["--json", "r.json", "--metrics", "--prometheus", "p.prom"]);
        assert_eq!(
            path_flag_from_args(cli.clone(), "--metrics", "d.json"),
            Some("d.json".to_string())
        );
        assert_eq!(
            path_flag_from_args(cli, "--prometheus", "d.prom"),
            Some("p.prom".to_string())
        );
    }

    #[test]
    fn fleet_results_json_flattens_the_trend_fields() {
        let mut report = tkcm_eval::Report::new("fleet");
        let mut t = tkcm_eval::Table::new(
            "Fleet throughput by shard count",
            vec![
                "config".into(),
                "shards".into(),
                "wall_seconds".into(),
                "ticks_per_second".into(),
                "imputations".into(),
                "speedup_vs_1_shard".into(),
                "dropped_edges".into(),
            ],
        );
        t.push_row("1 shard(s)", vec![1.0, 2.0, 500.0, 9.0, 1.0, 0.0]);
        t.push_row("4 shard(s)", vec![4.0, 0.8, 1250.0, 9.0, 2.5, 3.0]);
        report.add_table(t);
        let mut b = tkcm_eval::Table::new(
            "Batched durable ingestion by batch size",
            vec![
                "config".into(),
                "batch".into(),
                "wall_seconds".into(),
                "ticks_per_second".into(),
                "imputations".into(),
                "speedup_vs_batch_1".into(),
            ],
        );
        b.push_row("batch 1", vec![1.0, 4.0, 250.0, 9.0, 1.0]);
        b.push_row("batch 64", vec![64.0, 1.0, 1000.0, 9.0, 4.0]);
        report.add_table(b);
        let mut s = tkcm_eval::Table::new(
            "Skewed-outage storm by shard count",
            vec![
                "config".into(),
                "shards".into(),
                "rebalancing".into(),
                "wall_seconds".into(),
                "batch_p50_ms".into(),
                "batch_p99_ms".into(),
                "critical_path_seconds".into(),
                "ticks_per_second".into(),
                "imputations".into(),
                "migrations".into(),
                "recovery_ratio".into(),
            ],
        );
        s.push_row(
            "static 2 shard(s)",
            vec![2.0, 0.0, 3.0, 5.0, 40.0, 2.0, 400.0, 9.0, 0.0, 1.0],
        );
        s.push_row(
            "elastic 2 shard(s)",
            vec![2.0, 1.0, 2.0, 4.0, 20.0, 1.0, 800.0, 9.0, 1.0, 2.0],
        );
        s.push_row(
            "static 4 shard(s)",
            vec![4.0, 0.0, 3.0, 4.5, 38.0, 1.8, 440.0, 9.0, 0.0, 1.0],
        );
        s.push_row(
            "elastic 4 shard(s)",
            vec![4.0, 1.0, 1.9, 3.5, 18.0, 0.9, 880.0, 9.0, 2.0, 1.8],
        );
        report.add_table(s);
        let mut o = tkcm_eval::Table::new(
            "Observability overhead",
            vec![
                "config".into(),
                "obs_enabled".into(),
                "wall_seconds".into(),
                "ticks_per_second".into(),
                "imputations".into(),
                "ratio_vs_obs_off".into(),
            ],
        );
        o.push_row("obs off", vec![0.0, 1.0, 1000.0, 9.0, 1.0]);
        o.push_row("obs on", vec![1.0, 1.05, 952.0, 9.0, 0.952]);
        report.add_table(o);
        let json = fleet_results_json(Scale::Paper, 2.8, &report);
        assert!(json.contains("\"trend\":{"));
        assert!(json.contains("\"speedup_vs_1_shard_at_4\":2.5"));
        assert!(json.contains("\"ticks_per_second_at_1\":500"));
        assert!(json.contains("\"dropped_edges_at_4\":3"));
        assert!(json.contains("\"ticks_per_second_at_batch_64\":1000"));
        assert!(json.contains("\"speedup_vs_batch_1_at_batch_64\":4"));
        // Storm fields: elastic rows only, ratio from the widest fleet.
        assert!(json.contains("\"storm_ticks_per_second_at_2\":800"));
        assert!(json.contains("\"storm_ticks_per_second_at_4\":880"));
        assert!(json.contains("\"migrations_at_2\":1"));
        assert!(json.contains("\"migrations_at_4\":2"));
        assert!(json.contains("\"storm_recovery_ratio\":1.8"));
        assert!(!json.contains("storm_ticks_per_second_at_2\":400"));
        // Batch-latency percentiles: elastic rows only, like the other
        // storm fields.
        assert!(json.contains("\"storm_batch_p50_ms_at_2\":4"));
        assert!(json.contains("\"storm_batch_p99_ms_at_2\":20"));
        assert!(json.contains("\"storm_batch_p50_ms_at_4\":3.5"));
        assert!(json.contains("\"storm_batch_p99_ms_at_4\":18"));
        assert!(!json.contains("storm_batch_p99_ms_at_2\":40"));
        // The obs A/B ratio comes from the on-row of the overhead table.
        assert!(json.contains("\"obs_overhead_ratio\":0.952"));
        assert!(json.contains("\"wall_time_seconds\":2.8"));
        // A report without the fleet table still serialises (empty trend).
        let bare = fleet_results_json(Scale::Quick, 0.1, &tkcm_eval::Report::new("x"));
        assert!(bare.contains("\"trend\":{}"));
    }

    #[test]
    fn pruning_results_json_flattens_the_trend_fields() {
        let mut report = tkcm_eval::Report::new("pruning");
        let mut t = tkcm_eval::Table::new(
            "Candidate pruning by mode",
            vec![
                "config".into(),
                "wall_seconds".into(),
                "ticks_per_second".into(),
                "imputations".into(),
                "speedup_vs_exhaustive".into(),
                "pruned_fraction".into(),
                "level1_skipped_fraction".into(),
            ],
        );
        t.push_row("exhaustive", vec![4.0, 250.0, 9.0, 1.0, 0.0, 0.0]);
        t.push_row("composed", vec![0.8, 1250.0, 9.0, 5.0, 0.8, 0.4]);
        t.push_row(
            tkcm_eval::experiments::pruning::WORST_CASE,
            vec![2.5, 400.0, 9.0, 1.5, 0.1, 0.0],
        );
        report.add_table(t);
        let mut stages = tkcm_eval::Table::new(
            "Composed search stages",
            vec!["stage".into(), "us_per_imputation".into()],
        );
        for (stage, us) in tkcm_core::diagnostics::SEARCH_STAGES
            .iter()
            .zip([3.0, 20.0, 500.0])
        {
            stages.push_row(*stage, vec![us]);
        }
        report.add_table(stages);
        let json = pruning_results_json(Scale::Paper, 7.0, &report);
        assert!(json.contains("\"trend\":{"));
        assert!(json.contains("\"ticks_per_second_exhaustive\":250"));
        assert!(json.contains("\"ticks_per_second_composed\":1250"));
        assert!(json.contains("\"pruned_fraction\":0.8"));
        assert!(json.contains("\"composed_speedup_vs_exhaustive\":5"));
        assert!(json.contains("\"worst_case_composed_speedup_vs_exhaustive\":1.5"));
        // Only the two modes' own keys reach the trend object.
        let trend = json.split("\"experiments\"").next().unwrap();
        assert!(!trend.contains("\"speedup_vs_exhaustive\""));
        assert!(!trend.contains("incremental"));
        assert!(json.contains("\"level1_skipped_fraction\":0.4"));
        assert!(!json.contains("maintained_lag_fraction"));
        assert!(json.contains("\"wall_time_seconds\":7"));
        // The stage split sits beside the trend object, outside it.
        assert!(json.contains(
            "\"stages_us_per_imputation\":{\"query\":3,\"run_bounds\":20,\"search\":500}"
        ));
        let trend = json.split("\"stages_us_per_imputation\"").next().unwrap();
        assert!(trend.contains("\"pruned_fraction\"") && !trend.contains("\"search\""));
        let bare = pruning_results_json(Scale::Quick, 0.1, &tkcm_eval::Report::new("x"));
        assert!(bare.contains("\"trend\":{}"));
        assert!(bare.contains("\"stages_us_per_imputation\":{}"));
    }

    #[test]
    fn recovery_results_json_flattens_the_trend_fields() {
        let mut report = tkcm_eval::Report::new("recovery");
        let mut t = tkcm_eval::Table::new(
            "Recovery cost by shard count",
            vec![
                "config".into(),
                "shards".into(),
                "snapshot_bytes".into(),
                "checkpoint_ms".into(),
                "wal_bytes".into(),
                "replayed_ticks".into(),
                "recovery_ms".into(),
                "cold_replay_ms".into(),
                "recovery_speedup_vs_cold".into(),
            ],
        );
        t.push_row(
            "4 shard(s)",
            vec![4.0, 1024.0, 2.0, 4096.0, 100.0, 5.0, 50.0, 10.0],
        );
        report.add_table(t);
        let json = recovery_results_json(Scale::Quick, 1.0, &report);
        assert!(json.contains("\"recovery_speedup_vs_cold_at_4\":10"));
        assert!(json.contains("\"recovery_ms_at_4\":5"));
        assert!(json.contains("\"cold_replay_ms_at_4\":50"));
        assert!(json.contains("\"snapshot_bytes_at_4\":1024"));
    }

    #[test]
    fn bench_results_json_shape() {
        let mut report = tkcm_eval::Report::new("r");
        let mut t = tkcm_eval::Table::new("t", vec!["x".into(), "y".into()]);
        t.push_row("row", vec![2.0]);
        report.add_table(t);
        let json = bench_results_json(Scale::Quick, &[(1.5, report)]);
        assert!(json.starts_with("{\"scale\":\"Quick\""));
        assert!(json.contains("\"wall_time_seconds\":1.5"));
        assert!(json.contains("\"title\":\"t\""));
    }
}
