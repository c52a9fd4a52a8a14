//! Candidate pruning: the composed pruning path against the exhaustive
//! candidate sweep, on one engine.
//!
//! The same SBR-like workload is replayed through two engines that differ
//! only in the candidate path:
//!
//! * **exhaustive** — every candidate pattern is re-extracted and scored
//!   each imputation (`O(L·l·d)`), the oracle;
//! * **composed** — the default path: one best-first search per imputation
//!   over the quantized signature index's admissible lower bounds — level-1
//!   run envelopes, then per-lag chunk-mean bounds — scores exactly only
//!   what it cannot prove out.
//!
//! Pruning is *admissible*, so the composed run must impute
//! **bit-identical** values to the exhaustive run — the replay asserts that
//! on every imputation, which keeps the speedup column honest: a faster
//! number can never come from silently different answers.
//!
//! The headline trend fields are the composed-vs-exhaustive speedup, the
//! fraction of candidates pruned (`pruned_fraction`) and the fraction
//! skipped in level-1 runs the search never expanded
//! (`level1_skipped_fraction`); a second table splits the composed search's
//! time per imputation into its stages (query, level-1 run bounds, heap
//! search).  A third row, [`WORST_CASE`], replays the same outages over
//! white noise, where no bound separates candidates and nearly every one
//! goes through the search's heap to an exact fold: its speedup over the
//! exhaustive sweep of the same noise bounds what the search's own
//! bookkeeping costs, so the degenerate case cannot quietly regress.  At paper proportions (l = 72 against a
//! window over months of 5-minute data) the signature chunks are much
//! shorter than the pattern, which is the regime where the chunk bounds
//! separate candidates well.

use std::time::Instant;

use tkcm_core::diagnostics::SEARCH_STAGES;
use tkcm_core::{PruneStats, TkcmConfig, TkcmEngine};
use tkcm_datasets::rng::{seeded, standard_normal};
use tkcm_datasets::{Dataset, DatasetKind};
use tkcm_timeseries::{Catalog, StreamSource, StreamTick};

use crate::report::{Report, Table};

use super::{dataset_for, Scale};

/// The two candidate paths, in presentation (and baseline) order.
pub const MODES: [&str; 2] = ["exhaustive", "composed"];

/// The row of the composed path on white-noise readings, measured against
/// the exhaustive sweep of the same noise.
pub const WORST_CASE: &str = "worst_case_composed";

/// Length of each injected outage in ticks (the SBR generator produces
/// complete data; the sweep punctures it with rotating outages like the
/// fleet workload does).
pub const OUTAGE_LENGTH: usize = 4;

/// Distance between injected outages.  Paper-scale streams are long, so a
/// sparser cadence keeps the exhaustive baseline (which pays `O(L·l·d)` per
/// imputation) at a measurable-but-bounded share of the replay.
pub fn outage_every(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 40,
        Scale::Paper => 120,
    }
}

/// The dataset's ticks with rotating outages injected: after a warm-up
/// quarter of the stream, every [`outage_every`] ticks one series (rotating
/// round-robin) loses [`OUTAGE_LENGTH`] consecutive values.
fn punctured_ticks(dataset: &Dataset, scale: Scale) -> Vec<StreamTick> {
    let width = dataset.width();
    let every = outage_every(scale);
    let stream = dataset.to_stream();
    let mut ticks: Vec<_> = stream.ticks().collect();
    let start_at = ticks.len() / 4;
    for (t, tick) in ticks.iter_mut().enumerate().skip(start_at) {
        if t % every < OUTAGE_LENGTH {
            let series = (t / every) % width;
            tick.values[series] = None;
        }
    }
    ticks
}

/// The punctured ticks with every present reading replaced by a standard
/// normal draw (seeded): white-noise references, on which no bound of the
/// cascade separates candidates.
fn white_noise(ticks: &[StreamTick]) -> Vec<StreamTick> {
    let mut rng = seeded(0x5EED);
    ticks
        .iter()
        .map(|tick| {
            let values = tick
                .values
                .iter()
                .map(|v| v.map(|_| standard_normal(&mut rng)))
                .collect();
            StreamTick::new(tick.time, values)
        })
        .collect()
}

/// Pattern length for the pruning sweep.  The quick default (`l = 12`) is
/// shorter than one signature block ([`tkcm_core::SIGNATURE_BLOCK_LEN`]), a
/// regime where block envelopes are too coarse to separate candidates; the
/// sweep uses a block-spanning pattern at both scales so the quick run
/// exercises the same mechanics the paper-scale run measures.
pub fn pruning_pattern_length(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 24,
        Scale::Paper => 72,
    }
}

/// TKCM configuration of one mode for a dataset of `len` ticks.
fn pruning_config(scale: Scale, len: usize, mode: &str) -> TkcmConfig {
    let l = pruning_pattern_length(scale);
    let k = scale.default_anchor_count();
    TkcmConfig::builder()
        .window_length(len.max((k + 1) * l))
        .pattern_length(l)
        .anchor_count(k)
        .reference_count(scale.default_reference_count())
        .pruning(mode == "composed")
        .build()
        .expect("pruning sweep configuration is valid")
}

/// One measured replay of the workload through one candidate path.
#[derive(Clone, Debug)]
pub struct PruningRun {
    /// Row label: a candidate path (one of [`MODES`]) or [`WORST_CASE`].
    pub mode: &'static str,
    /// Wall-clock seconds for the full replay.
    pub wall_seconds: f64,
    /// Ticks per second.
    pub ticks_per_second: f64,
    /// Total values imputed (identical across modes by construction).
    pub imputations: usize,
    /// Throughput relative to the exhaustive baseline on the same readings.
    pub speedup_vs_exhaustive: f64,
    /// Fraction of candidates the cascade's bounds pruned away without an
    /// exact evaluation (0 for the exhaustive mode).
    pub pruned_fraction: f64,
    /// Fraction of candidates in level-1 runs the search never expanded
    /// (0 for the exhaustive mode).
    pub level1_skipped_fraction: f64,
    /// Microseconds per imputation in each stage of the composed search, in
    /// [`SEARCH_STAGES`] order (all 0 for the exhaustive mode): the
    /// replay's delta of the process-wide `tkcm_core_search_nanos_total`
    /// counters, so a concurrent composed engine in the same process would
    /// add to it.
    pub stages_us_per_imputation: [f64; SEARCH_STAGES.len()],
}

/// The process-wide `tkcm_core_search_nanos_total` counters, in
/// [`SEARCH_STAGES`] order.
fn search_nanos() -> [u64; SEARCH_STAGES.len()] {
    SEARCH_STAGES.map(|stage| {
        tkcm_obs::registry()
            .counter("tkcm_core_search_nanos_total", &[("stage", stage)])
            .value()
    })
}

/// Replays the default workload through both modes, then the white-noise
/// worst case through both, and returns the rows `exhaustive`, `composed`
/// and [`WORST_CASE`].
pub fn run_pruning_benchmark(scale: Scale) -> Vec<PruningRun> {
    let dataset = dataset_for(DatasetKind::Sbr, scale, 2024);
    run_pruning_benchmark_on(&dataset, scale)
}

/// Replay driver over an already generated dataset (shared by tests).
pub fn run_pruning_benchmark_on(dataset: &Dataset, scale: Scale) -> Vec<PruningRun> {
    let ticks = punctured_ticks(dataset, scale);
    let [exhaustive, composed] = replay_both(dataset, scale, &ticks, "composed");
    let [_, worst_case] = replay_both(dataset, scale, &white_noise(&ticks), WORST_CASE);
    vec![exhaustive, composed, worst_case]
}

/// Replays `ticks` through the exhaustive engine, then the composed one,
/// asserting bit-identical imputations; the composed row is labelled
/// `composed_label`.
fn replay_both(
    dataset: &Dataset,
    scale: Scale,
    ticks: &[StreamTick],
    composed_label: &'static str,
) -> [PruningRun; 2] {
    let width = dataset.width();
    let len = dataset.len();
    let catalog = Catalog::ring_neighbours(width);

    let mut runs: Vec<PruningRun> = Vec::with_capacity(MODES.len());
    let labels = ["exhaustive", composed_label];
    // (series, time, value bits) of every imputation of the exhaustive run,
    // the reference the composed run is compared against bit for bit.
    let mut reference: Option<Vec<(u32, i64, u64)>> = None;
    let mut exhaustive_wall = None;
    for (mode, label) in MODES.into_iter().zip(labels) {
        let config = pruning_config(scale, len, mode);
        let mut engine = TkcmEngine::new(width, config, catalog.clone())
            .expect("pruning sweep engine construction");
        assert_eq!(engine.is_composed(), mode == "composed");
        let mut imputed: Vec<(u32, i64, u64)> = Vec::new();
        let stages_before = search_nanos();
        let start = Instant::now();
        for tick in ticks {
            let outcome = engine.process_tick(tick).expect("pruning sweep tick");
            for imputation in &outcome.imputations {
                imputed.push((
                    imputation.series.0,
                    imputation.time.0,
                    imputation.value.to_bits(),
                ));
            }
        }
        let wall = start.elapsed().as_secs_f64();
        let stages_after = search_nanos();

        // Admissibility in action: the composed path must reproduce the
        // exhaustive answers exactly, down to the value bits.
        let baseline = reference.get_or_insert_with(|| imputed.clone());
        assert_eq!(
            *baseline, imputed,
            "{label} ({mode} mode) diverged from the exhaustive reference"
        );

        let totals: PruneStats = engine.prune_totals();
        let baseline_wall = *exhaustive_wall.get_or_insert(wall);
        let fraction = |count: usize| {
            if totals.candidates > 0 {
                count as f64 / totals.candidates as f64
            } else {
                0.0
            }
        };
        runs.push(PruningRun {
            mode: label,
            wall_seconds: wall,
            ticks_per_second: ticks.len() as f64 / wall,
            imputations: imputed.len(),
            speedup_vs_exhaustive: baseline_wall / wall,
            pruned_fraction: fraction(totals.pruned),
            level1_skipped_fraction: fraction(totals.level1_skipped),
            stages_us_per_imputation: std::array::from_fn(|i| {
                if mode == "composed" && !imputed.is_empty() {
                    (stages_after[i] - stages_before[i]) as f64 / 1e3 / imputed.len() as f64
                } else {
                    0.0
                }
            }),
        });
    }
    runs.try_into().expect("one run per mode")
}

/// Runs the candidate-pruning experiment and renders the report.
pub fn run(scale: Scale) -> Report {
    let dataset = dataset_for(DatasetKind::Sbr, scale, 2024);
    let runs = run_pruning_benchmark_on(&dataset, scale);
    report_from(&dataset, scale, &runs)
}

/// Renders the measured runs as the experiment report.
fn report_from(dataset: &Dataset, scale: Scale, runs: &[PruningRun]) -> Report {
    let mut report = Report::new("Candidate pruning: signature shortlist vs exhaustive sweep");
    report.note(format!(
        "{} series x {} ticks (SBR-like), l = {}, k = {}, d = {}; identical imputations \
         asserted across modes (composed vs exhaustive: bit-identical); the {WORST_CASE} row \
         replays the same outages over white noise against its own exhaustive sweep.",
        dataset.width(),
        dataset.len(),
        pruning_pattern_length(scale),
        scale.default_anchor_count(),
        scale.default_reference_count(),
    ));
    let mut table = Table::new(
        "Candidate pruning by mode",
        vec![
            "config".to_string(),
            "wall_seconds".to_string(),
            "ticks_per_second".to_string(),
            "imputations".to_string(),
            "speedup_vs_exhaustive".to_string(),
            "pruned_fraction".to_string(),
            "level1_skipped_fraction".to_string(),
        ],
    );
    for run in runs {
        table.push_row(
            run.mode,
            vec![
                run.wall_seconds,
                run.ticks_per_second,
                run.imputations as f64,
                run.speedup_vs_exhaustive,
                run.pruned_fraction,
                run.level1_skipped_fraction,
            ],
        );
    }
    report.add_table(table);
    if let Some(composed) = runs.iter().find(|run| run.mode == "composed") {
        let mut stages = Table::new(
            "Composed search stages",
            vec!["stage".to_string(), "us_per_imputation".to_string()],
        );
        for (stage, us) in SEARCH_STAGES.iter().zip(composed.stages_us_per_imputation) {
            stages.push_row(*stage, vec![us]);
        }
        report.add_table(stages);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkcm_datasets::SbrConfig;

    /// Small-but-real workload so the test replays both paths in well
    /// under a second; the quick-scale proportions run in CI through the
    /// `candidate_pruning` binary.
    fn mini_dataset() -> Dataset {
        SbrConfig {
            stations: 4,
            days: 2,
            seed: 7,
            ..SbrConfig::default()
        }
        .generate()
    }

    #[test]
    fn all_modes_do_identical_work_and_the_pruned_paths_prune() {
        let runs = run_pruning_benchmark_on(&mini_dataset(), Scale::Quick);
        let labels: Vec<&str> = runs.iter().map(|run| run.mode).collect();
        assert_eq!(labels, ["exhaustive", "composed", WORST_CASE]);
        let imputations = runs[0].imputations;
        assert!(imputations > 0, "workload produced no imputations");
        for run in &runs {
            // The white noise keeps the outages, so the same slots impute.
            assert_eq!(run.imputations, imputations);
            assert!(run.ticks_per_second.is_finite() && run.ticks_per_second > 0.0);
            assert!(run.speedup_vs_exhaustive > 0.0);
        }
        let exhaustive = &runs[0];
        assert_eq!(exhaustive.speedup_vs_exhaustive, 1.0);
        assert_eq!(exhaustive.pruned_fraction, 0.0);
        assert_eq!(exhaustive.level1_skipped_fraction, 0.0);
        assert_eq!(
            exhaustive.stages_us_per_imputation,
            [0.0; SEARCH_STAGES.len()]
        );
        let composed = &runs[1];
        assert!(
            composed.stages_us_per_imputation.iter().sum::<f64>() > 0.0,
            "composed search recorded no stage time: {composed:?}"
        );
        assert!(
            composed.pruned_fraction > 0.0 && composed.pruned_fraction <= 1.0,
            "composed path pruned nothing: {composed:?}"
        );
        assert!(
            composed.level1_skipped_fraction >= 0.0
                && composed.level1_skipped_fraction <= composed.pruned_fraction,
            "level-1 skips are a part of the pruned candidates: {composed:?}"
        );
        // On white noise the bounds separate (almost) nothing.
        let worst = &runs[2];
        assert!(
            worst.pruned_fraction < composed.pruned_fraction,
            "white noise must defeat the bounds: {worst:?} vs {composed:?}"
        );
    }

    #[test]
    fn report_has_one_row_per_mode() {
        let dataset = mini_dataset();
        let runs = run_pruning_benchmark_on(&dataset, Scale::Quick);
        let report = report_from(&dataset, Scale::Quick, &runs);
        let table = report.table("Candidate pruning by mode").unwrap();
        assert_eq!(table.rows.len(), MODES.len() + 1);
        assert_eq!(table.headers.len(), 7);
        assert!(table.cell("composed", "pruned_fraction").unwrap() > 0.0);
        assert!(table.cell("composed", "level1_skipped_fraction").unwrap() >= 0.0);
        assert!(table.cell("exhaustive", "speedup_vs_exhaustive").unwrap() == 1.0);
        assert!(table.cell(WORST_CASE, "speedup_vs_exhaustive").unwrap() > 0.0);
        assert!(report.notes.iter().any(|n| n.contains("bit-identical")));
        let stages = report.table("Composed search stages").unwrap();
        assert_eq!(stages.rows.len(), SEARCH_STAGES.len());
        for stage in SEARCH_STAGES {
            assert!(stages.cell(stage, "us_per_imputation").unwrap() >= 0.0);
        }
    }

    #[test]
    fn quick_and_paper_sweeps_span_a_signature_block() {
        for scale in [Scale::Quick, Scale::Paper] {
            assert!(
                pruning_pattern_length(scale) > tkcm_core::SIGNATURE_BLOCK_LEN as usize,
                "the sweep must run in the block-spanning regime"
            );
        }
    }
}
