//! Figure 17 and the Section 7.4 breakdown: runtime of a single imputation.
//!
//! The paper shows that the naive recompute-all implementation is linear in
//! every parameter (`l`, `d`, `k`, `L`) and dominated by the
//! pattern-extraction (PE) phase (~92 % for the default `k`).  The engine's
//! default *composed* path bounds most candidates away before any exact
//! evaluation (one best-first search over signature-index bounds), so
//! extraction shrinks.
//! This module measures the composed path against the exact recompute-all
//! oracle so the speedup and the phase profiles are visible side by side;
//! the Criterion benches in `tkcm-bench` repeat the measurements with proper
//! statistics.

use std::time::Instant;

use tkcm_core::{SignatureIndex, TkcmConfig, TkcmEngine, TkcmImputer};
use tkcm_datasets::DatasetKind;
use tkcm_timeseries::{Catalog, SeriesId, StreamSource, StreamTick, StreamingWindow};

use crate::report::{Report, Table};

use super::{dataset_for, Scale};

/// A prepared runtime workload: a warm window, its signature index and the
/// reference ids, so a single imputation can be timed in isolation.
pub struct RuntimeWorkload {
    /// The warm streaming window (all ticks pushed, current target missing).
    pub window: StreamingWindow,
    /// Signature index over the window, in lock-step with it.
    pub index: SignatureIndex,
    /// The target series.
    pub target: SeriesId,
    /// The reference series used for the query pattern.
    pub references: Vec<SeriesId>,
}

/// Builds a warm window over the SBR-1d stand-in with the given window
/// length, where the target's value at the current time is missing.
pub fn build_workload(scale: Scale, window_length: usize, d: usize) -> RuntimeWorkload {
    let dataset = dataset_for(DatasetKind::SbrShifted, scale, 5);
    let len = dataset.len().min(window_length);
    let mut window = StreamingWindow::new(dataset.width(), window_length);
    let stream = dataset.to_stream();
    for (i, tick) in stream.ticks().enumerate() {
        if i + 1 == len {
            // Final tick: make the target missing.
            let mut values = tick.values.clone();
            values[0] = None;
            window
                .push_tick(&StreamTick::new(tick.time, values))
                .expect("tick accepted");
            break;
        }
        window.push_tick(&tick).expect("tick accepted");
    }
    let mut index = SignatureIndex::new(window.width(), window.length()).expect("valid index");
    index.rebuild(&window).expect("index matches the window");
    let references = (1..=d).map(SeriesId::from).collect();
    RuntimeWorkload {
        window,
        index,
        target: SeriesId(0),
        references,
    }
}

impl RuntimeWorkload {
    /// One imputation of the target on the composed path.
    pub fn impute_composed(&self, imputer: &mut TkcmImputer) -> f64 {
        imputer
            .impute_composed(&self.window, self.target, &self.references, &self.index)
            .expect("imputation succeeds")
            .0
            .value
    }

    /// One imputation of the target on the exhaustive exact path.
    pub fn impute_exact(&self, imputer: &mut TkcmImputer) -> f64 {
        imputer
            .impute(&self.window, self.target, &self.references)
            .expect("imputation succeeds")
            .value
    }
}

fn runtime_config(l: usize, d: usize, k: usize, window: usize) -> TkcmConfig {
    TkcmConfig::builder()
        .window_length(window.max((k + 1) * l))
        .pattern_length(l)
        .anchor_count(k)
        .reference_count(d)
        .build()
        .expect("valid runtime config")
}

/// Mean wall-clock seconds per imputation over enough repetitions to smooth
/// timer noise (a composed-path imputation is only microseconds).
fn average_impute_seconds(mut impute: impl FnMut() -> f64, iters: usize) -> f64 {
    // Warm-up pass outside the measurement.
    assert!(impute().is_finite());
    let start = Instant::now();
    for _ in 0..iters {
        assert!(impute().is_finite());
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Measures the steady-state seconds of one imputation on the default
/// composed path: the signature index is built outside the measurement,
/// exactly like the engine keeps it between ticks.
pub fn time_single_imputation(scale: Scale, l: usize, d: usize, k: usize, window: usize) -> f64 {
    let workload = build_workload(scale, window, d);
    let mut imputer = TkcmImputer::new(runtime_config(l, d, k, window)).expect("valid config");
    average_impute_seconds(|| workload.impute_composed(&mut imputer), 32)
}

/// Measures the seconds of one imputation on the exhaustive exact path
/// (`TkcmConfig::pruning = false`) — the paper's recompute-all baseline.
pub fn time_single_imputation_exact(
    scale: Scale,
    l: usize,
    d: usize,
    k: usize,
    window: usize,
) -> f64 {
    let workload = build_workload(scale, window, d);
    let mut imputer = TkcmImputer::new(runtime_config(l, d, k, window)).expect("valid config");
    average_impute_seconds(|| workload.impute_exact(&mut imputer), 4)
}

/// Per-phase shares of TKCM's runtime over a streaming gap workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseShares {
    /// Pattern extraction (the pruning cascade and exact folds, or the full
    /// recompute on the exact path).
    pub extraction: f64,
    /// Pattern selection (the dynamic program).
    pub selection: f64,
}

fn phase_shares_for(scale: Scale, k: usize, composed: bool) -> PhaseShares {
    let window = match scale {
        Scale::Quick => 2_000,
        Scale::Paper => 20_000,
    };
    let l = scale.default_pattern_length();
    let dataset = dataset_for(DatasetKind::SbrShifted, scale, 5);
    let width = dataset.width();
    let config = TkcmConfig::builder()
        .window_length(window.max((k + 1) * l))
        .pattern_length(l)
        .anchor_count(k)
        .reference_count(3)
        .pruning(composed)
        .build()
        .expect("valid config");
    let mut catalog = Catalog::new();
    catalog
        .set_candidates(SeriesId(0), (1..width).map(SeriesId::from).collect())
        .expect("valid catalog");
    let mut engine = TkcmEngine::new(width, config, catalog).expect("valid engine");
    assert_eq!(engine.is_composed(), composed);

    // Replay the stream with the target missing over a tail gap, so the
    // breakdown covers the real tick path: one imputation per gap tick.
    let len = dataset.len().min(window);
    let gap = 32.min(len / 4);
    let stream = dataset.to_stream();
    for (i, tick) in stream.ticks().enumerate() {
        if i >= len {
            break;
        }
        if i + gap >= len {
            let mut values = tick.values.clone();
            values[0] = None;
            engine
                .process_tick(&StreamTick::new(tick.time, values))
                .expect("tick accepted");
        } else {
            engine.process_tick(&tick).expect("tick accepted");
        }
    }
    assert_eq!(engine.imputations_performed(), gap);
    let breakdown = engine.phase_breakdown();
    PhaseShares {
        extraction: breakdown.extraction_share(),
        selection: breakdown.selection_share(),
    }
}

/// Phase shares of the default (composed) engine for the given `k`.
pub fn phase_shares(scale: Scale, k: usize) -> PhaseShares {
    phase_shares_for(scale, k, true)
}

/// Phase shares of the exact recompute-all path for the given `k` — the
/// profile the paper reports for the naive implementation (PE ≈ 92 %).
pub fn phase_shares_exact(scale: Scale, k: usize) -> PhaseShares {
    phase_shares_for(scale, k, false)
}

/// Parameter sweep values for the runtime experiment.
pub fn sweep(scale: Scale) -> (Vec<usize>, Vec<usize>, Vec<usize>, Vec<usize>) {
    match scale {
        Scale::Quick => (
            vec![4, 12, 24],           // l
            vec![1, 2, 3],             // d
            vec![2, 5, 10],            // k
            vec![1_000, 2_000, 3_000], // L
        ),
        Scale::Paper => (
            vec![18, 36, 72, 108, 144],
            vec![1, 2, 3, 4, 5],
            vec![5, 50, 100, 200, 300],
            vec![10_000, 20_000, 30_000],
        ),
    }
}

/// Runs the runtime experiment and returns per-parameter timing tables.
pub fn run(scale: Scale) -> Report {
    let mut report = Report::new("Figure 17: runtime linearity and phase breakdown");
    report.note("Seconds per single imputation while sweeping one parameter (SBR-1d stand-in)");
    report.note(
        "Default path: composed pruning by one best-first search, bit-identical to exact recompute",
    );
    let (ls, ds, ks, windows) = sweep(scale);
    let base_window = match scale {
        Scale::Quick => 2_000,
        Scale::Paper => 20_000,
    };
    let l_default = scale.default_pattern_length();

    let mut l_table = Table::new(
        "Runtime vs pattern length l",
        std::iter::once("parameter".to_string())
            .chain(ls.iter().map(|v| format!("l={v}")))
            .collect(),
    );
    l_table.push_row(
        "seconds",
        ls.iter()
            .map(|&l| time_single_imputation(scale, l, 3, 5, base_window))
            .collect(),
    );
    report.add_table(l_table);

    let mut d_table = Table::new(
        "Runtime vs reference count d",
        std::iter::once("parameter".to_string())
            .chain(ds.iter().map(|v| format!("d={v}")))
            .collect(),
    );
    d_table.push_row(
        "seconds",
        ds.iter()
            .map(|&d| time_single_imputation(scale, l_default, d, 5, base_window))
            .collect(),
    );
    report.add_table(d_table);

    let mut k_table = Table::new(
        "Runtime vs anchor count k",
        std::iter::once("parameter".to_string())
            .chain(ks.iter().map(|v| format!("k={v}")))
            .collect(),
    );
    k_table.push_row(
        "seconds",
        ks.iter()
            .map(|&k| time_single_imputation(scale, l_default, 3, k, base_window))
            .collect(),
    );
    report.add_table(k_table);

    let mut w_table = Table::new(
        "Runtime vs window length L",
        std::iter::once("parameter".to_string())
            .chain(windows.iter().map(|v| format!("L={v}")))
            .collect(),
    );
    w_table.push_row(
        "seconds",
        windows
            .iter()
            .map(|&w| time_single_imputation(scale, l_default, 3, 5, w))
            .collect(),
    );
    report.add_table(w_table);

    // The fast path's payoff: composed vs exact per-imputation cost at the
    // default parameters.
    let mut versus = Table::new(
        "Per-imputation cost: composed vs exact recompute",
        vec!["path".into(), "seconds".into()],
    );
    versus.push_row(
        "composed",
        vec![time_single_imputation(scale, l_default, 3, 5, base_window)],
    );
    versus.push_row(
        "exact",
        vec![time_single_imputation_exact(
            scale,
            l_default,
            3,
            5,
            base_window,
        )],
    );
    report.add_table(versus);

    // Section 7.4 phase breakdown for the default k and a very large k, on
    // both paths (the paper's ~92 % PE share is the exact path's profile).
    let mut phases = Table::new(
        "Phase breakdown (share of runtime)",
        vec![
            "configuration".into(),
            "extraction".into(),
            "selection".into(),
        ],
    );
    let big_k = match scale {
        Scale::Quick => 50,
        Scale::Paper => 300,
    };
    let composed_default = phase_shares(scale, 5);
    phases.push_row(
        "composed k=5",
        vec![composed_default.extraction, composed_default.selection],
    );
    let composed_big = phase_shares(scale, big_k);
    phases.push_row(
        format!("composed k={big_k}"),
        vec![composed_big.extraction, composed_big.selection],
    );
    let exact_default = phase_shares_exact(scale, 5);
    phases.push_row(
        "exact k=5",
        vec![exact_default.extraction, exact_default.selection],
    );
    report.add_table(phases);

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_grows_with_window_length() {
        // Linearity in L (Figure 17d): a 3x larger window should not be
        // cheaper than the small one.
        let small = time_single_imputation(Scale::Quick, 12, 3, 5, 1_000);
        let large = time_single_imputation(Scale::Quick, 12, 3, 5, 3_000);
        assert!(large >= small * 0.8, "large {large} vs small {small}");
        assert!(small >= 0.0);
    }

    #[test]
    fn exact_path_extraction_still_dominates() {
        // Section 7.4: on the recompute-all path the PE phase dominates PS
        // for the default k — kept as the cross-check baseline.
        let shares = phase_shares_exact(Scale::Quick, 5);
        assert!(
            shares.extraction > shares.selection,
            "extraction {} vs selection {}",
            shares.extraction,
            shares.selection
        );
        assert!(shares.extraction > 0.5);
    }

    #[test]
    fn large_k_increases_the_selection_share() {
        let small = phase_shares(Scale::Quick, 5);
        let large = phase_shares(Scale::Quick, 100);
        assert!(
            large.selection > small.selection,
            "selection share should grow with k ({} -> {})",
            small.selection,
            large.selection
        );
    }

    #[test]
    fn report_has_six_tables() {
        let report = run(Scale::Quick);
        assert_eq!(report.tables.len(), 6);
        for table in &report.tables {
            for (_, values) in &table.rows {
                assert!(values.iter().all(|v| v.is_finite() && *v >= 0.0));
            }
        }
        // The last table is the phase breakdown the `breakdown_phases`
        // binary prints.
        assert_eq!(
            report.tables.last().unwrap().title,
            "Phase breakdown (share of runtime)"
        );
    }

    #[test]
    fn workload_has_missing_target_at_current_time() {
        let w = build_workload(Scale::Quick, 1_500, 3);
        assert_eq!(w.window.currently_missing(), vec![SeriesId(0)]);
        assert_eq!(w.references.len(), 3);
        assert!(w.window.is_warm() || w.window.ticks_seen() > 0);
    }
}
