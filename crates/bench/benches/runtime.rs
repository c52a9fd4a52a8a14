//! Criterion benchmarks for Figure 17: the cost of a single TKCM imputation
//! as a function of the pattern length `l`, the number of reference series
//! `d`, the number of anchor points `k` and the window length `L`.
//!
//! Each parameter point is measured on both paths: `composed` runs the
//! engine default (signature-index pruning with a warm shortlist of
//! Section 6.2 sliding aggregates) and `exact` recomputes every candidate
//! pattern (`O(L·l·d)`, the paper's naive baseline whose pattern-extraction
//! phase dominates).  The `tick` group measures the per-tick upkeep the
//! composed path pays instead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use tkcm_core::{TkcmConfig, TkcmImputer};
use tkcm_eval::experiments::runtime::build_workload;
use tkcm_eval::experiments::Scale;

fn config_for(l: usize, d: usize, k: usize, window: usize) -> TkcmConfig {
    TkcmConfig::builder()
        .window_length(window.max((k + 1) * l))
        .pattern_length(l)
        .anchor_count(k)
        .reference_count(d)
        .build()
        .expect("valid config")
}

fn bench_imputation(
    c: &mut Criterion,
    group_name: &str,
    params: &[(usize, usize, usize, usize)], // (l, d, k, L)
) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(20);
    for &(l, d, k, window) in params {
        let workload = build_workload(Scale::Quick, window, d);
        let imputer = TkcmImputer::new(config_for(l, d, k, window)).expect("valid config");
        // Warm the shortlist with one imputation, as the engine's previous
        // imputations would have.
        let mut shortlist = workload.shortlist(l);
        workload.impute_composed(&imputer, &mut shortlist);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("composed_l{l}_d{d}_k{k}_L{window}")),
            &workload,
            |b, w| b.iter(|| w.impute_composed(&imputer, &mut shortlist)),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("exact_l{l}_d{d}_k{k}_L{window}")),
            &workload,
            |b, w| b.iter(|| w.impute_exact(&imputer)),
        );
    }
    group.finish();
}

fn fig17_pattern_length(c: &mut Criterion) {
    bench_imputation(
        c,
        "fig17_l",
        &[(12, 3, 5, 2000), (36, 3, 5, 2000), (72, 3, 5, 2000)],
    );
}

fn fig17_reference_count(c: &mut Criterion) {
    bench_imputation(
        c,
        "fig17_d",
        &[(36, 1, 5, 2000), (36, 2, 5, 2000), (36, 4, 5, 2000)],
    );
}

fn fig17_anchor_count(c: &mut Criterion) {
    bench_imputation(
        c,
        "fig17_k",
        &[(36, 3, 5, 2000), (36, 3, 50, 2000), (36, 3, 150, 2000)],
    );
}

fn fig17_window_length(c: &mut Criterion) {
    bench_imputation(
        c,
        "fig17_L",
        &[(36, 3, 5, 1000), (36, 3, 5, 2000), (36, 3, 5, 3000)],
    );
}

/// The per-tick upkeep the composed path pays instead of per-imputation
/// recomputes: one signature-index push plus one Section 6.2 slide of a warm
/// shortlist (O(entries·d)), measured in steady state — one pushed tick per
/// iteration, with the shortlist re-warmed by an imputation every `l` ticks
/// so its entries do not age out.
fn maintenance_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("sec6_2_tick");
    group.sample_size(20);
    for &(l, d, window) in &[(12usize, 3usize, 2000usize), (36, 3, 2000), (36, 3, 3000)] {
        let mut workload = build_workload(Scale::Quick, window, d);
        let imputer = TkcmImputer::new(config_for(l, d, 5, window)).expect("valid config");
        let mut shortlist = workload.shortlist(l);
        workload.impute_composed(&imputer, &mut shortlist);
        let width = workload.window.width();
        let mut t = workload
            .window
            .current_time()
            .expect("window has ticks")
            .tick();
        let mut since_warm = 0usize;
        group.bench_function(&format!("advance_l{l}_d{d}_L{window}"), |b| {
            b.iter(|| {
                t += 1;
                let values: Vec<Option<f64>> = (0..width)
                    .map(|s| Some((t + s as i64) as f64 * 0.01))
                    .collect();
                workload
                    .window
                    .push_tick(&tkcm_timeseries::StreamTick::new(
                        tkcm_timeseries::Timestamp::new(t),
                        values.clone(),
                    ))
                    .expect("push succeeds");
                workload.index.on_push(&values).expect("push succeeds");
                shortlist
                    .advance(&workload.window)
                    .expect("advance succeeds");
                since_warm += 1;
                if since_warm == l {
                    since_warm = 0;
                    workload.impute_composed(&imputer, &mut shortlist);
                }
                shortlist.maintained_lags()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    fig17_pattern_length,
    fig17_reference_count,
    fig17_anchor_count,
    fig17_window_length,
    maintenance_tick
);
criterion_main!(benches);
