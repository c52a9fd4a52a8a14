//! Criterion benchmarks for Figure 17: the cost of a single TKCM imputation
//! as a function of the pattern length `l`, the number of reference series
//! `d`, the number of anchor points `k` and the window length `L`.
//!
//! Each parameter point is measured on both paths: `composed` runs the
//! engine default (one best-first search over signature-index bounds) and
//! `exact` recomputes every candidate pattern (`O(L·l·d)`, the paper's
//! naive baseline whose pattern-extraction phase dominates).

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
        let mut imputer = TkcmImputer::new(config_for(l, d, k, window)).expect("valid config");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("composed_l{l}_d{d}_k{k}_L{window}")),
            &workload,
            |b, w| b.iter(|| w.impute_composed(&mut imputer)),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("exact_l{l}_d{d}_k{k}_L{window}")),
            &workload,
            |b, w| b.iter(|| w.impute_exact(&mut imputer)),
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

criterion_group!(
    benches,
    fig17_pattern_length,
    fig17_reference_count,
    fig17_anchor_count,
    fig17_window_length
);
criterion_main!(benches);
