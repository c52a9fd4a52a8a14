//! Criterion benchmark for the composed candidate path: the same punctured
//! periodic stream replayed through one engine per candidate path — the
//! exhaustive recompute oracle and the default composed path (lag-memory
//! seeding + best-first search over signature bounds).
//!
//! Each iteration replays the full stream through a fresh engine, so the
//! numbers are whole-pipeline (construction and per-tick index upkeep
//! included — the composed path has to win *net of*
//! its `on_push`/`on_write` bookkeeping, not just per imputation).  Quick-mode compatible with the
//! vendored criterion stub (`cargo bench --bench candidate_pruning --
//! --quick` runs each case once).

use criterion::{criterion_group, criterion_main, Criterion};

use tkcm_core::{TkcmConfig, TkcmEngine};
use tkcm_datasets::SbrConfig;
use tkcm_timeseries::{Catalog, StreamSource, StreamTick};

/// A small-but-real workload in the block-spanning regime (l = 24 > one
/// 16-tick signature block) with rotating outages, mirroring the
/// `candidate_pruning` experiment's puncturing.
fn workload() -> (usize, Vec<StreamTick>) {
    let dataset = SbrConfig {
        stations: 4,
        days: 3,
        seed: 99,
        ..SbrConfig::default()
    }
    .generate();
    let width = dataset.width();
    let mut ticks: Vec<StreamTick> = dataset.to_stream().ticks().collect();
    let start_at = ticks.len() / 4;
    for (t, tick) in ticks.iter_mut().enumerate().skip(start_at) {
        if t % 40 < 4 {
            tick.values[(t / 40) % width] = None;
        }
    }
    (width, ticks)
}

fn config(len: usize, pruning: bool) -> TkcmConfig {
    TkcmConfig::builder()
        .window_length(len.max(150))
        .pattern_length(24)
        .anchor_count(5)
        .reference_count(3)
        .pruning(pruning)
        .build()
        .expect("valid config")
}

fn bench_pruning(c: &mut Criterion) {
    let (width, ticks) = workload();
    let len = ticks.len();
    let mut group = c.benchmark_group("candidate_pruning");
    group.sample_size(10);

    for (name, pruning) in [("exhaustive", false), ("composed", true)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut engine =
                    TkcmEngine::new(width, config(len, pruning), Catalog::ring_neighbours(width))
                        .unwrap();
                for tick in &ticks {
                    engine.process_tick(tick).unwrap();
                }
                engine.imputations_performed()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pruning);
criterion_main!(benches);
