//! Per-layer measurements: the engine's own counters over a traced segment,
//! the runtime's load accounting, and standalone probes that feed one
//! layer's public API the workload's ticks.

use std::path::Path;
use std::time::{Duration, Instant};

use tkcm_core::{EngineOutcome, PhaseBreakdown, PruneStats, SignatureIndex, TkcmEngine, WalEntry};
use tkcm_runtime::ShardedEngine;
use tkcm_store::{read_wal_records, WalWriter};
use tkcm_timeseries::{Catalog, StreamTick, StreamingWindow};

use crate::trace::Tracer;
use crate::util::{median, ratio, wal_files};
use crate::Metric;

/// An engine's cumulative phase timers and prune counters, read before a
/// call so the call's share can be taken.
pub type CoreTotals = (PhaseBreakdown, PruneStats);

pub fn core_totals(engine: &TkcmEngine) -> CoreTotals {
    (engine.phase_breakdown(), engine.prune_totals())
}

/// Core-layer totals of `TkcmEngine` calls, summed call by call.
#[derive(Default)]
pub struct CoreStats {
    ticks: usize,
    anchors: usize,
    shortlisted_lags: usize,
    observed: (Duration, usize),
    imputing: (Duration, usize),
    phases: PhaseBreakdown,
    prune: PruneStats,
}

impl CoreStats {
    /// Folds in one `process_tick` call: `before` was read just before it.
    pub fn tick(
        &mut self,
        engine: &TkcmEngine,
        before: &CoreTotals,
        outcome: &EngineOutcome,
        latency: Duration,
    ) {
        self.ticks += 1;
        self.shortlisted_lags += engine.shortlisted_lag_count();
        self.anchors += outcome
            .imputations
            .iter()
            .map(|i| i.detail.anchors.len())
            .sum::<usize>();
        let slot = if outcome.imputations.is_empty() {
            &mut self.observed
        } else {
            &mut self.imputing
        };
        slot.0 += latency;
        slot.1 += 1;
        let (phases, prune) = core_totals(engine);
        let p = &mut self.phases;
        p.extraction += phases.extraction.saturating_sub(before.0.extraction);
        p.selection += phases.selection.saturating_sub(before.0.selection);
        p.imputation += phases.imputation.saturating_sub(before.0.imputation);
        p.maintenance += phases.maintenance.saturating_sub(before.0.maintenance);
        p.imputations += phases.imputations.saturating_sub(before.0.imputations);
        self.prune += prune.saturating_delta(&before.1);
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let per_ktick = |d: Duration| ratio(d.as_secs_f64() * 1000.0, self.ticks as f64);
        let imputations = self.phases.imputations as f64;
        let per_imp = |n: usize| ratio(n as f64, imputations);
        let p = &self.prune;
        let level0 = p
            .pruned
            .saturating_sub(p.level1_skipped + p.maintained_pruned);
        vec![
            Metric::new(
                "core.extraction_s",
                "s/ktick",
                per_ktick(self.phases.extraction),
            ),
            Metric::new(
                "core.selection_s",
                "s/ktick",
                per_ktick(self.phases.selection),
            ),
            Metric::new(
                "core.aggregation_s",
                "s/ktick",
                per_ktick(self.phases.imputation),
            ),
            Metric::new(
                "core.maintenance_s",
                "s/ktick",
                per_ktick(self.phases.maintenance),
            ),
            Metric::new("core.exact_folds", "count/imp", per_imp(p.shortlisted)),
            Metric::new(
                "core.level1_skipped",
                "count/imp",
                per_imp(p.level1_skipped),
            ),
            Metric::new("core.level0_pruned", "count/imp", per_imp(level0)),
            Metric::new(
                "core.maintained_pruned",
                "count/imp",
                per_imp(p.maintained_pruned),
            ),
            Metric::new("core.candidates", "count/imp", per_imp(p.candidates)),
            Metric::new(
                "core.pruned_fraction",
                "ratio",
                ratio(p.pruned as f64, p.candidates as f64),
            ),
            Metric::new(
                "core.fold_yield",
                "ratio",
                ratio(self.anchors as f64, p.shortlisted as f64),
            ),
            Metric::new(
                "core.shortlisted_lags",
                "count",
                ratio(self.shortlisted_lags as f64, self.ticks as f64),
            ),
            Metric::new(
                "core.observed_tick_us",
                "us",
                ratio(self.observed.0.as_secs_f64() * 1e6, self.observed.1 as f64),
            ),
            Metric::new(
                "core.imputing_tick_ms",
                "ms",
                ratio(self.imputing.0.as_secs_f64() * 1e3, self.imputing.1 as f64),
            ),
        ]
    }
}

/// Runtime-layer totals of `ShardedEngine` calls, summed call by call, also
/// across fleets (each measured pass recovers a fleet of its own).
pub struct RuntimeStats {
    last_busy: f64,
    last_critical: f64,
    last_barrier: u64,
    ticks: usize,
    call_wall: f64,
    busy: f64,
    critical: f64,
    barrier: f64,
    shards: usize,
}

/// The runtime's histogram of time the fleet thread waits on worker replies.
fn barrier_wait() -> tkcm_obs::Histogram {
    tkcm_obs::registry().histogram("tkcm_runtime_barrier_wait_nanos", &[])
}

impl RuntimeStats {
    pub fn start(fleet: &ShardedEngine) -> RuntimeStats {
        let mut stats = RuntimeStats {
            last_busy: 0.0,
            last_critical: 0.0,
            last_barrier: 0,
            ticks: 0,
            call_wall: 0.0,
            busy: 0.0,
            critical: 0.0,
            barrier: 0.0,
            shards: fleet.shard_count(),
        };
        stats.rebase(fleet);
        stats
    }

    /// Takes the counters' current values as the base of the next call, so
    /// the next calls may come from another fleet.
    pub fn rebase(&mut self, fleet: &ShardedEngine) {
        let load = fleet.load_stats();
        self.last_busy = load.busy_seconds;
        self.last_critical = load.critical_path_seconds;
        self.last_barrier = barrier_wait().observed_sum();
    }

    /// Folds in one call; returns the call's barrier wait and critical path
    /// so the caller can attach them to the call's span.
    pub fn call(&mut self, fleet: &ShardedEngine, ticks: usize, wall: Duration) -> (f64, f64) {
        let load = fleet.load_stats();
        let barrier_now = barrier_wait().observed_sum();
        let barrier = barrier_now.saturating_sub(self.last_barrier) as f64 * 1e-9;
        let critical = load.critical_path_seconds - self.last_critical;
        self.busy += load.busy_seconds - self.last_busy;
        self.rebase(fleet);
        self.ticks += ticks;
        self.call_wall += wall.as_secs_f64();
        self.critical += critical;
        self.barrier += barrier;
        (barrier, critical)
    }

    /// `single_engine_s_per_tick`: a `TkcmEngine` replay of the same ticks.
    pub fn metrics(&self, single_engine_s_per_tick: f64) -> Vec<Metric> {
        let per_ktick = |s: f64| ratio(s * 1000.0, self.ticks as f64);
        vec![
            Metric::new("runtime.worker_busy_s", "s/ktick", per_ktick(self.busy)),
            Metric::new(
                "runtime.critical_path_s",
                "s/ktick",
                per_ktick(self.critical),
            ),
            Metric::new(
                "runtime.fleet_thread_s",
                "s/ktick",
                per_ktick(self.call_wall - self.barrier),
            ),
            Metric::new(
                "runtime.shard_skew",
                "ratio",
                ratio(self.critical, self.busy / self.shards as f64),
            ),
            Metric::new("runtime.barrier_wait_s", "s/ktick", per_ktick(self.barrier)),
            Metric::new(
                "runtime.overhead_vs_single_engine",
                "ratio",
                ratio(
                    ratio(self.call_wall, self.ticks as f64),
                    single_engine_s_per_tick,
                ),
            ),
        ]
    }
}

/// Times `f` as one span under `parent`.
pub fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: usize,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    let end = Instant::now();
    tracer.record(name, Some(parent), start, end);
    (value, (end - start).as_secs_f64())
}

/// Standalone probes of the window, signature-index and catalog layers: a
/// fresh instance is warmed with `warm` and then timed over `ticks`.
pub fn ingest_probes(
    tracer: &mut Tracer,
    parent: usize,
    window_length: usize,
    catalog: &Catalog,
    reference_count: usize,
    warm: &[StreamTick],
    ticks: &[StreamTick],
) -> Vec<Metric> {
    let width = ticks.first().map_or(0, |t| t.values.len());
    let per_tick_us = |s: f64| ratio(s * 1e6, ticks.len() as f64);

    let mut window = StreamingWindow::new(width, window_length);
    for tick in warm {
        window.push_tick(tick).expect("warm-up ticks are in order");
    }
    let (_, push) = timed(tracer, "timeseries.push_tick", parent, || {
        for tick in ticks {
            window.push_tick(tick).expect("probe ticks are in order");
        }
    });

    let mut index = SignatureIndex::new(width, window_length).expect("signature index");
    for tick in warm {
        index.on_push(&tick.values).expect("warm-up push");
    }
    let (_, signature) = timed(tracer, "core.signature_push", parent, || {
        for tick in ticks {
            index.on_push(&tick.values).expect("probe push");
        }
    });

    let mut selections = 0usize;
    let (_, select) = timed(tracer, "timeseries.select_references", parent, || {
        for tick in ticks {
            for target in tick.missing_series() {
                let selection = catalog
                    .select_references(target, reference_count, |cand| tick.value(cand).is_some());
                std::hint::black_box(selection);
                selections += 1;
            }
        }
    });
    let select_us = ratio(select * 1e6, selections as f64);

    vec![
        Metric::new("timeseries.push_tick_us", "us", per_tick_us(push)),
        Metric::new("core.signature_push_us", "us", per_tick_us(signature)),
        Metric::new("timeseries.select_references_us", "us", select_us),
    ]
}

/// Standalone WAL probe: the workload's ticks and write-backs appended with
/// `WalWriter::append_batch`, `batch` ticks per append as the workload's
/// calls group them.
pub fn wal_probe(
    tracer: &mut Tracer,
    parent: usize,
    path: &Path,
    entries: &[WalEntry],
    batch: usize,
) -> Vec<Metric> {
    let mut wal = WalWriter::create(path).expect("probe WAL");
    let mut bytes = 0u64;
    let (_, append) = timed(tracer, "store.wal_append", parent, || {
        for chunk in entries.chunks(batch.max(1)) {
            bytes += wal.append_batch(chunk).expect("probe append");
        }
    });
    drop(wal);
    let _ = std::fs::remove_file(path);
    let n = entries.len() as f64;
    vec![
        Metric::new("store.wal_bytes_per_tick", "B", ratio(bytes as f64, n)),
        Metric::new("store.wal_append_us", "us", ratio(append * 1e6, n)),
    ]
}

/// WAL replay through the core alone: `snapshot` (an encoded engine) is
/// decoded and `entries` applied with `TkcmEngine::apply_wal_entry`.
/// Returns the metric and the replayed engine.
pub fn replay_probe(
    tracer: &mut Tracer,
    parent: usize,
    snapshot: &[u8],
    entries: &[WalEntry],
) -> (Metric, TkcmEngine) {
    let mut engine: TkcmEngine =
        tkcm_store::decode_from_slice(snapshot).expect("probe snapshot decodes");
    let (_, replay) = timed(tracer, "core.apply_wal_entry", parent, || {
        for entry in entries {
            engine.apply_wal_entry(entry).expect("probe replay");
        }
    });
    let metric = Metric::new(
        "core.replay_us_per_tick",
        "us",
        ratio(replay * 1e6, entries.len() as f64),
    );
    (metric, engine)
}

/// One `ShardedEngine::recover` call, split with the `recovery_step` events
/// the runtime records into the flight recorder: `load` runs until the last
/// shard's snapshot and WAL are read, `replay` until the WAL is replayed.
pub struct Recovery {
    pub load: Duration,
    pub replay: Duration,
}

fn unix_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
}

pub fn recover(dir: &Path) -> Result<(ShardedEngine, Recovery), tkcm_timeseries::TsError> {
    let recorder = tkcm_obs::recorder();
    let after = recorder.events().last().map_or(0, |e| e.seq);
    let started_at = unix_micros();
    let start = Instant::now();
    let fleet = ShardedEngine::recover(dir)?;
    let total = start.elapsed();
    let events = recorder.events();
    let step = |stage: &str| {
        events
            .iter()
            .filter(|e| e.seq > after && e.kind == "recovery_step")
            .filter(|e| {
                e.fields.iter().any(|(key, value)| {
                    *key == "stage"
                        && matches!(value, tkcm_obs::FieldValue::Text(s) if s.as_str() == stage)
                })
            })
            .map(|e| e.unix_micros)
            .max()
    };
    let loaded = step("shard_loaded").unwrap_or(started_at);
    let replayed = step("replayed").unwrap_or(loaded);
    let micros = |us: u64| Duration::from_micros(us);
    let recovery = Recovery {
        load: micros(loaded.saturating_sub(started_at)).min(total),
        replay: micros(replayed.saturating_sub(loaded)).min(total),
    };
    Ok((fleet, recovery))
}

pub fn recovery_metrics(recoveries: &[Recovery]) -> Vec<Metric> {
    let secs = |f: fn(&Recovery) -> Duration| -> Vec<f64> {
        recoveries.iter().map(|r| f(r).as_secs_f64()).collect()
    };
    vec![
        Metric::new("runtime.recover_load_s", "s", median(&secs(|r| r.load))),
        Metric::new("runtime.recover_replay_s", "s", median(&secs(|r| r.replay))),
    ]
}

/// Reads every WAL record of a checkpoint directory.
pub fn wal_read_probe(tracer: &mut Tracer, parent: usize, dir: &Path) -> Metric {
    let (records, read) = timed(tracer, "store.wal_read", parent, || {
        wal_files(dir)
            .iter()
            .map(|p| read_wal_records(p).expect("WAL reads back").len())
            .sum::<usize>()
    });
    std::hint::black_box(records);
    Metric::new("store.wal_read_s", "s", read)
}
