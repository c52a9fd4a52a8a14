//! `fleet_ingest` and `fleet_recover`: a durable two-shard `ShardedEngine`
//! over a wide fleet of small clusters.  Imputation is rare, so runtime
//! fan-out/merge, WAL append and snapshot rotation dominate ingest, and the
//! store's read side and core's WAL replay dominate recovery.
//!
//! Both replay the same calls pass after pass: each pass recovers a copy of
//! one crashed directory (its own working copy, since the calls append to
//! the WAL) and repeats the calls on it, so every pass does the same work.

use std::path::Path;
use std::time::Instant;

use tkcm_core::{EngineOutcome, TkcmConfig, TkcmEngine, WalEntry};
use tkcm_runtime::{CheckpointStats, DurabilityOptions, ShardedEngine};
use tkcm_store::encode_to_vec;
use tkcm_timeseries::StreamTick;

use crate::check::{imputed, Checker, Imputed};
use crate::inputs::{self, FleetGen, FLEET_WIDTH, FLEET_WINDOW};
use crate::layers::{self, CoreStats, Recovery, RuntimeStats};
use crate::trace::Tracer;
use crate::util::{best, copy_dir, peak_rss_mb, ratio, rmse, Json, Repeats, Stamp};
use crate::{
    more_passes, pass_rates, setup_samples, trace_overhead, Figures, Metric, Opts, Run, Segment,
};

/// Shards = cores of the 2-core boxes this is tuned on; the caller blocks
/// at the barrier while the two workers run.
const SHARDS: usize = 2;
/// Ticks per `process_batch` call.
const BATCH: usize = 16;
/// `fleet_ingest`: calls per pass, enough for a p99 with ten calls beyond
/// it; 16 snapshot rotations.
const INGEST_CALLS: usize = 1024;
/// `fleet_ingest`: set-ups before the measured phase; one more precedes
/// every untraced pass, so the set-ups cover the whole run.
const INGEST_SETUP_REPS: usize = 6;
/// `fleet_recover`: a set-up (~0.45 s) precedes every this many untraced
/// passes (~0.3 s each).
const RECOVER_SETUP_EVERY: usize = 4;
/// Ticks the standalone probes replay.
const PROBE_TICKS: usize = 4096;
/// `fleet_recover`: ticks logged after the checkpoint (rotation off) —
/// four default rotation intervals without a checkpoint.
const STRETCH: usize = 4096;
/// `fleet_recover`: ticks with dense outages a recovered fleet processes
/// first, one `process_tick` each; they are compared with the uninterrupted
/// fleet's.
const NEXT_TICKS: usize = 64;

fn config() -> TkcmConfig {
    TkcmConfig::builder()
        .window_length(FLEET_WINDOW)
        .pattern_length(72)
        .anchor_count(5)
        .reference_count(3)
        .build()
        .expect("fleet configuration is valid")
}

fn durable(dir: &Path, options: DurabilityOptions) -> ShardedEngine {
    ShardedEngine::with_durability(
        FLEET_WIDTH,
        config(),
        inputs::fleet_catalog(),
        SHARDS,
        dir,
        options,
    )
    .expect("durable fleet construction")
}

fn imputed_all(outcomes: &[EngineOutcome]) -> Vec<Imputed> {
    outcomes.iter().flat_map(imputed).collect()
}

/// Imputed values scored against the generator's truth (ticks are 300 s
/// apart, starting at 0).
fn scored(gen: &FleetGen, values: &[Imputed]) -> Vec<(f64, f64)> {
    values
        .iter()
        .map(|(series, time, bits)| {
            let truth = gen.truth(*series as usize, (*time / 300) as usize);
            (f64::from_bits(*bits), truth)
        })
        .collect()
}

/// A single `TkcmEngine` over the whole fleet: the reference the fleet's
/// output must equal, and the core layer measured alone on the same ticks.
struct Reference {
    engine: TkcmEngine,
    wall: f64,
}

impl Reference {
    fn filled(fill: &[StreamTick]) -> Reference {
        let mut engine =
            TkcmEngine::new(FLEET_WIDTH, config(), inputs::fleet_catalog()).expect("engine");
        for tick in fill {
            engine.process_tick(tick).expect("reference fill");
        }
        Reference { engine, wall: 0.0 }
    }

    fn tick(&mut self, tick: &StreamTick, stats: Option<&mut CoreStats>) -> EngineOutcome {
        let before = layers::core_totals(&self.engine);
        let start = Instant::now();
        let outcome = self.engine.process_tick(tick).expect("reference tick");
        let latency = start.elapsed();
        self.wall += latency.as_secs_f64();
        if let Some(stats) = stats {
            stats.tick(&self.engine, &before, &outcome, latency);
        }
        outcome
    }
}

fn snapshot_metrics(stats: &CheckpointStats) -> Vec<Metric> {
    vec![
        Metric::new("store.snapshot_bytes", "B", stats.snapshot_bytes() as f64),
        Metric::new("store.snapshot_write_s", "s", stats.seconds),
    ]
}

/// A durable fleet built in `dir` and its window filled, each step (the
/// construction, then every fill batch) timed into `setup` from position 0.
/// Returns the fleet and the next position.
fn build_and_fill(
    dir: &Path,
    options: DurabilityOptions,
    fill: &[StreamTick],
    setup: &mut Repeats,
) -> (ShardedEngine, usize) {
    let _ = std::fs::remove_dir_all(dir);
    let mut fleet = setup.time(0, 0, || durable(dir, options));
    let mut position = 1;
    for chunk in fill.chunks(BATCH) {
        setup.time(position, chunk.len(), || {
            fleet.process_batch(chunk).expect("fill batch")
        });
        position += 1;
    }
    (fleet, position)
}

/// `fleet_ingest`'s set-up, timed into `setup`: a durable fleet built in
/// `dir` and its window filled.
fn filled_fleet(dir: &Path, fill: &[StreamTick], setup: &mut Repeats) -> ShardedEngine {
    let (fleet, _) = build_and_fill(dir, DurabilityOptions::default(), fill, setup);
    setup.end_pass();
    fleet
}

/// `fleet_recover`'s set-up, timed into `setup`: a fleet built, filled and
/// checkpointed in `dir`, then fed `stretch` with snapshot rotation off, so
/// the stretch stays in the WAL.  Returns the fleet (dropping it is the
/// crash), the checkpoint's figures and the runtime's figures over the
/// stretch when `traced`.
fn logged_fleet(
    dir: &Path,
    fill: &[StreamTick],
    stretch: &[StreamTick],
    traced: bool,
    setup: &mut Repeats,
) -> (ShardedEngine, CheckpointStats, Option<RuntimeStats>) {
    let rotation_off = DurabilityOptions {
        snapshot_interval: 0,
        ..DurabilityOptions::default()
    };
    let (mut fleet, mut position) = build_and_fill(dir, rotation_off, fill, setup);
    let checkpoint = setup.time(position, 0, || fleet.checkpoint(dir).expect("checkpoint"));
    let mut stats = traced.then(|| RuntimeStats::start(&fleet));
    for chunk in stretch.chunks(BATCH) {
        position += 1;
        let call = Instant::now();
        setup.time(position, chunk.len(), || {
            fleet.process_batch(chunk).expect("stretch batch")
        });
        if let Some(stats) = stats.as_mut() {
            stats.call(&fleet, chunk.len(), call.elapsed());
        }
    }
    setup.end_pass();
    (fleet, checkpoint, stats)
}

/// Recovers a working copy of `image`, recording the copy and the recovery
/// as spans when traced.  Returns the fleet, the recovery's split and its
/// `(wall, cpu)` seconds.
fn recover_copy(
    image: &Path,
    work: &Path,
    trace: Option<(&mut Tracer, usize)>,
) -> Result<(ShardedEngine, Recovery, (f64, f64)), tkcm_timeseries::TsError> {
    let copied = Instant::now();
    copy_dir(image, work).expect("working copy");
    let start = Stamp::now();
    let result = layers::recover(work);
    let end = Stamp::now();
    let (fleet, recovery) = result?;
    if let Some((tracer, root)) = trace {
        tracer.record("bench.copy", Some(root), copied, start.at);
        let span = tracer.record("runtime.recover", Some(root), start.at, end.at);
        tracer.part("runtime.recover_load", span, recovery.load);
        tracer.part("runtime.recover_replay", span, recovery.replay);
    }
    Ok((fleet, recovery, end.since(&start)))
}

pub fn ingest(opts: &Opts) -> Run {
    let gen = FleetGen::new(opts.seed);
    let fill: Vec<StreamTick> = (0..FLEET_WINDOW).map(|t| gen.tick(t)).collect();
    // Call `i` of a pass, generated on demand so the inputs do not dominate
    // the run's memory.
    let batch = |call: usize| -> Vec<StreamTick> {
        let first = FLEET_WINDOW + call * BATCH;
        (first..first + BATCH).map(|t| gen.tick(t)).collect()
    };

    // Set-up, repeated.  The last one is crashed (dropped without a
    // checkpoint); its directory — a rotated snapshot plus the WAL since —
    // is what every pass recovers.
    let image = opts.scratch.sub("crashed");
    let setup_dir = opts.scratch.sub("setup");
    let mut setup = Repeats::default();
    for _ in 1..INGEST_SETUP_REPS {
        drop(filled_fleet(&setup_dir, &fill, &mut setup));
    }
    let fleet = filled_fleet(&image, &fill, &mut setup);
    let crash_point = (fleet.ticks_processed(), fleet.imputations_performed());
    drop(fleet);

    // Expected output: a single engine over the whole fleet, same ticks.
    let mut reference = Reference::filled(&fill);
    let reference_snapshot = if opts.trace {
        encode_to_vec(&reference.engine).expect("engine encodes")
    } else {
        Vec::new()
    };
    let mut core_stats = opts.trace.then(CoreStats::default);
    let mut probe_entries = Vec::new();
    let mut expected: Vec<Vec<Imputed>> = Vec::with_capacity(INGEST_CALLS);
    for call in 0..INGEST_CALLS {
        let mut values = Vec::new();
        for tick in batch(call) {
            let outcome = reference.tick(&tick, core_stats.as_mut());
            values.extend(imputed(&outcome));
            if opts.trace && probe_entries.len() < PROBE_TICKS {
                probe_entries.push(WalEntry::from_outcome(&tick, &outcome));
            }
        }
        expected.push(values);
    }
    // Only its time is needed from here on; peak memory holds the fleet.
    let reference_wall = reference.wall;
    drop(reference);

    let mut tracer = Tracer::new(format!(
        "fleet_ingest-seed{}-pid{}",
        opts.seed,
        std::process::id()
    ));
    let work = opts.scratch.sub("recovering");
    let mut checker = Checker::new(opts.negative_control);
    let mut measure_root = None;
    let mut runtime_stats: Option<RuntimeStats> = None;
    let mut recoveries = Vec::new();
    let mut recover_walls = Vec::new();
    let mut first_pass: Vec<Imputed> = Vec::new();
    let mut segments = Vec::new();
    let mut calls = 0u64;
    let mut failed = 0u64;
    let mut errors = 0u64;
    for (traced, seconds) in opts.segments() {
        if traced {
            measure_root = Some(tracer.begin("bench.measure", None));
        }
        let mut repeats = Repeats::default();
        let wall0 = Instant::now();
        'passes: while more_passes(&repeats, wall0, seconds) {
            if !traced {
                drop(filled_fleet(&setup_dir, &fill, &mut setup));
            }
            let trace = measure_root.map(|root| (&mut tracer, root));
            let (mut fleet, recovery, (wall, _)) = match recover_copy(&image, &work, trace) {
                Ok(recovered) => recovered,
                Err(e) => {
                    eprintln!("fleet_ingest: recover failed: {e}");
                    errors += 1;
                    break 'passes;
                }
            };
            if !traced {
                recover_walls.push(wall);
            }
            recoveries.push(recovery);
            if (fleet.ticks_processed(), fleet.imputations_performed()) != crash_point {
                eprintln!("fleet_ingest: recovered counts differ from the crashed fleet");
                failed += 1;
            }
            if traced {
                match runtime_stats.as_mut() {
                    Some(stats) => stats.rebase(&fleet),
                    None => runtime_stats = Some(RuntimeStats::start(&fleet)),
                }
            }
            for (position, want) in expected.iter().enumerate() {
                let ticks = batch(position);
                let start = Stamp::now();
                let result = fleet.process_batch(&ticks);
                let end = Stamp::now();
                calls += 1;
                let outcomes = match result {
                    Ok(outcomes) => outcomes,
                    Err(e) => {
                        eprintln!("fleet_ingest: process_batch failed: {e}");
                        errors += 1;
                        break 'passes;
                    }
                };
                repeats.call(position, BATCH, end.since(&start));
                if let (Some(root), Some(stats)) = (measure_root, runtime_stats.as_mut()) {
                    let span = tracer.record("runtime.process_batch", Some(root), start.at, end.at);
                    let (barrier, critical) = stats.call(&fleet, BATCH, end.at - start.at);
                    let barrier = barrier.max(0.0);
                    let wait = tracer.part(
                        "runtime.barrier_wait",
                        span,
                        std::time::Duration::from_secs_f64(barrier),
                    );
                    tracer.part(
                        "runtime.critical_path",
                        wait,
                        std::time::Duration::from_secs_f64(critical.clamp(0.0, barrier)),
                    );
                }
                let actual = imputed_all(&outcomes);
                if !checker.same(want, &actual) {
                    failed += 1;
                }
                if segments.is_empty() && repeats.passes() == 0 {
                    first_pass.extend(actual);
                }
            }
            repeats.end_pass();
        }
        segments.push(Segment {
            traced,
            figures: Figures::of(&repeats),
        });
        if let Some(root) = measure_root {
            tracer.end(root);
        }
        if errors > 0 {
            break;
        }
    }
    let peak_rss = peak_rss_mb();

    let scored = scored(&gen, &first_pass);
    let end_to_end = crate::end_to_end(
        &setup,
        &segments[0].figures,
        best(&recover_walls),
        rmse(&scored),
        peak_rss,
    );

    let mut per_layer = Vec::new();
    let mut trace = None;
    if let (Some(root), Some(core), Some(runtime)) = (measure_root, core_stats, runtime_stats) {
        let probes = tracer.begin("bench.probes", None);
        per_layer.extend(core.metrics());
        per_layer.extend(runtime.metrics(reference_wall / (INGEST_CALLS * BATCH) as f64));
        let probe_ticks: Vec<StreamTick> = (FLEET_WINDOW..FLEET_WINDOW + PROBE_TICKS)
            .map(|t| gen.tick(t))
            .collect();
        per_layer.extend(layers::ingest_probes(
            &mut tracer,
            probes,
            FLEET_WINDOW,
            &inputs::fleet_catalog(),
            3,
            &fill,
            &probe_ticks,
        ));
        per_layer.extend(layers::wal_probe(
            &mut tracer,
            probes,
            &opts.scratch.sub("probe.wal"),
            &probe_entries,
            BATCH,
        ));
        let (replay, replayed) =
            layers::replay_probe(&mut tracer, probes, &reference_snapshot, &probe_entries);
        per_layer.push(replay);
        if replayed.ticks_processed() != FLEET_WINDOW + probe_entries.len() {
            eprintln!("fleet_ingest: WAL replay reached the wrong tick");
            failed += 1;
        }
        // The snapshot cost of one checkpoint of the recovered fleet into a
        // side directory.
        let (mut fleet, _, _) = recover_copy(&image, &work, None).expect("recovery");
        let checkpoint = fleet
            .checkpoint(&opts.scratch.sub("fleet-checkpoint"))
            .expect("side checkpoint");
        drop(fleet);
        per_layer.extend(snapshot_metrics(&checkpoint));
        per_layer.extend(layers::recovery_metrics(&recoveries));
        per_layer.push(layers::wal_read_probe(&mut tracer, probes, &image));
        tracer.end(probes);
        per_layer.push(trace_overhead(&segments));
        trace = Some((tracer, root));
    }

    Run {
        attempted: calls,
        failed: failed + errors,
        correct: failed + errors == 0 && checker.passed(),
        end_to_end,
        per_layer,
        info: vec![
            ("calls_per_pass", Json::Int(INGEST_CALLS as i64)),
            ("recovered_ticks", Json::Int(crash_point.0 as i64)),
            ("imputations_per_pass", Json::Int(first_pass.len() as i64)),
            ("checked_imputations", Json::Int(checker.compared as i64)),
            ("rmse_values", Json::Int(scored.len() as i64)),
            setup_samples(&setup),
            pass_rates(&segments),
        ],
        trace,
    }
}

pub fn recover(opts: &Opts) -> Run {
    let gen = FleetGen::new(opts.seed);
    let fill: Vec<StreamTick> = (0..FLEET_WINDOW).map(|t| gen.tick(t)).collect();
    let stretch: Vec<StreamTick> = (FLEET_WINDOW..FLEET_WINDOW + STRETCH)
        .map(|t| gen.tick(t))
        .collect();
    let next: Vec<StreamTick> = (FLEET_WINDOW + STRETCH..FLEET_WINDOW + STRETCH + NEXT_TICKS)
        .map(|t| gen.dense_tick(t))
        .collect();
    let live = opts.scratch.sub("live");
    let image = opts.scratch.sub("crashed");
    let setup_dir = opts.scratch.sub("setup");

    // Set-up: build, fill, checkpoint, log the stretch, crash.  The crash
    // image is copied first, so this fleet can go on to record what the
    // uninterrupted fleet does next, one tick per call.  More set-ups
    // follow between passes.
    let mut setup = Repeats::default();
    let (mut fleet, checkpoint, runtime_stats) =
        logged_fleet(&live, &fill, &stretch, opts.trace, &mut setup);
    let crash_point = (fleet.ticks_processed(), fleet.imputations_performed());
    copy_dir(&live, &image).expect("crash image copy");
    let expected: Vec<Vec<Imputed>> = next
        .iter()
        .map(|tick| imputed(&fleet.process_tick(tick).expect("next tick")))
        .collect();
    drop(fleet);
    let _ = std::fs::remove_dir_all(&live);

    // Measured: each pass recovers a copy of the crashed directory, then
    // processes the next ticks.
    let mut tracer = Tracer::new(format!(
        "fleet_recover-seed{}-pid{}",
        opts.seed,
        std::process::id()
    ));
    let work = opts.scratch.sub("recovering");
    let mut checker = Checker::new(opts.negative_control);
    let mut measure_root = None;
    let mut recoveries = Vec::new();
    let mut segments = Vec::new();
    let mut recover_s = 0.0;
    let mut calls = 0u64;
    let mut failed = 0u64;
    let mut errors = 0u64;
    let mut first_pass: Vec<Imputed> = Vec::new();
    for (traced, seconds) in opts.segments() {
        if traced {
            measure_root = Some(tracer.begin("bench.measure", None));
        }
        let mut repeats = Repeats::default();
        let mut walls = Vec::new();
        let mut cpus = Vec::new();
        let wall0 = Instant::now();
        'passes: while more_passes(&repeats, wall0, seconds) {
            if !traced && repeats.passes() % RECOVER_SETUP_EVERY == RECOVER_SETUP_EVERY - 1 {
                let (fleet, _, _) = logged_fleet(&setup_dir, &fill, &stretch, false, &mut setup);
                drop(fleet);
            }
            let trace = measure_root.map(|root| (&mut tracer, root));
            calls += 1;
            let (mut fleet, recovery, (wall, cpu)) = match recover_copy(&image, &work, trace) {
                Ok(recovered) => recovered,
                Err(e) => {
                    eprintln!("fleet_recover: recover failed: {e}");
                    errors += 1;
                    break 'passes;
                }
            };
            walls.push(wall);
            cpus.push(cpu);
            recoveries.push(recovery);
            if (fleet.ticks_processed(), fleet.imputations_performed()) != crash_point {
                eprintln!("fleet_recover: recovered counts differ from the crash point");
                failed += 1;
            }
            for (position, (tick, want)) in next.iter().zip(&expected).enumerate() {
                let start = Stamp::now();
                let result = fleet.process_tick(tick);
                let end = Stamp::now();
                calls += 1;
                let outcome = match result {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        eprintln!("fleet_recover: process_tick failed: {e}");
                        errors += 1;
                        break 'passes;
                    }
                };
                repeats.call(position, 1, end.since(&start));
                if let Some(root) = measure_root {
                    tracer.record("runtime.process_tick", Some(root), start.at, end.at);
                }
                let actual = imputed(&outcome);
                if !checker.same(want, &actual) {
                    failed += 1;
                }
                if segments.is_empty() && repeats.passes() == 0 {
                    first_pass.extend(actual);
                }
            }
            repeats.end_pass();
        }
        // Throughput and CPU cost are recovery's: WAL-replayed ticks per
        // second of the fastest recovery.  Latencies are the next ticks'.
        let (p50, p99) = repeats.latency_quantiles();
        if !traced {
            recover_s = best(&walls);
        }
        segments.push(Segment {
            traced,
            figures: Figures {
                ticks_per_s: ratio(STRETCH as f64, best(&walls)),
                cpu_us_per_tick: ratio(best(&cpus) * 1e6, STRETCH as f64),
                p50_ms: p50 * 1e3,
                p99_ms: p99 * 1e3,
                pass_rates: walls.iter().map(|w| ratio(STRETCH as f64, *w)).collect(),
            },
        });
        if let Some(root) = measure_root {
            tracer.end(root);
        }
        if errors > 0 {
            break;
        }
    }
    let peak_rss = peak_rss_mb();
    let scored = scored(&gen, &first_pass);
    let end_to_end = crate::end_to_end(
        &setup,
        &segments[0].figures,
        recover_s,
        rmse(&scored),
        peak_rss,
    );

    let mut per_layer = Vec::new();
    let mut trace = None;
    if let (Some(root), Some(runtime)) = (measure_root, runtime_stats) {
        let probes = tracer.begin("bench.probes", None);
        // The core alone on the logged stretch: a single engine processes
        // it live, then replays it from the post-fill snapshot.
        let mut reference = Reference::filled(&fill);
        let snapshot = encode_to_vec(&reference.engine).expect("engine encodes");
        let mut core = CoreStats::default();
        let entries: Vec<WalEntry> = stretch
            .iter()
            .map(|tick| {
                let outcome = reference.tick(tick, Some(&mut core));
                WalEntry::from_outcome(tick, &outcome)
            })
            .collect();
        per_layer.extend(core.metrics());
        per_layer.extend(runtime.metrics(reference.wall / STRETCH as f64));
        per_layer.extend(layers::ingest_probes(
            &mut tracer,
            probes,
            FLEET_WINDOW,
            &inputs::fleet_catalog(),
            3,
            &fill,
            &stretch,
        ));
        per_layer.extend(layers::wal_probe(
            &mut tracer,
            probes,
            &opts.scratch.sub("probe.wal"),
            &entries,
            BATCH,
        ));
        let (replay, replayed) = layers::replay_probe(&mut tracer, probes, &snapshot, &entries);
        per_layer.push(replay);
        if replayed.ticks_processed() != reference.engine.ticks_processed()
            || replayed.imputations_performed() != reference.engine.imputations_performed()
        {
            eprintln!("fleet_recover: WAL replay diverged from the live engine");
            failed += 1;
        }
        per_layer.extend(snapshot_metrics(&checkpoint));
        per_layer.extend(layers::recovery_metrics(&recoveries));
        per_layer.push(layers::wal_read_probe(&mut tracer, probes, &image));
        tracer.end(probes);
        per_layer.push(trace_overhead(&segments));
        trace = Some((tracer, root));
    }

    Run {
        attempted: calls,
        failed: failed + errors,
        correct: failed + errors == 0 && checker.passed(),
        end_to_end,
        per_layer,
        info: vec![
            ("passes", Json::Int(recoveries.len() as i64)),
            ("replayed_ticks_per_recovery", Json::Int(STRETCH as i64)),
            ("checked_imputations", Json::Int(checker.compared as i64)),
            ("rmse_values", Json::Int(scored.len() as i64)),
            setup_samples(&setup),
            pass_rates(&segments),
        ],
        trace,
    }
}
