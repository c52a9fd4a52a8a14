//! `sbr_paper`: one `TkcmEngine` at the paper's proportions.  The candidate
//! cascade and the DP do almost all the work; the runtime and store do none.
//!
//! The per-tick cost depends strongly on where in the stream a tick falls,
//! so a run replays one fixed stretch of ticks over and over, restoring the
//! engine from its post-set-up snapshot file before each pass: every pass,
//! and every run of a seed on every commit, does exactly the same work, and
//! each call's cost is its fastest repeat.

use std::time::Instant;

use tkcm_core::{EngineOutcome, TkcmConfig, TkcmEngine, WalEntry};
use tkcm_runtime::{DurabilityOptions, ShardedEngine};
use tkcm_store::{encode_to_vec, read_snapshot_file, write_snapshot_file};
use tkcm_timeseries::{SeriesId, StreamTick};

use crate::check::{imputed, Checker};
use crate::inputs::{self, SbrInput, SBR_SCORED, SBR_STATIONS, SBR_STRETCH, SBR_WINDOW};
use crate::layers::{self, CoreStats, RuntimeStats};
use crate::trace::Tracer;
use crate::util::{best, peak_rss_mb, rmse, Json, Repeats, Stamp};
use crate::{
    more_passes, pass_rates, setup_samples, trace_overhead, Figures, Metric, Opts, Run, Segment,
};

const PATTERN_LENGTH: usize = 72;
const ANCHORS: usize = 5;
const REFERENCES: usize = 3;
/// Set-ups before the measured phase (~8 ms each); one more precedes every
/// untraced pass, so the set-ups cover the whole run.
const SETUP_REPS: usize = 15;
/// Ticks of window fill timed as one set-up step.
const SETUP_STEP: usize = 1024;
/// Imputing ticks re-run through the exhaustive oracle, evenly spread over
/// the stretch (one oracle imputation costs ~7× a composed one).
const ORACLE_CHECKS: usize = 24;
/// Ticks the standalone and runtime probes replay.
const PROBE_TICKS: usize = 400;

/// The default configuration: only window, l, k and d are set.
fn config() -> TkcmConfig {
    TkcmConfig::builder()
        .window_length(SBR_WINDOW)
        .pattern_length(PATTERN_LENGTH)
        .anchor_count(ANCHORS)
        .reference_count(REFERENCES)
        .build()
        .expect("sbr_paper configuration is valid")
}

/// The exhaustive exact path the default path must match bit for bit.
fn oracle_config() -> TkcmConfig {
    TkcmConfig::builder()
        .window_length(SBR_WINDOW)
        .pattern_length(PATTERN_LENGTH)
        .anchor_count(ANCHORS)
        .reference_count(REFERENCES)
        .pruning(false)
        .incremental(false)
        .build()
        .expect("oracle configuration is valid")
}

fn filled(config: TkcmConfig, fill: &[StreamTick]) -> TkcmEngine {
    let mut engine =
        TkcmEngine::new(SBR_STATIONS, config, inputs::sbr_catalog()).expect("engine construction");
    for tick in fill {
        engine.process_tick(tick).expect("window fill");
    }
    engine
}

/// One set-up, timed step by step into `setup`: the engine built, then its
/// window filled `SETUP_STEP` ticks at a time.
fn timed_setup(fill: &[StreamTick], setup: &mut Repeats) {
    let mut engine = setup.time(0, 0, || {
        TkcmEngine::new(SBR_STATIONS, config(), inputs::sbr_catalog()).expect("engine construction")
    });
    for (i, step) in fill.chunks(SETUP_STEP).enumerate() {
        setup.time(i + 1, step.len(), || {
            for tick in step {
                engine.process_tick(tick).expect("window fill");
            }
        });
    }
    setup.end_pass();
}

/// One pass over the stretch, traced or not.  Returns the outcomes, or
/// `None` when a call failed.
fn pass(
    engine: &mut TkcmEngine,
    ticks: &[StreamTick],
    repeats: &mut Repeats,
    mut trace: Option<(&mut Tracer, usize, &mut CoreStats)>,
) -> Option<Vec<EngineOutcome>> {
    let mut outcomes = Vec::with_capacity(ticks.len());
    for (j, tick) in ticks.iter().enumerate() {
        let before = trace.is_some().then(|| layers::core_totals(engine));
        let start = Stamp::now();
        let result = engine.process_tick(tick);
        let end = Stamp::now();
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("sbr_paper: process_tick failed: {e}");
                return None;
            }
        };
        repeats.call(j, 1, end.since(&start));
        if let (Some((tracer, root, stats)), Some(before)) = (trace.as_mut(), before) {
            let span = tracer.record("core.process_tick", Some(*root), start.at, end.at);
            let (phases, _) = layers::core_totals(engine);
            let parts = [
                ("core.extraction", phases.extraction, before.0.extraction),
                ("core.selection", phases.selection, before.0.selection),
                ("core.aggregation", phases.imputation, before.0.imputation),
                ("core.maintenance", phases.maintenance, before.0.maintenance),
            ];
            for (name, now, then) in parts {
                tracer.part(name, span, now.saturating_sub(then));
            }
            stats.tick(engine, &before, &outcome, end.at - start.at);
        }
        outcomes.push(outcome);
    }
    repeats.end_pass();
    Some(outcomes)
}

pub fn run(opts: &Opts) -> Run {
    let input = inputs::sbr(opts.seed);
    let ticks: Vec<StreamTick> = (0..SBR_STRETCH).map(|j| input.measured(j)).collect();

    let mut setup = Repeats::default();
    for _ in 0..SETUP_REPS {
        timed_setup(&input.fill, &mut setup);
    }
    let engine = filled(config(), &input.fill);
    let base = encode_to_vec(&engine).expect("engine encodes");
    // Every pass starts from the post-set-up engine read back from its
    // snapshot file: that read is the restart cost `recover_s` measures.
    let snapshot_path = opts.scratch.sub("engine.snap");
    write_snapshot_file(&snapshot_path, &engine).expect("snapshot write");
    drop(engine);

    let mut tracer = Tracer::new(format!(
        "sbr_paper-seed{}-pid{}",
        opts.seed,
        std::process::id()
    ));
    let mut measure_root = None;
    let mut core_stats = CoreStats::default();
    // The first pass's outcomes are checked against the oracle; every
    // later pass must reproduce them exactly.
    let mut first: Option<Vec<EngineOutcome>> = None;
    let mut traced_outcomes = Vec::new();
    let mut segments = Vec::new();
    let mut recover = Vec::new();
    let mut engine = None;
    let mut passes = 0usize;
    let mut failed = 0u64;
    let mut errors = 0u64;
    for (traced, seconds) in opts.segments() {
        if traced {
            measure_root = Some(tracer.begin("bench.measure", None));
        }
        let mut repeats = Repeats::default();
        let wall0 = Instant::now();
        'passes: while more_passes(&repeats, wall0, seconds) {
            // The last pass's engine goes first, so peak memory holds one.
            engine = None;
            if !traced {
                timed_setup(&input.fill, &mut setup);
            }
            let start = Instant::now();
            let restored: TkcmEngine = read_snapshot_file(&snapshot_path).expect("snapshot read");
            let end = Instant::now();
            if let Some(root) = measure_root {
                tracer.record("store.read_snapshot", Some(root), start, end);
            } else {
                recover.push((end - start).as_secs_f64());
            }
            if passes == 0 && encode_to_vec(&restored).expect("engine encodes") != base {
                eprintln!("sbr_paper: the restored engine differs from the live one");
                failed += 1;
            }
            let engine = engine.insert(restored);
            let trace = measure_root.map(|root| (&mut tracer, root, &mut core_stats));
            let Some(outcomes) = pass(engine, &ticks, &mut repeats, trace) else {
                errors += 1;
                break 'passes;
            };
            passes += 1;
            match &first {
                None => first = Some(outcomes),
                Some(first) => {
                    failed += outcomes
                        .iter()
                        .zip(first)
                        .filter(|(a, b)| imputed(a) != imputed(b))
                        .count() as u64;
                    if traced {
                        traced_outcomes = outcomes;
                    }
                }
            }
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
    let outcomes = first.unwrap_or_default();

    // == output checks: the exhaustive oracle at evenly spread imputations ==
    let mut checker = Checker::new(opts.negative_control);
    let imputing: Vec<usize> = (0..outcomes.len())
        .filter(|&j| !outcomes[j].imputations.is_empty())
        .collect();
    let checks = ORACLE_CHECKS.min(imputing.len());
    let checked: Vec<usize> = (0..checks)
        .map(|i| imputing[i * (imputing.len() - 1) / (checks - 1).max(1)])
        .collect();
    let mut oracle = filled(oracle_config(), &input.fill);
    let mut next_check = checked.iter().peekable();
    for (j, outcome) in outcomes.iter().enumerate() {
        if next_check.peek() == Some(&&j) {
            next_check.next();
            let expected = oracle.process_tick(&ticks[j]).expect("oracle tick");
            if !checker.same(&imputed(&expected), &imputed(outcome)) {
                failed += 1;
            }
        } else {
            // Between checks the oracle follows the logged answers, so every
            // checked imputation starts from the history the engine had.
            oracle
                .apply_wal_entry(&WalEntry::from_outcome(&ticks[j], outcome))
                .expect("oracle replay");
        }
    }
    drop(oracle);

    let mut engine = engine.expect("at least one pass");

    let mut per_layer = Vec::new();
    let mut trace = None;
    if let Some(root) = measure_root {
        let probes = tracer.begin("bench.probes", None);
        per_layer.extend(core_stats.metrics());
        let probe_ticks = &ticks[..PROBE_TICKS];
        per_layer.extend(layers::ingest_probes(
            &mut tracer,
            probes,
            SBR_WINDOW,
            &inputs::sbr_catalog(),
            REFERENCES,
            &input.fill,
            probe_ticks,
        ));
        let entries: Vec<WalEntry> = ticks
            .iter()
            .zip(&traced_outcomes)
            .map(|(tick, outcome)| WalEntry::from_outcome(tick, outcome))
            .collect();
        per_layer.extend(layers::wal_probe(
            &mut tracer,
            probes,
            &opts.scratch.sub("probe.wal"),
            &entries[..entries.len().min(PROBE_TICKS)],
            1,
        ));
        let (replay, replayed) = layers::replay_probe(&mut tracer, probes, &base, &entries);
        per_layer.push(replay);
        if !same_window(&replayed, &engine) {
            eprintln!("sbr_paper: WAL replay diverged from the live engine");
            failed += 1;
        }
        let (runtime, runtime_ok) = runtime_probe(
            opts,
            &mut tracer,
            probes,
            &input.fill,
            probe_ticks,
            &outcomes,
        );
        per_layer.extend(runtime);
        if !runtime_ok {
            failed += 1;
        }
        tracer.end(probes);
        per_layer.push(trace_overhead(&segments));
        trace = Some((tracer, root));
    }

    // `rmse` scores the stretch and its untimed continuation.
    let mut scored_outcomes = outcomes.clone();
    if errors == 0 {
        for j in SBR_STRETCH..SBR_SCORED {
            scored_outcomes.push(
                engine
                    .process_tick(&input.measured(j))
                    .expect("continuation"),
            );
        }
    }
    let scored = scored(&input, &scored_outcomes);
    let end_to_end = crate::end_to_end(
        &setup,
        &segments[0].figures,
        best(&recover),
        rmse(&scored),
        peak_rss,
    );

    let calls = (passes * SBR_STRETCH) as u64;
    Run {
        attempted: calls + errors,
        failed: failed + errors,
        correct: failed + errors == 0 && checker.passed(),
        end_to_end,
        per_layer,
        info: vec![
            ("passes", Json::Int(passes as i64)),
            setup_samples(&setup),
            ("ticks_per_pass", Json::Int(SBR_STRETCH as i64)),
            (
                "imputations_per_pass",
                Json::Int(outcomes.iter().map(|o| o.imputations.len()).sum::<usize>() as i64),
            ),
            (
                "oracle_checked_imputations",
                Json::Int(checker.compared as i64),
            ),
            ("rmse_values", Json::Int(scored.len() as i64)),
            pass_rates(&segments),
        ],
        trace,
    }
}

/// `(imputed, true)` value pairs of one pass.
fn scored(input: &SbrInput, outcomes: &[EngineOutcome]) -> Vec<(f64, f64)> {
    outcomes
        .iter()
        .enumerate()
        .flat_map(|(j, outcome)| {
            outcome.imputations.iter().map(move |i| {
                let truth = input.truth[j].values[i.series.0 as usize];
                (i.value, truth.expect("truth ticks are complete"))
            })
        })
        .collect()
}

fn same_window(a: &TkcmEngine, b: &TkcmEngine) -> bool {
    a.ticks_processed() == b.ticks_processed()
        && a.imputations_performed() == b.imputations_performed()
        && (0..SBR_STATIONS).all(|s| {
            let id = SeriesId::from(s);
            a.window().series_chronological(id).ok() == b.window().series_chronological(id).ok()
        })
}

/// The runtime and store layers on this workload: a durable one-shard
/// fleet over the same stations (rotation off, checkpointed after the
/// fill) and a fresh single engine replay the first ticks of the stretch
/// one per call; the fleet is then dropped and recovered from checkpoint
/// plus WAL.
fn runtime_probe(
    opts: &Opts,
    tracer: &mut Tracer,
    parent: usize,
    fill: &[StreamTick],
    ticks: &[StreamTick],
    expected: &[EngineOutcome],
) -> (Vec<Metric>, bool) {
    let dir = opts.scratch.sub("probe-fleet");
    let options = DurabilityOptions {
        snapshot_interval: 0,
        ..DurabilityOptions::default()
    };
    let mut fleet = ShardedEngine::with_durability(
        SBR_STATIONS,
        config(),
        inputs::sbr_catalog(),
        1,
        &dir,
        options,
    )
    .expect("probe fleet");
    for chunk in fill.chunks(1024) {
        fleet.process_batch(chunk).expect("probe fleet fill");
    }
    let (checkpoint, _) = layers::timed(tracer, "runtime.checkpoint", parent, || {
        fleet.checkpoint(&dir).expect("probe checkpoint")
    });
    let mut ok = true;
    let mut stats = RuntimeStats::start(&fleet);
    for (j, tick) in ticks.iter().enumerate() {
        let start = Instant::now();
        let outcome = fleet.process_tick(tick).expect("probe fleet tick");
        stats.call(&fleet, 1, start.elapsed());
        ok &= imputed(&outcome) == imputed(&expected[j]);
    }
    let mut engine = filled(config(), fill);
    let start = Instant::now();
    for tick in ticks {
        engine.process_tick(tick).expect("probe engine tick");
    }
    let mut metrics = stats.metrics(start.elapsed().as_secs_f64() / ticks.len() as f64);
    metrics.push(Metric::new(
        "store.snapshot_bytes",
        "B",
        checkpoint.snapshot_bytes() as f64,
    ));
    metrics.push(Metric::new(
        "store.snapshot_write_s",
        "s",
        checkpoint.seconds,
    ));

    let expected_ticks = fleet.ticks_processed();
    drop(fleet);
    let start = Instant::now();
    let (recovered, recovery) = layers::recover(&dir).expect("probe recovery");
    tracer.record("runtime.recover", Some(parent), start, Instant::now());
    ok &= recovered.ticks_processed() == expected_ticks;
    drop(recovered);
    metrics.extend(layers::recovery_metrics(&[recovery]));
    metrics.push(layers::wal_read_probe(tracer, parent, &dir));
    (metrics, ok)
}
