//! End-to-end and per-layer benchmark of the default TKCM path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sbr_paper|fleet_ingest|fleet_recover> --seed <n> \
//!     --seconds <s> --trace <0|1> [--negative-control]
//! ```
//!
//! Every workload runs the default configuration (`TkcmConfig` with only
//! window, l, k and d set, so pruning and shortlist maintenance are both on)
//! as a closed loop: one caller thread, no think time, the next call issued
//! when the previous one returns — a backlog replay.  Inputs are generated
//! from `--seed`; the program only receives the generated ticks.
//!
//! * `sbr_paper` — one `TkcmEngine`, 10 SBR-like stations, the paper's
//!   34 560-tick window, l = 72, k = 5, d = 3; one `process_tick` per call.
//! * `fleet_ingest` — a durable 2-shard `ShardedEngine` over 24 clusters × 6
//!   series with a one-week window and rare outages, 16-tick
//!   `process_batch` calls, default 1 024-tick snapshot rotation.
//! * `fleet_recover` — the same fleet checkpointed, fed 4 096 ticks with
//!   rotation off and dropped; `ShardedEngine::recover` of that directory,
//!   then 64 `process_tick` calls.
//!
//! Each workload repeats the same calls on the same state, pass after pass,
//! and takes each call's cost as its fastest repeat: other tenants of a
//! shared machine only ever add time (see `util::Repeats`).
//!
//! With `--trace 0` the last line of standard output is the end-to-end
//! result; with `--trace 1` the measured phase runs half untraced, half
//! traced, and the last line carries the per-layer metrics.  Spans are
//! recorded by the benchmark around its own calls into each layer.  A
//! results file (and, traced, a spans file) lands in `.bench_out/results/`.
//! `--negative-control` perturbs one expected value: the run must then
//! report `"correct": false` and exit with a non-zero code.

mod check;
mod fleet;
mod inputs;
mod layers;
mod sbr;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use trace::Tracer;
use util::{Json, RunDir};

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub negative_control: bool,
    /// Per-run scratch space (checkpoint directories, probe files).
    pub scratch: RunDir,
}

impl Opts {
    /// Lengths of the measured segments: the whole run untraced, or half
    /// untraced and half traced (the difference is the tracing overhead).
    pub fn segments(&self) -> Vec<(bool, f64)> {
        if self.trace {
            vec![(false, self.seconds / 2.0), (true, self.seconds / 2.0)]
        } else {
            vec![(false, self.seconds)]
        }
    }
}

/// Whether a segment of `seconds` starts another pass: always at least one,
/// then as long as the next pass, as long as the last, would end nearer the
/// budget than the last one did.
pub fn more_passes(repeats: &util::Repeats, start: std::time::Instant, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    let passes = repeats.passes();
    passes == 0 || elapsed + 0.5 * elapsed / (passes as f64) < seconds
}

/// A measured segment: the whole run untraced, or one half of a traced run.
pub struct Segment {
    pub traced: bool,
    pub figures: Figures,
}

/// Throughput, CPU cost and call latency of one segment.
pub struct Figures {
    pub ticks_per_s: f64,
    pub cpu_us_per_tick: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Throughput of each whole pass, for the results file.
    pub pass_rates: Vec<f64>,
}

impl Figures {
    /// The figures of repeated passes over the same calls.
    pub fn of(repeats: &util::Repeats) -> Figures {
        let (p50, p99) = repeats.latency_quantiles();
        Figures {
            ticks_per_s: repeats.ticks_per_s(),
            cpu_us_per_tick: repeats.cpu_us_per_tick(),
            p50_ms: p50 * 1e3,
            p99_ms: p99 * 1e3,
            pass_rates: repeats.pass_rates(),
        }
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(
    setup: &util::Repeats,
    figures: &Figures,
    recover_s: f64,
    rmse: f64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", "s", setup.best_seconds()),
        Metric::new("ticks_per_s", "1/s", figures.ticks_per_s),
        Metric::new("cpu_us_per_tick", "us", figures.cpu_us_per_tick),
        Metric::new("call_p50_ms", "ms", figures.p50_ms),
        Metric::new("call_p99_ms", "ms", figures.p99_ms),
        Metric::new("recover_s", "s", recover_s),
        Metric::new("rmse", "1", rmse),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb),
    ]
}

/// Per-pass throughput of every segment, for the results file.
pub fn pass_rates(segments: &[Segment]) -> (&'static str, Json) {
    let rates = segments
        .iter()
        .map(|s| Json::Arr(s.figures.pass_rates.iter().map(|r| Json::Num(*r)).collect()))
        .collect();
    ("pass_ticks_per_s", Json::Arr(rates))
}

/// The wall time of every whole set-up of the run, for the results file.
pub fn setup_samples(setup: &util::Repeats) -> (&'static str, Json) {
    let samples = setup.pass_seconds().iter().map(|s| Json::Num(*s)).collect();
    ("setup_s_samples", Json::Arr(samples))
}

/// `trace.overhead`: traced over untraced throughput.
pub fn trace_overhead(segments: &[Segment]) -> Metric {
    let rate = |traced: bool| {
        segments
            .iter()
            .find(|s| s.traced == traced)
            .map_or(0.0, |s| s.figures.ticks_per_s)
    };
    Metric::new(
        "trace.overhead",
        "ratio",
        util::ratio(rate(true), rate(false)),
    )
}

/// What one workload run produced.
pub struct Run {
    /// Measured calls.
    pub attempted: u64,
    /// Calls that returned an error or whose output check failed, plus
    /// failed auxiliary checks.
    pub failed: u64,
    pub correct: bool,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Sample counts and other context for the results file.
    pub info: Vec<(&'static str, Json)>,
    /// The tracer and the span covering the traced measured segment.
    pub trace: Option<(Tracer, usize)>,
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn usage(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!(
        "usage: --workload <sbr_paper|fleet_ingest|fleet_recover> --seed <n> --seconds <s> \
         --trace <0|1> [--negative-control]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut negative_control = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_default();
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse::<u64>().ok(),
            "--seconds" => seconds = value().parse::<f64>().ok(),
            "--trace" => trace = Some(value() == "1"),
            "--negative-control" => negative_control = true,
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return usage("--seconds must be in (0, 600]");
    }
    let run_fn: fn(&Opts) -> Run = match workload.as_str() {
        "sbr_paper" => sbr::run,
        "fleet_ingest" => fleet::ingest,
        "fleet_recover" => fleet::recover,
        other => return usage(&format!("unknown workload {other}")),
    };

    let out = PathBuf::from(".bench_out");
    let results = out.join("results");
    let scratch = match std::fs::create_dir_all(&results)
        .and_then(|_| RunDir::create(&out, &format!("run-{workload}-{}", std::process::id())))
    {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("error: cannot create {}: {e}", out.display());
            return ExitCode::from(2);
        }
    };
    let environment = util::environment(&scratch.path, seed);
    let opts = Opts {
        seed,
        seconds,
        trace,
        negative_control,
        scratch,
    };

    let mut run = run_fn(&opts);
    let tag = format!(
        "{workload}-seed{seed}-trace{}{}",
        u8::from(trace),
        if negative_control { "-negative" } else { "" }
    );
    let mut extra = Vec::new();
    if let Some((tracer, root)) = &run.trace {
        let (table, coverage) = tracer.self_times(*root);
        run.per_layer
            .push(Metric::new("trace.coverage", "ratio", coverage));
        extra.push(("self_times", table));
        let spans = Json::obj(vec![
            ("workload", Json::str(workload.clone())),
            ("spans", tracer.spans_json()),
        ]);
        let path = results.join(format!("{tag}-spans.json"));
        if let Err(e) = std::fs::write(&path, spans.render()) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }

    for (title, metrics) in [
        ("end to end", &run.end_to_end),
        ("per layer", &run.per_layer),
    ] {
        if metrics.is_empty() {
            continue;
        }
        eprintln!("{workload} — {title}");
        for m in metrics.iter() {
            eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    eprintln!(
        "{workload}: attempted {} failed {} correct {}",
        run.attempted, run.failed, run.correct
    );

    let mut file = vec![
        ("workload", Json::str(workload.clone())),
        ("environment", environment),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
        ("negative_control", Json::Bool(negative_control)),
        ("correct", Json::Bool(run.correct)),
        ("attempted", Json::Int(run.attempted as i64)),
        ("failed", Json::Int(run.failed as i64)),
        ("end_to_end", metrics_json(&run.end_to_end)),
        ("per_layer", metrics_json(&run.per_layer)),
    ];
    file.append(&mut run.info);
    file.append(&mut extra);
    let path = results.join(format!("{tag}.json"));
    if let Err(e) = std::fs::write(&path, Json::obj(file).render()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }

    let metrics = if trace {
        &run.per_layer
    } else {
        &run.end_to_end
    };
    let line = Json::obj(vec![
        ("correct", Json::Bool(run.correct)),
        ("attempted", Json::Int(run.attempted as i64)),
        ("failed", Json::Int(run.failed as i64)),
        ("metrics", metrics_json(metrics)),
    ]);
    println!("{}", line.render());
    if run.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
