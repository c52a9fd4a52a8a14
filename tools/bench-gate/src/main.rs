//! CLI for the benchmark regression gate.
//!
//! ```text
//! tkcm-bench-gate --profile quick [--thresholds BENCH_THRESHOLDS.toml]
//!                 [--dir .] [--gate NAME] [--bless]
//!                 [--append-history FILE.jsonl [--label LABEL]]
//! ```
//!
//! Exit codes: 0 = every gated metric is at or above its floor, 1 = a
//! metric regressed (or its results file is missing), 2 = usage or I/O
//! error.  A floor whose metric is absent from the results JSON (a renamed
//! trend key) prints a stderr warning but exits 0 — visible, not fatal.
//! `--bless` re-floors every gated metric at
//! observed x 0.7 (a ceiling at observed / 0.7) and rewrites those values
//! in the thresholds file instead of gating, keeping every other byte (a
//! `bar.` line is a fixed acceptance bar and is never rewritten);
//! `--gate NAME` scopes the run, and so a bless, to the one gate `NAME` of
//! the profile, so re-flooring one gate never touches another's numbers;
//! `--append-history` appends one JSONL line of all observed trend metrics
//! (nightly runs accumulate these into a rolling artifact).

use std::path::PathBuf;
use std::process::ExitCode;

use tkcm_bench_gate::{
    bless, dropped_floor_keys, evaluate, history_line, rewrite_values, Thresholds,
};

struct Args {
    profile: String,
    thresholds: PathBuf,
    dir: PathBuf,
    gate: Option<String>,
    bless: bool,
    append_history: Option<PathBuf>,
    label: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        profile: String::new(),
        thresholds: PathBuf::from("BENCH_THRESHOLDS.toml"),
        dir: PathBuf::from("."),
        gate: None,
        bless: false,
        append_history: None,
        label: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--profile" => args.profile = value("--profile")?,
            "--thresholds" => args.thresholds = PathBuf::from(value("--thresholds")?),
            "--dir" => args.dir = PathBuf::from(value("--dir")?),
            "--gate" => args.gate = Some(value("--gate")?),
            "--bless" => args.bless = true,
            "--append-history" => {
                args.append_history = Some(PathBuf::from(value("--append-history")?))
            }
            "--label" => args.label = Some(value("--label")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.profile.is_empty() {
        return Err("--profile <quick|paper> is required".to_string());
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let on_disk = Thresholds::load(&args.thresholds)?;
    let mut thresholds = match &args.gate {
        Some(gate) => on_disk.only_gate(&args.profile, gate)?,
        None => on_disk.clone(),
    };
    let (failures, warnings, observed) = evaluate(&thresholds, &args.profile, &args.dir)?;

    if let Some(history) = &args.append_history {
        let label = args.label.clone().unwrap_or_else(|| args.profile.clone());
        let line = history_line(&label, &args.profile, &observed);
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(history)
            .map_err(|e| format!("opening {}: {e}", history.display()))?;
        writeln!(file, "{line}").map_err(|e| format!("appending to {}: {e}", history.display()))?;
        println!("history line appended to {}", history.display());
    }

    if args.bless {
        // Blessing needs complete observations: a missing file or trend
        // field, or a latency that recorded nothing, must not be floored
        // away.  A reading under a bar is complete; blessing leaves the bar
        // as it is.
        let incomplete: Vec<&String> = failures
            .iter()
            .filter(|f| {
                !f.contains("below the floor")
                    && !f.contains("below the bar")
                    && !f.contains("above the ceiling")
            })
            .chain(warnings.iter())
            .collect();
        if !incomplete.is_empty() {
            for problem in incomplete {
                eprintln!("bench-gate: {problem}");
            }
            return Err("cannot bless from incomplete benchmark results".to_string());
        }
        bless(&mut thresholds, &args.profile, &observed)?;
        // Belt-and-braces: the rewrite must gate exactly what the on-disk
        // file gated.  Re-parse the rewritten file (so rewrite/parse
        // lossiness is caught too) and refuse if any floor key would vanish
        // — dropping a gate is a hand edit, never a `--bless` side effect.
        let text = std::fs::read_to_string(&args.thresholds)
            .map_err(|e| format!("reading {}: {e}", args.thresholds.display()))?;
        let rendered = rewrite_values(&text, &thresholds);
        let reparsed = Thresholds::parse(&rendered)?;
        let dropped = dropped_floor_keys(&on_disk, &reparsed);
        if !dropped.is_empty() {
            for key in &dropped {
                eprintln!("bench-gate: blessing would drop the floor `{key}`");
            }
            return Err(format!(
                "refusing to bless: {} floor key(s) would drop from {} — retire floors by hand \
                 if that is intended",
                dropped.len(),
                args.thresholds.display()
            ));
        }
        std::fs::write(&args.thresholds, rendered)
            .map_err(|e| format!("writing {}: {e}", args.thresholds.display()))?;
        println!(
            "blessed `{}`{} floors in {} from observed x 0.7",
            args.profile,
            args.gate
                .as_ref()
                .map_or(String::new(), |gate| format!(" gate `{gate}`")),
            args.thresholds.display()
        );
        return Ok(true);
    }

    for warning in &warnings {
        eprintln!("bench-gate: WARN {warning}");
    }
    for failure in &failures {
        eprintln!("bench-gate: FAIL {failure}");
    }
    let gated: usize = observed.values().map(|t| t.len()).sum();
    if failures.is_empty() {
        println!(
            "bench-gate: profile `{}` passed ({gated} trend metrics inspected)",
            args.profile
        );
    }
    Ok(failures.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench-gate: error: {e}");
            ExitCode::from(2)
        }
    }
}
