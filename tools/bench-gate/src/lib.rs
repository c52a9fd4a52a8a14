//! Performance-regression gate over the benchmark trend JSON.
//!
//! The benchmark binaries (`fleet_throughput`, `recovery_bench`,
//! `candidate_pruning`) each write a results file whose top level carries a
//! *flat* `"trend"` object of gateable numbers — per-shard speedups,
//! per-mode throughput, `pruned_fraction`, recovery speedups.  This crate
//! reads those files, compares each trend field against the minimums in
//! `BENCH_THRESHOLDS.toml` and fails CI (exit 1) when a metric regresses
//! below its floor.
//!
//! Like `tkcm-lint`, the gate is dependency-free: it parses a deliberately
//! tiny TOML subset (section headers + `key = value` lines) and scans the
//! one flat JSON object it needs instead of pulling in a JSON parser.  The
//! `--bless` flow rewrites the thresholds from observed values with a 30 %
//! safety margin, so floors stay honest as the code gets faster without
//! anyone hand-tuning numbers; `--bless --gate <name>` re-floors one gate
//! and leaves every other byte of the file as it was.
//!
//! Most metrics are higher-is-better and carry a floor (`metric = min`).  A
//! lower-is-better metric, such as a latency, carries a *ceiling* instead
//! (`ceiling.metric = max`): it fails above the ceiling, and also at or
//! below 0, which is what a histogram that recorded nothing reports.  An
//! acceptance bar that must not drift with the measurements is a *bar*
//! (`bar.metric = min`): it gates like a floor, and `--bless` never
//! rewrites it.

use std::collections::BTreeMap;
use std::path::Path;

/// One gated results file: which JSON to read and the floor for each trend
/// metric found in it.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    /// Gate name (the second segment of the `[profile.gate]` section).
    pub name: String,
    /// Results file, relative to the directory passed on the command line.
    pub file: String,
    /// Metric name → minimum acceptable value.
    pub minimums: BTreeMap<String, f64>,
    /// Metric name → maximum acceptable value (`ceiling.<metric>` keys):
    /// lower-is-better metrics, which must also stay above 0.
    pub ceilings: BTreeMap<String, f64>,
    /// Metric name → fixed minimum (`bar.<metric>` keys): gated like a
    /// floor, never re-blessed.
    pub bars: BTreeMap<String, f64>,
}

/// The key prefix of a ceiling in the thresholds file.
const CEILING: &str = "ceiling.";

/// The key prefix of a fixed bar in the thresholds file.
const BAR: &str = "bar.";

/// Parsed `BENCH_THRESHOLDS.toml`: profile name (`quick`, `paper`) → gates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Thresholds {
    /// Profile → gates, both sorted for deterministic rendering.
    pub profiles: BTreeMap<String, Vec<Gate>>,
}

impl Thresholds {
    /// Parses the thresholds file.  The accepted grammar is the same
    /// hand-rolled TOML subset the fingerprint manifest uses: comments,
    /// `[profile.gate]` section headers, `file = "quoted"`,
    /// `metric = <float>`, `ceiling.metric = <float>` and
    /// `bar.metric = <float>` lines.  Anything else is an error — the file is
    /// small and machine-rewritten by `--bless`, so surprises mean drift.
    pub fn parse(text: &str) -> Result<Thresholds, String> {
        let mut thresholds = Thresholds::default();
        let mut current: Option<(String, String)> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let (profile, gate) = header.split_once('.').ok_or_else(|| {
                    format!("line {}: section headers are [profile.gate]", lineno + 1)
                })?;
                if profile.is_empty() || gate.is_empty() {
                    return Err(format!("line {}: empty section segment", lineno + 1));
                }
                thresholds
                    .profiles
                    .entry(profile.to_string())
                    .or_default()
                    .push(Gate {
                        name: gate.to_string(),
                        file: String::new(),
                        minimums: BTreeMap::new(),
                        ceilings: BTreeMap::new(),
                        bars: BTreeMap::new(),
                    });
                current = Some((profile.to_string(), gate.to_string()));
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let (profile, gate) = current.clone().ok_or_else(|| {
                format!("line {}: key before any [profile.gate] section", lineno + 1)
            })?;
            let entry = thresholds
                .profiles
                .get_mut(&profile)
                .and_then(|gates| gates.iter_mut().find(|g| g.name == gate))
                .expect("current section was just inserted");
            if key == "file" {
                let quoted = value
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| format!("line {}: file values are quoted", lineno + 1))?;
                entry.file = quoted.to_string();
            } else {
                let parsed: f64 = value
                    .parse()
                    .map_err(|_| format!("line {}: {key} must be a number", lineno + 1))?;
                if let Some(metric) = key.strip_prefix(CEILING) {
                    entry.ceilings.insert(metric.to_string(), parsed);
                } else if let Some(metric) = key.strip_prefix(BAR) {
                    entry.bars.insert(metric.to_string(), parsed);
                } else {
                    entry.minimums.insert(key.to_string(), parsed);
                }
            }
        }
        for (profile, gates) in &thresholds.profiles {
            for gate in gates {
                if gate.file.is_empty() {
                    return Err(format!("[{profile}.{}] is missing a `file` key", gate.name));
                }
            }
        }
        Ok(thresholds)
    }

    /// Loads and parses the thresholds at `path`.
    pub fn load(path: &Path) -> Result<Thresholds, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Thresholds::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Renders the thresholds deterministically (profiles and metrics in
    /// sorted order, gates in declaration order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "# Benchmark regression floors — checked by `cargo run -p tkcm-bench-gate`.\n\
             # Each [profile.gate] section names one benchmark results file and the\n\
             # minimum acceptable value for trend metrics in it.  Regenerate floors\n\
             # from fresh measurements (observed x 0.7) with `--bless`.\n",
        );
        for (profile, gates) in &self.profiles {
            for gate in gates {
                out.push_str(&format!(
                    "\n[{profile}.{}]\nfile = \"{}\"\n",
                    gate.name, gate.file
                ));
                for (metric, min) in &gate.minimums {
                    out.push_str(&format!("{metric} = {min}\n"));
                }
                for (metric, max) in &gate.ceilings {
                    out.push_str(&format!("{CEILING}{metric} = {max}\n"));
                }
                for (metric, bar) in &gate.bars {
                    out.push_str(&format!("{BAR}{metric} = {bar}\n"));
                }
            }
        }
        out
    }

    /// A copy holding only gate `gate` of `profile`, for a run scoped with
    /// `--gate`.
    pub fn only_gate(&self, profile: &str, gate: &str) -> Result<Thresholds, String> {
        let found = self
            .profiles
            .get(profile)
            .ok_or_else(|| format!("profile `{profile}` is not in the thresholds file"))?
            .iter()
            .find(|g| g.name == gate)
            .ok_or_else(|| format!("gate `{gate}` is not in profile `{profile}`"))?;
        Ok(Thresholds {
            profiles: BTreeMap::from([(profile.to_string(), vec![found.clone()])]),
        })
    }
}

/// Rewrites, in the thresholds file `text`, the value of every floor and
/// ceiling line of the gates `blessed` holds to its value there.  Every
/// other byte of `text` — comments, blank lines, `file` keys, `bar.` lines
/// and the lines of every other gate — comes back unchanged.
pub fn rewrite_values(text: &str, blessed: &Thresholds) -> String {
    let mut out = String::with_capacity(text.len());
    let mut gate: Option<&Gate> = None;
    for line in text.split_inclusive('\n') {
        let trimmed = line.trim();
        if let Some(header) = trimmed.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            gate = header.split_once('.').and_then(|(profile, name)| {
                blessed
                    .profiles
                    .get(profile)
                    .and_then(|gates| gates.iter().find(|g| g.name == name))
            });
        }
        let value = gate
            .zip(trimmed.split_once('='))
            .and_then(|(gate, (key, _))| {
                let key = key.trim();
                match key.strip_prefix(CEILING) {
                    Some(metric) => gate.ceilings.get(metric),
                    None => gate.minimums.get(key),
                }
                .map(|value| (key, value))
            });
        match value {
            Some((key, value)) if !trimmed.starts_with('#') => {
                let indent = &line[..line.len() - line.trim_start().len()];
                let ending = &line[line.trim_end().len()..];
                out.push_str(&format!("{indent}{key} = {value}{ending}"));
            }
            _ => out.push_str(line),
        }
    }
    out
}

/// Extracts the flat top-level `"trend"` object from a benchmark results
/// file.  The object is flat by construction (the serialisers in
/// `tkcm-bench` emit only `"name":number|null` pairs), so a brace-free scan
/// between `"trend":{` and the next `}` is exact, not heuristic.
pub fn parse_trend(json: &str) -> Result<BTreeMap<String, f64>, String> {
    let start = json
        .find("\"trend\":{")
        .ok_or_else(|| "no top-level \"trend\" object".to_string())?
        + "\"trend\":{".len();
    let end = json[start..]
        .find('}')
        .ok_or_else(|| "unterminated \"trend\" object".to_string())?
        + start;
    let body = json[start..end].trim();
    let mut trend = BTreeMap::new();
    if body.is_empty() {
        return Ok(trend);
    }
    for pair in body.split(',') {
        let (key, value) = pair
            .split_once(':')
            .ok_or_else(|| format!("malformed trend entry `{pair}`"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("unquoted trend key in `{pair}`"))?;
        let value = value.trim();
        if value == "null" {
            // Non-finite measurement (e.g. a zero-wall-time division);
            // absent from the map, so gating on it reports "missing".
            continue;
        }
        let parsed: f64 = value
            .parse()
            .map_err(|_| format!("non-numeric trend value in `{pair}`"))?;
        trend.insert(key.to_string(), parsed);
    }
    Ok(trend)
}

/// One gate-evaluation problem, already formatted for display.
pub type Failure = String;

/// A non-fatal gate-evaluation note, already formatted for display.
pub type Warning = String;

/// Observed trend metrics per gate name (`gate → metric → value`).
pub type ObservedTrends = BTreeMap<String, BTreeMap<String, f64>>;

/// Evaluates every gate of `profile` against the results files under `dir`.
/// Returns the list of failures (empty = the gate passes), the list of
/// warnings (a floor whose metric is absent from its results file — e.g. a
/// renamed trend key — warns instead of silently un-gating, but does not
/// fail the run) and the observed trend per gate (for `--bless` and
/// `--append-history`).
pub fn evaluate(
    thresholds: &Thresholds,
    profile: &str,
    dir: &Path,
) -> Result<(Vec<Failure>, Vec<Warning>, ObservedTrends), String> {
    let gates = thresholds
        .profiles
        .get(profile)
        .ok_or_else(|| format!("profile `{profile}` is not in the thresholds file"))?;
    let mut failures = Vec::new();
    let mut warnings = Vec::new();
    let mut observed = BTreeMap::new();
    for gate in gates {
        let path = dir.join(&gate.file);
        let json = match std::fs::read_to_string(&path) {
            Ok(json) => json,
            Err(e) => {
                failures.push(format!(
                    "[{profile}.{}] cannot read {}: {e}",
                    gate.name,
                    path.display()
                ));
                continue;
            }
        };
        let trend = match parse_trend(&json) {
            Ok(trend) => trend,
            Err(e) => {
                failures.push(format!("[{profile}.{}] {}: {e}", gate.name, path.display()));
                continue;
            }
        };
        let floors = gate.minimums.iter().map(|(m, v)| (m, v, "floor"));
        let bars = gate.bars.iter().map(|(m, v)| (m, v, "bar"));
        for (metric, min, kind) in floors.chain(bars) {
            match trend.get(metric) {
                None => warnings.push(missing_metric(profile, gate, metric)),
                Some(value) if value < min => failures.push(format!(
                    "[{profile}.{}] {metric} = {value} is below the {kind} {min}",
                    gate.name
                )),
                Some(_) => {}
            }
        }
        for (metric, max) in &gate.ceilings {
            match trend.get(metric) {
                None => warnings.push(missing_metric(profile, gate, metric)),
                Some(value) if *value <= 0.0 => failures.push(format!(
                    "[{profile}.{}] {metric} = {value} is not above 0: nothing was recorded",
                    gate.name
                )),
                Some(value) if value > max => failures.push(format!(
                    "[{profile}.{}] {metric} = {value} is above the ceiling {max}",
                    gate.name
                )),
                Some(_) => {}
            }
        }
        observed.insert(gate.name.clone(), trend);
    }
    Ok((failures, warnings, observed))
}

/// The warning for a floor or ceiling whose metric the results lack.
fn missing_metric(profile: &str, gate: &Gate, metric: &str) -> Warning {
    format!(
        "[{profile}.{}] {} has no `{metric}` in its trend object — this floor \
         currently gates nothing (renamed trend key? update the thresholds file)",
        gate.name, gate.file
    )
}

/// Rewrites each gated metric's floor to `observed x 0.7` and each ceiling
/// to `observed / 0.7` (rounded to three decimals), leaving the metric
/// *set* unchanged: blessing updates numbers, it never silently adds or
/// drops what is gated.  Bars are acceptance bars, not measurements, and
/// are left as they are.  Metrics missing from the observed trend are an
/// error — a floor must never outlive its metric.
pub fn bless(
    thresholds: &mut Thresholds,
    profile: &str,
    observed: &BTreeMap<String, BTreeMap<String, f64>>,
) -> Result<(), String> {
    let gates = thresholds
        .profiles
        .get_mut(profile)
        .ok_or_else(|| format!("profile `{profile}` is not in the thresholds file"))?;
    for gate in gates {
        let trend = observed
            .get(&gate.name)
            .ok_or_else(|| format!("no observed trend for [{profile}.{}]", gate.name))?;
        let floors = gate.minimums.iter_mut().map(|(m, v)| (m, v, 0.7));
        let ceilings = gate.ceilings.iter_mut().map(|(m, v)| (m, v, 1.0 / 0.7));
        for (metric, bound, margin) in floors.chain(ceilings) {
            let value = trend.get(metric).ok_or_else(|| {
                format!(
                    "[{profile}.{}] observed trend has no `{metric}` to bless from",
                    gate.name
                )
            })?;
            *bound = (value * margin * 1000.0).round() / 1000.0;
        }
    }
    Ok(())
}

/// Flattens a thresholds tree into its `(profile, gate, metric)` floor
/// keys, rendered `profile.gate.metric`, plus a `profile.gate.file` entry
/// per gate — the complete set of things the file gates.
pub fn floor_keys(thresholds: &Thresholds) -> std::collections::BTreeSet<String> {
    let mut keys = std::collections::BTreeSet::new();
    for (profile, gates) in &thresholds.profiles {
        for gate in gates {
            keys.insert(format!("{profile}.{}.file", gate.name));
            for metric in gate.minimums.keys() {
                keys.insert(format!("{profile}.{}.{metric}", gate.name));
            }
            for metric in gate.ceilings.keys() {
                keys.insert(format!("{profile}.{}.{CEILING}{metric}", gate.name));
            }
            for metric in gate.bars.keys() {
                keys.insert(format!("{profile}.{}.{BAR}{metric}", gate.name));
            }
        }
    }
    keys
}

/// The floor keys present in `before` but absent from `after` — non-empty
/// means a thresholds rewrite would silently stop gating something.
/// `--bless` refuses to write in that case: retiring a floor (e.g. after a
/// trend-key rename) must be an explicit hand edit, never a side effect of
/// re-flooring.
pub fn dropped_floor_keys(before: &Thresholds, after: &Thresholds) -> Vec<String> {
    let kept = floor_keys(after);
    floor_keys(before)
        .into_iter()
        .filter(|key| !kept.contains(key))
        .collect()
}

/// Renders one rolling-history line: a self-contained JSON object with the
/// label, the profile and every observed trend metric namespaced by gate
/// (`"pruning.pruned_fraction"`).  Appended to `BENCH_trend_history.jsonl`
/// by the nightly workflow so the metric trajectory is one artifact.
pub fn history_line(
    label: &str,
    profile: &str,
    observed: &BTreeMap<String, BTreeMap<String, f64>>,
) -> String {
    let mut fields = Vec::new();
    for (gate, trend) in observed {
        for (metric, value) in trend {
            fields.push(format!("\"{gate}.{metric}\":{value}"));
        }
    }
    format!(
        "{{\"label\":\"{label}\",\"profile\":\"{profile}\",\"trend\":{{{}}}}}",
        fields.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# comment\n\
[quick.fleet]\n\
file = \"BENCH_results_fleet.json\"\n\
speedup_vs_1_shard_at_4 = 1.2\n\
\n\
[quick.pruning]\n\
file = \"BENCH_results_pruning.json\"\n\
pruned_fraction = 0.5\n\
speedup_vs_exhaustive = 1.5\n";

    #[test]
    fn thresholds_render_parse_round_trips() {
        let parsed = Thresholds::parse(SAMPLE).unwrap();
        assert_eq!(parsed.profiles["quick"].len(), 2);
        assert_eq!(parsed.profiles["quick"][1].minimums["pruned_fraction"], 0.5);
        let back = Thresholds::parse(&parsed.render()).unwrap();
        assert_eq!(back, parsed);
    }

    #[test]
    fn malformed_thresholds_are_rejected() {
        assert!(Thresholds::parse("[flat]\nfile = \"x\"\n").is_err());
        assert!(Thresholds::parse("orphan = 1\n").is_err());
        assert!(Thresholds::parse("[q.g]\nfile = unquoted\n").is_err());
        assert!(Thresholds::parse("[q.g]\nmetric = not_a_number\n").is_err());
        // A section without a `file` key cannot be gated.
        assert!(Thresholds::parse("[q.g]\nmetric = 1\n").is_err());
    }

    #[test]
    fn trend_extraction_reads_the_flat_object() {
        let json = r#"{"scale":"Quick","trend":{"a":1.5,"b":null,"c":-2e3},"experiments":[{"report":{"x":"}"}}]}"#;
        let trend = parse_trend(json).unwrap();
        assert_eq!(trend.get("a"), Some(&1.5));
        assert_eq!(trend.get("b"), None); // null → missing, not zero
        assert_eq!(trend.get("c"), Some(&-2000.0));
        assert!(parse_trend("{\"no_trend\":{}}").is_err());
        assert!(parse_trend("{\"trend\":{\"a\":}").is_err());
        assert_eq!(parse_trend("{\"trend\":{}}").unwrap().len(), 0);
    }

    #[test]
    fn a_floor_without_its_metric_warns_instead_of_failing() {
        let dir =
            std::env::temp_dir().join(format!("tkcm-bench-gate-lib-warn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let thresholds = Thresholds::parse(
            "[quick.fleet]\nfile = \"r.json\"\nold_name = 1.0\nhealthy = 1.0\nbad = 5.0\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("r.json"),
            "{\"trend\":{\"healthy\":2.0,\"bad\":1.0,\"new_name\":9.0}}",
        )
        .unwrap();
        let (failures, warnings, observed) = evaluate(&thresholds, "quick", &dir).unwrap();
        // The renamed key warns (it must not silently un-gate)…
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("`old_name`"), "{}", warnings[0]);
        assert!(warnings[0].contains("gates nothing"), "{}", warnings[0]);
        // …while real regressions still fail, and healthy metrics pass.
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("bad = 1"), "{}", failures[0]);
        assert_eq!(observed["fleet"]["new_name"], 9.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bless_applies_the_margin_and_keeps_the_metric_set() {
        let mut thresholds = Thresholds::parse(SAMPLE).unwrap();
        let mut observed = BTreeMap::new();
        observed.insert(
            "fleet".to_string(),
            BTreeMap::from([("speedup_vs_1_shard_at_4".to_string(), 3.0)]),
        );
        observed.insert(
            "pruning".to_string(),
            BTreeMap::from([
                ("pruned_fraction".to_string(), 0.9),
                ("speedup_vs_exhaustive".to_string(), 4.0),
                ("an_unrelated_metric".to_string(), 1.0),
            ]),
        );
        bless(&mut thresholds, "quick", &observed).unwrap();
        let gates = &thresholds.profiles["quick"];
        assert_eq!(gates[0].minimums["speedup_vs_1_shard_at_4"], 2.1);
        assert_eq!(gates[1].minimums["pruned_fraction"], 0.63);
        assert_eq!(gates[1].minimums["speedup_vs_exhaustive"], 2.8);
        // Blessing never grows the gated set.
        assert!(!gates[1].minimums.contains_key("an_unrelated_metric"));
        // A floor whose metric vanished from the results is an error.
        observed
            .get_mut("pruning")
            .unwrap()
            .remove("pruned_fraction");
        assert!(bless(&mut thresholds, "quick", &observed).is_err());
    }

    #[test]
    fn dropped_floor_keys_spots_removed_metrics_gates_and_profiles() {
        let before = Thresholds::parse(SAMPLE).unwrap();
        // A faithful bless round-trip (render + parse, floors re-numbered)
        // drops nothing.
        let mut blessed = before.clone();
        let observed = BTreeMap::from([
            (
                "fleet".to_string(),
                BTreeMap::from([("speedup_vs_1_shard_at_4".to_string(), 3.0)]),
            ),
            (
                "pruning".to_string(),
                BTreeMap::from([
                    ("pruned_fraction".to_string(), 0.9),
                    ("speedup_vs_exhaustive".to_string(), 4.0),
                ]),
            ),
        ]);
        bless(&mut blessed, "quick", &observed).unwrap();
        let reparsed = Thresholds::parse(&blessed.render()).unwrap();
        assert!(dropped_floor_keys(&before, &reparsed).is_empty());

        // Removing a metric, a whole gate or a whole profile is detected.
        let mut lossy = before.clone();
        lossy.profiles.get_mut("quick").unwrap()[1]
            .minimums
            .remove("pruned_fraction");
        assert_eq!(
            dropped_floor_keys(&before, &lossy),
            vec!["quick.pruning.pruned_fraction".to_string()]
        );
        let mut gateless = before.clone();
        gateless.profiles.get_mut("quick").unwrap().remove(1);
        let dropped = dropped_floor_keys(&before, &gateless);
        assert!(dropped.contains(&"quick.pruning.file".to_string()));
        assert!(dropped.contains(&"quick.pruning.pruned_fraction".to_string()));
        let empty = Thresholds::default();
        assert_eq!(dropped_floor_keys(&before, &empty).len(), 5);
    }

    /// A thresholds file with comments, a fixed bar and latency ceilings.
    const ANNOTATED: &str = "\
# Header comment: kept byte for byte.\n\
\n\
[quick.fleet]\n\
file = \"BENCH_results_fleet.json\"\n\
# obs_overhead_ratio is an acceptance bar, never re-blessed.\n\
obs_overhead_ratio = 0.9\n\
speedup_vs_1_shard_at_4 = 1.2\n\
ceiling.storm_batch_p50_ms_at_4 = 1.5\n\
\n\
[quick.pruning]\n\
file = \"BENCH_results_pruning.json\"\n\
pruned_fraction = 0.5\n\
worst_case = 0\n";

    #[test]
    fn ceilings_fail_above_the_bar_and_at_zero() {
        let dir =
            std::env::temp_dir().join(format!("tkcm-bench-gate-lib-ceil-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let thresholds = Thresholds::parse(ANNOTATED).unwrap();
        let fleet = &thresholds.profiles["quick"][0];
        assert_eq!(fleet.ceilings["storm_batch_p50_ms_at_4"], 1.5);
        assert!(!fleet.minimums.contains_key("storm_batch_p50_ms_at_4"));
        assert_eq!(Thresholds::parse(&thresholds.render()).unwrap(), thresholds);
        std::fs::write(
            dir.join("BENCH_results_pruning.json"),
            "{\"trend\":{\"pruned_fraction\":0.9,\"worst_case\":2.0}}",
        )
        .unwrap();
        let verdict = |p50: f64| {
            std::fs::write(
                dir.join("BENCH_results_fleet.json"),
                format!(
                    "{{\"trend\":{{\"obs_overhead_ratio\":1.0,\"speedup_vs_1_shard_at_4\":2.0,\
                     \"storm_batch_p50_ms_at_4\":{p50}}}}}"
                ),
            )
            .unwrap();
            evaluate(&thresholds, "quick", &dir).unwrap().0
        };
        // Faster is fine; slower than the ceiling fails; a silent histogram
        // (0) fails too.
        assert!(verdict(0.4).is_empty());
        assert!(verdict(1.5).is_empty());
        let slow = verdict(1.6);
        assert!(
            slow.len() == 1 && slow[0].contains("above the ceiling"),
            "{slow:?}"
        );
        let silent = verdict(0.0);
        assert!(
            silent.len() == 1 && silent[0].contains("not above 0"),
            "{silent:?}"
        );
        // A ceiling blesses at observed / 0.7.
        assert!(verdict(0.42).is_empty());
        let (_, _, observed) = evaluate(&thresholds, "quick", &dir).unwrap();
        let mut blessed = thresholds.only_gate("quick", "fleet").unwrap();
        bless(&mut blessed, "quick", &observed).unwrap();
        assert_eq!(
            blessed.profiles["quick"][0].ceilings["storm_batch_p50_ms_at_4"],
            0.6
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_scoped_bless_leaves_every_other_gate_byte_identical() {
        let thresholds = Thresholds::parse(ANNOTATED).unwrap();
        let mut scoped = thresholds.only_gate("quick", "pruning").unwrap();
        assert!(thresholds.only_gate("quick", "recovery").is_err());
        assert!(thresholds.only_gate("paper", "pruning").is_err());
        let observed = BTreeMap::from([(
            "pruning".to_string(),
            BTreeMap::from([
                ("pruned_fraction".to_string(), 0.9),
                ("worst_case".to_string(), 1.5),
            ]),
        )]);
        bless(&mut scoped, "quick", &observed).unwrap();
        let rewritten = rewrite_values(ANNOTATED, &scoped);
        // Only the two pruning value lines changed.
        let (head, pruning) = rewritten.split_at(rewritten.find("[quick.pruning]").unwrap());
        assert_eq!(
            head,
            &ANNOTATED[..ANNOTATED.find("[quick.pruning]").unwrap()]
        );
        assert_eq!(
            pruning,
            "[quick.pruning]\nfile = \"BENCH_results_pruning.json\"\n\
             pruned_fraction = 0.63\nworst_case = 1.05\n"
        );
        assert!(
            dropped_floor_keys(&thresholds, &Thresholds::parse(&rewritten).unwrap()).is_empty()
        );
        // Rewriting with the unchanged model gives the file back as it was.
        assert_eq!(rewrite_values(ANNOTATED, &thresholds), ANNOTATED);
    }

    /// A fleet gate whose observability bound is a fixed bar.
    const BARRED: &str = "\
[quick.fleet]\n\
file = \"BENCH_results_fleet.json\"\n\
bar.obs_overhead_ratio = 0.9\n\
speedup_vs_1_shard_at_4 = 1.2\n\
ceiling.storm_batch_p50_ms_at_4 = 1.5\n";

    #[test]
    fn a_bar_gates_like_a_floor_and_a_scoped_bless_leaves_its_line_byte_identical() {
        let dir =
            std::env::temp_dir().join(format!("tkcm-bench-gate-lib-bar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let thresholds = Thresholds::parse(BARRED).unwrap();
        let fleet = &thresholds.profiles["quick"][0];
        assert_eq!(fleet.bars["obs_overhead_ratio"], 0.9);
        assert!(!fleet.minimums.contains_key("obs_overhead_ratio"));
        assert_eq!(Thresholds::parse(&thresholds.render()).unwrap(), thresholds);
        let verdict = |obs: f64| {
            std::fs::write(
                dir.join("BENCH_results_fleet.json"),
                format!(
                    "{{\"trend\":{{\"obs_overhead_ratio\":{obs},\"speedup_vs_1_shard_at_4\":3.0,\
                     \"storm_batch_p50_ms_at_4\":0.7}}}}"
                ),
            )
            .unwrap();
            evaluate(&thresholds, "quick", &dir).unwrap()
        };
        assert!(verdict(0.95).0.is_empty());
        let low = verdict(0.85).0;
        assert!(
            low.len() == 1 && low[0].contains("below the bar 0.9"),
            "{low:?}"
        );

        // Blessing from a reading far above the bar moves the floor and the
        // ceiling, never the bar.
        let (_, _, observed) = verdict(1.4);
        let mut scoped = thresholds.only_gate("quick", "fleet").unwrap();
        bless(&mut scoped, "quick", &observed).unwrap();
        assert_eq!(scoped.profiles["quick"][0].bars["obs_overhead_ratio"], 0.9);
        let rewritten = rewrite_values(BARRED, &scoped);
        assert_eq!(
            rewritten,
            "[quick.fleet]\nfile = \"BENCH_results_fleet.json\"\n\
             bar.obs_overhead_ratio = 0.9\nspeedup_vs_1_shard_at_4 = 2.1\n\
             ceiling.storm_batch_p50_ms_at_4 = 1\n"
        );
        let bar_line = |text: &str| {
            text.lines()
                .find(|l| l.starts_with("bar."))
                .map(String::from)
        };
        assert_eq!(bar_line(&rewritten), bar_line(BARRED));
        assert!(
            dropped_floor_keys(&thresholds, &Thresholds::parse(&rewritten).unwrap()).is_empty()
        );
        // A rewrite that drops the bar is caught like a dropped floor.
        let mut barless = thresholds.clone();
        barless.profiles.get_mut("quick").unwrap()[0].bars.clear();
        assert_eq!(
            dropped_floor_keys(&thresholds, &barless),
            vec!["quick.fleet.bar.obs_overhead_ratio".to_string()]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn history_line_namespaces_metrics_by_gate() {
        let observed = BTreeMap::from([(
            "pruning".to_string(),
            BTreeMap::from([("pruned_fraction".to_string(), 0.75)]),
        )]);
        let line = history_line("run-42", "paper", &observed);
        assert_eq!(
            line,
            "{\"label\":\"run-42\",\"profile\":\"paper\",\"trend\":{\"pruning.pruned_fraction\":0.75}}"
        );
    }
}
