//! End-to-end tests of the gate binary: exit codes, the `--bless` flow and
//! the rolling-history append, driven through `CARGO_BIN_EXE` like the
//! `tkcm-lint` lifecycle tests.

use std::path::{Path, PathBuf};
use std::process::Output;

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tkcm-bench-gate-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &Path, name: &str, contents: &str) {
    std::fs::write(dir.join(name), contents).unwrap();
}

fn run_gate(dir: &Path, extra: &[&str]) -> Output {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_tkcm-bench-gate"));
    cmd.args([
        "--profile",
        "quick",
        "--thresholds",
        dir.join("BENCH_THRESHOLDS.toml").to_str().unwrap(),
        "--dir",
        dir.to_str().unwrap(),
    ])
    .args(extra);
    cmd.output().unwrap()
}

const THRESHOLDS: &str = "\
[quick.fleet]\n\
file = \"BENCH_results_fleet.json\"\n\
speedup_vs_1_shard_at_4 = 1.2\n\
\n\
[quick.pruning]\n\
file = \"BENCH_results_pruning.json\"\n\
speedup_vs_exhaustive = 1.5\n\
pruned_fraction = 0.5\n";

fn results(speedup_at_4: f64, speedup_vs_exhaustive: f64, pruned_fraction: f64) -> [String; 2] {
    [
        format!(
            "{{\"scale\":\"Quick\",\"trend\":{{\"speedup_vs_1_shard_at_4\":{speedup_at_4}}},\"experiments\":[]}}"
        ),
        format!(
            "{{\"scale\":\"Quick\",\"trend\":{{\"speedup_vs_exhaustive\":{speedup_vs_exhaustive},\"pruned_fraction\":{pruned_fraction}}},\"experiments\":[]}}"
        ),
    ]
}

#[test]
fn healthy_results_pass_with_exit_zero() {
    let dir = scratch("pass");
    write(&dir, "BENCH_THRESHOLDS.toml", THRESHOLDS);
    let [fleet, pruning] = results(3.1, 2.4, 0.8);
    write(&dir, "BENCH_results_fleet.json", &fleet);
    write(&dir, "BENCH_results_pruning.json", &pruning);
    let out = run_gate(&dir, &[]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("passed"));
}

#[test]
fn a_synthetic_regression_fails_with_exit_one() {
    let dir = scratch("regress");
    write(&dir, "BENCH_THRESHOLDS.toml", THRESHOLDS);
    // pruned_fraction collapses below its floor — the gate must fail even
    // though every other metric is healthy.
    let [fleet, pruning] = results(3.1, 2.4, 0.1);
    write(&dir, "BENCH_results_fleet.json", &fleet);
    write(&dir, "BENCH_results_pruning.json", &pruning);
    let out = run_gate(&dir, &[]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("pruned_fraction"), "stderr: {stderr}");
    assert!(stderr.contains("below the floor"), "stderr: {stderr}");
}

#[test]
fn a_missing_results_file_fails_with_exit_one() {
    let dir = scratch("missing");
    write(&dir, "BENCH_THRESHOLDS.toml", THRESHOLDS);
    let [fleet, _] = results(3.1, 2.4, 0.8);
    write(&dir, "BENCH_results_fleet.json", &fleet);
    let out = run_gate(&dir, &[]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("BENCH_results_pruning.json"));
}

#[test]
fn a_threshold_key_missing_from_the_results_warns_but_passes() {
    let dir = scratch("renamed-key");
    write(&dir, "BENCH_THRESHOLDS.toml", THRESHOLDS);
    let [fleet, _] = results(3.1, 2.4, 0.8);
    write(&dir, "BENCH_results_fleet.json", &fleet);
    // The pruning results file exists but its trend keys were renamed: the
    // floors in the TOML no longer match anything.  That must be *visible*
    // (stderr note) without failing the run.
    write(
        &dir,
        "BENCH_results_pruning.json",
        "{\"scale\":\"Quick\",\"trend\":{\"pruned_share\":0.8,\"speedup\":2.4},\"experiments\":[]}",
    );
    let out = run_gate(&dir, &[]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("WARN"), "stderr: {stderr}");
    assert!(stderr.contains("`pruned_fraction`"), "stderr: {stderr}");
    assert!(
        stderr.contains("`speedup_vs_exhaustive`"),
        "stderr: {stderr}"
    );
    // Blessing from that state would floor away the stale keys — refuse.
    assert_eq!(run_gate(&dir, &["--bless"]).status.code(), Some(2));
}

#[test]
fn an_unknown_profile_is_a_usage_error() {
    let dir = scratch("usage");
    write(&dir, "BENCH_THRESHOLDS.toml", THRESHOLDS);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tkcm-bench-gate"))
        .args([
            "--profile",
            "weekly",
            "--thresholds",
            dir.join("BENCH_THRESHOLDS.toml").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bless_refloors_from_observed_and_then_passes() {
    let dir = scratch("bless");
    write(&dir, "BENCH_THRESHOLDS.toml", THRESHOLDS);
    // Faster than the floors require: blessing should *raise* them.
    let [fleet, pruning] = results(10.0, 10.0, 0.9);
    write(&dir, "BENCH_results_fleet.json", &fleet);
    write(&dir, "BENCH_results_pruning.json", &pruning);
    let out = run_gate(&dir, &["--bless"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let blessed = std::fs::read_to_string(dir.join("BENCH_THRESHOLDS.toml")).unwrap();
    assert!(
        blessed.contains("speedup_vs_1_shard_at_4 = 7"),
        "blessed: {blessed}"
    );
    assert!(
        blessed.contains("pruned_fraction = 0.63"),
        "blessed: {blessed}"
    );
    // The blessed floors gate the same results cleanly.
    assert!(run_gate(&dir, &[]).status.success());
    // Blessing from incomplete results (a gated file missing) must refuse.
    std::fs::remove_file(dir.join("BENCH_results_pruning.json")).unwrap();
    assert_eq!(run_gate(&dir, &["--bless"]).status.code(), Some(2));
}

#[test]
fn append_history_accumulates_one_line_per_run() {
    let dir = scratch("history");
    write(&dir, "BENCH_THRESHOLDS.toml", THRESHOLDS);
    let [fleet, pruning] = results(3.1, 2.4, 0.8);
    write(&dir, "BENCH_results_fleet.json", &fleet);
    write(&dir, "BENCH_results_pruning.json", &pruning);
    let history = dir.join("BENCH_trend_history.jsonl");
    for label in ["run-1", "run-2"] {
        let out = run_gate(
            &dir,
            &[
                "--append-history",
                history.to_str().unwrap(),
                "--label",
                label,
            ],
        );
        assert!(out.status.success());
    }
    let lines: Vec<String> = std::fs::read_to_string(&history)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].contains("\"label\":\"run-1\""));
    assert!(lines[1].contains("\"label\":\"run-2\""));
    assert!(lines[1].contains("\"pruning.pruned_fraction\":0.8"));
    assert!(lines[1].contains("\"fleet.speedup_vs_1_shard_at_4\":3.1"));
}

#[test]
fn a_scoped_bless_refloors_one_gate_and_keeps_the_rest_of_the_file() {
    let dir = scratch("scoped-bless");
    let annotated = format!("# A hand-written note.\n{THRESHOLDS}ceiling.latency_ms = 2\n");
    write(&dir, "BENCH_THRESHOLDS.toml", &annotated);
    let [fleet, pruning] = results(10.0, 10.0, 0.9);
    write(&dir, "BENCH_results_fleet.json", &fleet);
    write(&dir, "BENCH_results_pruning.json", &pruning);
    // The pruning file lacks `latency_ms`, but a bless of the fleet gate
    // alone does not need it.
    let out = run_gate(&dir, &["--bless", "--gate", "fleet"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let blessed = std::fs::read_to_string(dir.join("BENCH_THRESHOLDS.toml")).unwrap();
    let expected = annotated.replace(
        "speedup_vs_1_shard_at_4 = 1.2",
        "speedup_vs_1_shard_at_4 = 7",
    );
    assert_eq!(blessed, expected);
    // A gate the profile lacks is a usage error.
    assert_eq!(
        run_gate(&dir, &["--bless", "--gate", "recovery"])
            .status
            .code(),
        Some(2)
    );
    // Gating the whole profile still sees the pruning ceiling's missing
    // metric, and warns.
    let out = run_gate(&dir, &[]);
    assert!(String::from_utf8_lossy(&out.stderr).contains("`latency_ms`"));
}
